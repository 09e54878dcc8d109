/**
 * @file
 * Post-mortem forensics for the NVRAM black-box flight recorder.
 *
 * Takes the surviving evidence of a crash — a serialized NVRAM image
 * (crash_sweep --image-out, NvramImage::writeFile) or a crash-replay
 * schedule file (re-executed deterministically to regenerate the
 * image) — locates the flight-recorder ring in it, and prints the
 * decoded timeline plus per-category/per-event statistics. The
 * timeline can also be exported as a Chrome trace (chrome://tracing /
 * Perfetto), and two images' recorders can be diffed record by
 * record to see where their histories diverge.
 *
 * Exit codes: 0 = decoded and sound (and identical, under --diff),
 * 3 = ring unsound / recorders differ / header missing under
 * --require-header, 1 = bad usage or I/O error.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "crashsim/crash_explorer.h"
#include "crashsim/invariants.h"
#include "nvram/nvram_image.h"
#include "trace/flight_recorder.h"

namespace {

using wsp::NvramImage;
using wsp::crashsim::CrashExplorer;
using wsp::crashsim::CrashSchedule;
using wsp::crashsim::decodeBlackBox;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: wsp_inspect [options]\n"
        "  --image=PATH      NVRAM image file (crash_sweep --image-out)\n"
        "  --replay=PATH     single-machine crash-replay schedule;\n"
        "                    re-runs it and inspects the image the\n"
        "                    crash leaves behind\n"
        "  --diff=PATH       second image: diff the two recorders\n"
        "  --trace-out=PATH  export the timeline as a Chrome trace\n"
        "  --require-header  fail (exit 3) when no recorder header\n"
        "                    survived in the image\n"
        "  --quiet           stats only, no per-record timeline\n");
}

/** Load the image to inspect from either source. */
bool
loadImage(const std::string &image_path, const std::string &replay_path,
          NvramImage *out)
{
    if (!image_path.empty()) {
        auto image = NvramImage::readFile(image_path);
        if (!image) {
            std::fprintf(stderr, "cannot load NVRAM image '%s'\n",
                         image_path.c_str());
            return false;
        }
        *out = std::move(*image);
        return true;
    }
    auto schedule = CrashSchedule::readFile(replay_path);
    if (!schedule) {
        std::fprintf(stderr, "cannot load crash schedule '%s'\n",
                     replay_path.c_str());
        return false;
    }
    if (schedule->fleetNodes > 0) {
        // A fleet run leaves one image per node, not one image.
        std::fprintf(stderr,
                     "'%s' is a fleet schedule; replay it with "
                     "crash_replay\n",
                     replay_path.c_str());
        return false;
    }
    std::printf("replaying: %s\n", schedule->summary().c_str());
    CrashExplorer::runSchedule(*schedule, out);
    return true;
}

void
printSummary(const char *label, const wsp::trace::FrDecodeResult &d)
{
    std::printf("%s:\n", label);
    if (!d.headerFound) {
        std::printf("  no flight-recorder header found\n");
        for (const std::string &note : d.notes)
            std::printf("  note: %s\n", note.c_str());
        return;
    }
    std::printf("  header %s, generation %llu, capacity %zu records\n",
                d.headerValid ? "valid" : "CORRUPT",
                static_cast<unsigned long long>(d.generation),
                d.capacity);
    std::printf("  published seq [%llu, %llu), %llu emitted lifetime\n",
                static_cast<unsigned long long>(d.tailSeq),
                static_cast<unsigned long long>(d.headSeq),
                static_cast<unsigned long long>(d.totalEmitted));
    std::printf("  %zu records decoded, %zu torn, %zu unsaved, "
                "%zu stale%s\n",
                d.records.size(), d.tornSlots, d.unsavedSlots,
                d.staleSlots,
                d.unpublishedTail ? ", in-flight tail present" : "");
    for (const std::string &note : d.notes)
        std::printf("  note: %s\n", note.c_str());
    std::printf("  verdict: %s\n",
                d.sound() ? "SOUND (publish discipline held)"
                          : "UNSOUND (torn records inside the "
                            "published window)");
}

void
printStats(const wsp::trace::FrDecodeResult &d)
{
    std::map<std::string, size_t> by_category;
    std::map<std::string, size_t> by_event;
    for (const wsp::trace::FrRecord &r : d.records) {
        ++by_category[wsp::trace::categoryName(r.category)];
        ++by_event[wsp::trace::frEventName(r.event)];
    }
    std::printf("per-category:\n");
    for (const auto &[name, count] : by_category)
        std::printf("  %-10s %zu\n", name.c_str(), count);
    std::printf("per-event:\n");
    for (const auto &[name, count] : by_event)
        std::printf("  %-22s %zu\n", name.c_str(), count);
}

/** Chrome trace (JSON object format): one instant event per record. */
bool
writeChromeTrace(const std::string &path,
                 const wsp::trace::FrDecodeResult &d)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write trace to '%s'\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (const wsp::trace::FrRecord &r : d.records) {
        // Event and category names are fixed ASCII identifiers, so no
        // JSON string escaping is needed here.
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\","
            "\"s\":\"g\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
            "\"args\":{\"seq\":%llu,\"generation\":%llu,"
            "\"a0\":%llu,\"a1\":%llu}}",
            first ? "" : ",", wsp::trace::frEventName(r.event),
            wsp::trace::categoryName(r.category),
            static_cast<double>(r.simTick) / 1e3, // ns -> us
            static_cast<unsigned>(r.category),
            static_cast<unsigned long long>(r.seq),
            static_cast<unsigned long long>(r.generation),
            static_cast<unsigned long long>(r.a0),
            static_cast<unsigned long long>(r.a1));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::fflush(f) == 0;
    std::fclose(f);
    return ok;
}

/** Diff two decoded recorders record by record; @return differences. */
size_t
diffRecorders(const wsp::trace::FrDecodeResult &a,
              const wsp::trace::FrDecodeResult &b)
{
    size_t differences = 0;
    std::map<uint64_t, const wsp::trace::FrRecord *> b_by_seq;
    for (const auto &r : b.records)
        b_by_seq[r.seq] = &r;

    constexpr size_t kMaxPrinted = 32;
    const auto report = [&differences](const char *fmt, auto... args) {
        if (differences < kMaxPrinted)
            std::printf(fmt, args...);
        else if (differences == kMaxPrinted)
            std::printf("  ... further differences suppressed\n");
        ++differences;
    };

    for (const auto &r : a.records) {
        const auto it = b_by_seq.find(r.seq);
        if (it == b_by_seq.end()) {
            report("  only in first:  seq %llu %s\n",
                   static_cast<unsigned long long>(r.seq),
                   wsp::trace::frDescribe(r).c_str());
            continue;
        }
        const wsp::trace::FrRecord &o = *it->second;
        // Every field of a record is simulated history.
        if (r.event != o.event || r.category != o.category ||
            r.generation != o.generation || r.simTick != o.simTick ||
            r.a0 != o.a0 || r.a1 != o.a1) {
            report("  seq %llu differs:\n    first:  %s\n"
                   "    second: %s\n",
                   static_cast<unsigned long long>(r.seq),
                   wsp::trace::frDescribe(r).c_str(),
                   wsp::trace::frDescribe(o).c_str());
        }
        b_by_seq.erase(it);
    }
    for (const auto &[seq, r] : b_by_seq)
        report("  only in second: seq %llu %s\n",
               static_cast<unsigned long long>(seq),
               wsp::trace::frDescribe(*r).c_str());
    return differences;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string image_path;
    std::string replay_path;
    std::string diff_path;
    std::string trace_out;
    bool require_header = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--image=", 0) == 0)
            image_path = arg.substr(8);
        else if (arg.rfind("--replay=", 0) == 0)
            replay_path = arg.substr(9);
        else if (arg.rfind("--diff=", 0) == 0)
            diff_path = arg.substr(7);
        else if (arg.rfind("--trace-out=", 0) == 0)
            trace_out = arg.substr(12);
        else if (arg == "--require-header")
            require_header = true;
        else if (arg == "--quiet")
            quiet = true;
        else {
            usage();
            return 1;
        }
    }
    if (image_path.empty() == replay_path.empty()) {
        usage(); // exactly one evidence source
        return 1;
    }

    NvramImage image;
    if (!loadImage(image_path, replay_path, &image))
        return 1;
    const wsp::trace::FrDecodeResult decode = decodeBlackBox(image);
    printSummary("flight recorder", decode);

    if (!quiet) {
        std::printf("timeline:\n");
        for (const std::string &line :
             wsp::trace::frFormatTimeline(decode))
            std::printf("  %s\n", line.c_str());
    }
    if (decode.headerFound)
        printStats(decode);

    if (!trace_out.empty()) {
        if (!writeChromeTrace(trace_out, decode))
            return 1;
        std::printf("chrome trace: %s (%zu events)\n",
                    trace_out.c_str(), decode.records.size());
    }

    bool failed = !decode.sound();
    if (require_header && !(decode.headerFound && decode.headerValid))
        failed = true;

    if (!diff_path.empty()) {
        auto other = NvramImage::readFile(diff_path);
        if (!other) {
            std::fprintf(stderr, "cannot load NVRAM image '%s'\n",
                         diff_path.c_str());
            return 1;
        }
        const wsp::trace::FrDecodeResult other_decode =
            decodeBlackBox(*other);
        printSummary("diff target", other_decode);
        std::printf("diff:\n");
        const size_t differences =
            diffRecorders(decode, other_decode);
        if (differences == 0)
            std::printf("  recorders identical (%zu records)\n",
                        decode.records.size());
        failed |= differences != 0 || !other_decode.sound();
    }

    return failed ? 3 : 0;
}

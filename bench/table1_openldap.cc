/**
 * @file
 * Table 1: OpenLDAP update throughput, Mnemosyne vs WSP.
 *
 * Paper: inserting 100,000 randomly generated entries into an empty
 * directory, single-threaded and closed-loop, with the store being an
 * AVL tree either in the Mnemosyne NV-heap (flush-on-commit, STM) or
 * plain memory under WSP (flush-on-fail). Paper numbers: Mnemosyne
 * 2160 (77) updates/s, WSP 5274 (139) updates/s — WSP 2.4x faster.
 *
 * The bench drives the full slapd-like request path per update:
 * BER-encoded AddRequest over a real loopback socketpair (genuine
 * syscalls both ways), decode, DN normalization, ACL evaluation,
 * schema validation, index update, BER response — so the persistence
 * overhead is diluted by realistic request processing exactly as in
 * the paper's setup. Absolute throughput is far higher on modern
 * hardware and the protocol stack here is leaner than slapd's, so
 * the measured ratio lands above the paper's 2.4x; the reproduced
 * shape is "WSP wins, within the paper's 1.6-13x regime".
 */

#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "apps/ldap_protocol.h"
#include "bench/bench_util.h"
#include "pheap/policies.h"
#include "util/logging.h"
#include "util/stats.h"

using namespace wsp;
using namespace wsp::apps;
using pmem::PHeap;
using pmem::PHeapConfig;

namespace {

/** Loopback transport: a connected socketpair with framed messages. */
class LoopbackTransport
{
  public:
    LoopbackTransport()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0)
            fatal("socketpair failed");
    }

    ~LoopbackTransport()
    {
        ::close(fds_[0]);
        ::close(fds_[1]);
    }

    /** Client -> server. */
    void sendRequest(const std::vector<uint8_t> &bytes)
    {
        sendOn(fds_[0], bytes);
    }

    std::vector<uint8_t> receiveRequest() { return receiveOn(fds_[1]); }

    /** Server -> client. */
    void sendResponse(const std::vector<uint8_t> &bytes)
    {
        sendOn(fds_[1], bytes);
    }

    std::vector<uint8_t> receiveResponse() { return receiveOn(fds_[0]); }

  private:
    static void
    sendOn(int fd, const std::vector<uint8_t> &bytes)
    {
        const uint32_t length = static_cast<uint32_t>(bytes.size());
        WSP_CHECK(::write(fd, &length, 4) == 4);
        WSP_CHECK(::write(fd, bytes.data(), bytes.size()) ==
                  static_cast<ssize_t>(bytes.size()));
    }

    static std::vector<uint8_t>
    receiveOn(int fd)
    {
        uint32_t length = 0;
        WSP_CHECK(::read(fd, &length, 4) == 4);
        std::vector<uint8_t> bytes(length);
        size_t done = 0;
        while (done < length) {
            const ssize_t n =
                ::read(fd, bytes.data() + done, length - done);
            WSP_CHECK(n > 0);
            done += static_cast<size_t>(n);
        }
        return bytes;
    }

    int fds_[2];
};

/**
 * One closed-loop run; returns updates/second and adds the updates
 * not answered Success with their own message id to @p broken.
 */
template <typename Policy>
double
runOnce(bool durable_logs, uint64_t entries, uint64_t seed, uint64_t *broken)
{
    PHeapConfig config;
    config.regionSize = 512ull * 1024 * 1024;
    config.durableLogs = durable_logs;
    PHeap heap(config);
    DirectoryServer<Policy> server(heap);

    AccessControl acl;
    acl.addRule(AclRule{"dc=example,dc=com", true});
    acl.setDefault(false);

    LoopbackTransport transport;

    // Pre-encode the requests; client-side generation is not what the
    // paper measures.
    Rng rng(seed);
    std::vector<std::vector<uint8_t>> requests;
    requests.reserve(entries);
    for (uint64_t i = 0; i < entries; ++i) {
        requests.push_back(
            encodeAddRequest(randomEntry(rng, i), static_cast<uint32_t>(i)));
    }

    bench::Stopwatch timer;
    uint64_t ok = 0;
    for (uint64_t i = 0; i < entries; ++i) {
        // Full round trip: client send, server receive/process/
        // respond, client receive. Real syscalls on both sides.
        transport.sendRequest(requests[i]);
        const auto request = transport.receiveRequest();
        transport.sendResponse(handleAddRequest(server, acl, request));
        const auto response = transport.receiveResponse();

        // An update counts only when a well-formed AddResponse with
        // its own message id comes back carrying Success.
        uint32_t id = 0;
        LdapCode code = LdapCode::ProtocolError;
        if (decodeResponse(response, &id, &code) &&
            id == static_cast<uint32_t>(i) && code == LdapCode::Success) {
            ++ok;
        }
    }
    const double elapsed = timer.seconds();
    if (ok != entries) {
        std::fprintf(stderr, "unexpected failures: %llu of %llu ok\n",
                     (unsigned long long)ok, (unsigned long long)entries);
    }
    *broken += entries - ok;
    return static_cast<double>(entries) / elapsed;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("table1_openldap", argc, argv);
    const uint64_t entries = bench::fullRuns() ? 100000 : 20000;
    const int runs = 5;
    std::printf("Table 1 reproduction: %llu entries per run, %d runs "
                "(WSP_BENCH_FULL=1 for the paper's 100k)\n\n",
                (unsigned long long)entries, runs);

    RunningStat mnemosyne;
    RunningStat wsp_stat;
    uint64_t broken = 0;
    for (int run = 0; run < runs; ++run) {
        mnemosyne.add(
            runOnce<pmem::StmPolicy>(true, entries, 100 + run, &broken));
        wsp_stat.add(
            runOnce<pmem::RawPolicy>(false, entries, 100 + run, &broken));
    }

    Table table("Table 1. Update throughput for OpenLDAP");
    table.setHeader({"Configuration", "Updates/s", "(stddev)",
                     "paper"});
    table.addRow({"Mnemosyne", formatDouble(mnemosyne.mean(), 0),
                  formatDouble(mnemosyne.stddev(), 0), "2160 (77)"});
    table.addRow({"WSP", formatDouble(wsp_stat.mean(), 0),
                  formatDouble(wsp_stat.stddev(), 0), "5274 (139)"});
    table.print();

    const double ratio = wsp_stat.mean() / mnemosyne.mean();
    const double shared_us = 1e6 / wsp_stat.mean();
    const double persist_us =
        1e6 / mnemosyne.mean() - shared_us;
    std::printf("\nWSP / Mnemosyne throughput ratio: %.2fx "
                "(paper: 2.4x)\n", ratio);
    std::printf("per-update breakdown: shared request path %.1f us, "
                "Mnemosyne persistence adds %.1f us\n"
                "(the paper's slapd spends ~190 us/op on the shared "
                "path, which is why its ratio is lower)\n\n",
                shared_us, persist_us);

    ShapeCheck check("Table 1 (OpenLDAP update throughput)");
    check.expectGreater("WSP outperforms Mnemosyne", wsp_stat.mean(),
                        mnemosyne.mean());
    check.expectGreater("speedup at least the paper's 1.6x floor",
                        ratio, 1.6);
    check.expectTrue("persistence dominates the gap: ratio explained "
                     "by added per-op persistence cost",
                     persist_us > shared_us);
    check.expectTrue("run-to-run variance small (stddev < 15% of mean)",
                     mnemosyne.stddev() < 0.15 * mnemosyne.mean() &&
                         wsp_stat.stddev() < 0.15 * wsp_stat.mean());
    const int status = bench::finish(check);
    // A throughput over broken responses measures nothing: any update
    // not answered Success with its own message id fails the bench.
    if (broken > 0) {
        std::fprintf(stderr,
                     "%llu updates were not answered Success with their "
                     "own message id\n",
                     (unsigned long long)broken);
        return 1;
    }
    return status;
}

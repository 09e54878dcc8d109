/**
 * @file
 * Tests for the fault-tolerant flush-on-fail machinery: CRC64 and
 * salvage-directory encoding, the energy-margin health monitor,
 * tiered degraded-mode saves, media-fault quarantine with per-region
 * recovery, stale-generation rejection, and the acceptance sweep over
 * media-fault x drained-cap x degraded-tier schedules. The trust-mode
 * test proves the planted checksum-skipping bug is caught by the
 * invariant checkers, not silently revived.
 */

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/failure_injector.h"
#include "core/salvage_directory.h"
#include "core/save_routine.h"
#include "core/system.h"
#include "crashsim/crash_explorer.h"
#include "util/checksum.h"

namespace wsp {
namespace {

/** Small system: fast to simulate, no devices unless asked. */
SystemConfig
testConfig(bool with_devices = false)
{
    SystemConfig config;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    if (!with_devices)
        config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(100.0);
    config.wsp.osResumeLatency = fromMillis(1.0);
    config.wsp.hostStackBootLatency = fromMillis(50.0);
    return config;
}

/** Write a recognizable pattern through the cache. */
void
writePattern(WspSystem &system, uint64_t base, uint64_t words,
             uint64_t seed)
{
    Rng rng(seed);
    for (uint64_t i = 0; i < words; ++i)
        system.cache().writeU64(base + i * 8, rng());
}

/** Check the pattern, reading through the cache. */
bool
checkPattern(WspSystem &system, uint64_t base, uint64_t words,
             uint64_t seed)
{
    Rng rng(seed);
    for (uint64_t i = 0; i < words; ++i) {
        if (system.cache().readU64(base + i * 8) != rng())
            return false;
    }
    return true;
}

// CRC64 -------------------------------------------------------------------

TEST(Crc64, EmptyInputPreservesSeedAndZerosHashNonzero)
{
    EXPECT_EQ(crc64({}), 0u);
    EXPECT_EQ(crc64({}, 0x1234u), 0x1234u);
    // An all-zero region must not CRC to zero (CRC-64/XZ inverts in
    // and out), so a scrubbed or stuck-at-zero flash page is
    // distinguishable from the directory's "nothing vouches" crc=0.
    const std::vector<uint8_t> zeros(4096, 0);
    EXPECT_NE(crc64(zeros), 0u);
}

TEST(Crc64, IncrementalMatchesOneShot)
{
    std::vector<uint8_t> bytes(1000);
    Rng rng(7);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng());

    const uint64_t one_shot = crc64(bytes);
    const auto span = std::span<const uint8_t>(bytes);
    for (size_t split : {size_t{0}, size_t{1}, size_t{333}, bytes.size()}) {
        const uint64_t first = crc64(span.first(split));
        EXPECT_EQ(crc64(span.subspan(split), first), one_shot)
            << "split at " << split;
    }
}

TEST(Crc64, DetectsSingleBitFlip)
{
    std::vector<uint8_t> bytes(256, 0x5a);
    const uint64_t clean = crc64(bytes);
    bytes[129] ^= 0x10;
    EXPECT_NE(crc64(bytes), clean);
}

TEST(Crc64, MatchesTheCrc64XzCheckValue)
{
    const std::string check = "123456789";
    const auto bytes = std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(check.data()), check.size());
    EXPECT_EQ(crc64(bytes), 0x995dc9bbdf1939faull);
}

/** Bytewise reference CRC-64/XZ: one table-free bit loop per byte. */
uint64_t
crc64Bitwise(std::span<const uint8_t> bytes, uint64_t crc)
{
    crc = ~crc;
    for (uint8_t byte : bytes) {
        crc ^= byte;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? 0xc96c5795d7870f42ull : 0);
    }
    return ~crc;
}

/** Random bytes with room for a 15-byte start offset. */
std::vector<uint8_t>
crcTestBuffer(size_t length)
{
    std::vector<uint8_t> buffer(length + 16);
    Rng rng(0xc7c64);
    for (auto &b : buffer)
        b = static_cast<uint8_t>(rng());
    return buffer;
}

/**
 * Every length 0-1100 (each tail after whole words and after whole
 * 16- and 64-byte fold steps, on both sides of the 64-byte fold
 * threshold) plus page-sized and odd multi-page lengths.
 */
std::vector<size_t>
crcTestLengths()
{
    std::vector<size_t> lengths;
    for (size_t length = 0; length <= 1100; ++length)
        lengths.push_back(length);
    for (size_t length : {4095, 4096, 4097, 16384, 65549})
        lengths.push_back(length);
    return lengths;
}

TEST(Crc64, WordAtATimeMatchesBytewiseReference)
{
    // Every tested length, starting at offset length % 16 so every
    // start alignment mod 16 occurs, each seeded with the previous CRC,
    // through whichever path crc64() picks.
    const std::vector<uint8_t> buffer = crcTestBuffer(65549);
    uint64_t seed = 0;
    for (size_t length : crcTestLengths()) {
        const auto bytes =
            std::span<const uint8_t>(buffer).subspan(length % 16, length);
        const uint64_t expected = crc64Bitwise(bytes, seed);
        ASSERT_EQ(crc64(bytes, seed), expected) << "length " << length;
        seed = expected;
    }
}

TEST(Crc64, FoldedPathMatchesTablePath)
{
    // With carry-less multiply the fold must agree with the table loop
    // and the bitwise reference; without it crc64() is the table loop.
    const bool fold = detail::crc64FoldAvailable();
    const std::vector<uint8_t> buffer = crcTestBuffer(65549);
    uint64_t seed = 0;
    for (size_t length : crcTestLengths()) {
        const auto bytes =
            std::span<const uint8_t>(buffer).subspan(length % 16, length);
        const uint64_t table = detail::crc64Table(bytes, seed);
        if (!fold) {
            ASSERT_EQ(crc64(bytes, seed), table) << "length " << length;
        } else if (length >= detail::kCrc64FoldMinBytes) {
            ASSERT_EQ(detail::crc64Folded(bytes.data(), length, seed), table)
                << "length " << length;
            ASSERT_EQ(crc64Bitwise(bytes, seed), table)
                << "length " << length;
        }
        seed = table;
    }
}

TEST(Crc64, EvaluatesAtCompileTime)
{
    static constexpr std::array<uint8_t, 9> kCheck = {'1', '2', '3', '4', '5',
                                                      '6', '7', '8', '9'};
    static_assert(crc64(kCheck) == 0x995dc9bbdf1939faull);
    static_assert(crc64(std::span<const uint8_t>(kCheck).subspan(4),
                        crc64(std::span<const uint8_t>(kCheck).first(4))) ==
                  0x995dc9bbdf1939faull);
    // The same value at run time, through the word-at-a-time path.
    EXPECT_EQ(crc64(std::vector<uint8_t>(kCheck.begin(), kCheck.end())),
              0x995dc9bbdf1939faull);
}

// SalvageDirectory --------------------------------------------------------

TEST(SalvageDirectoryCodec, PersistReadRoundTrip)
{
    WspSystem system(testConfig());
    system.start();
    writePattern(system, 4096, 32, 11);
    writePattern(system, 16384, 512, 12);
    system.cache().wbinvd(); // regionCrc reads NVRAM, not the cache

    SalvageDirectory directory(system.cache(), 1 * kMiB);
    directory.registerRegion({"meta", 4096, 256, SaveTier::Metadata});
    directory.registerRegion({"bulk", 16384, 4096, SaveTier::Bulk});
    EXPECT_EQ(directory.savedBytes(SaveTier::Bulk), 256u + 4096u);
    EXPECT_EQ(directory.savedBytes(SaveTier::Metadata), 256u);

    const uint64_t checksum =
        directory.persist(system.memory(), 7, SaveTier::Bulk);

    const auto image = SalvageDirectory::read(system.memory(), 1 * kMiB);
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->generation, 7u);
    EXPECT_EQ(image->tierCut, SaveTier::Bulk);
    EXPECT_EQ(image->checksum, checksum);
    ASSERT_EQ(image->entries.size(), 2u);

    const SalvageDirectoryEntry &meta = image->entries.front();
    EXPECT_EQ(meta.name, "meta");
    EXPECT_EQ(meta.base, 4096u);
    EXPECT_EQ(meta.size, 256u);
    EXPECT_EQ(meta.tier, SaveTier::Metadata);
    EXPECT_TRUE(meta.saved);
    EXPECT_EQ(meta.crc,
              SalvageDirectory::regionCrc(system.memory(), 4096, 256));
    EXPECT_TRUE(image->entries.back().saved);
}

TEST(SalvageDirectoryCodec, TierCutMarksDroppedRegionsUnsaved)
{
    WspSystem system(testConfig());
    system.start();
    SalvageDirectory directory(system.cache(), 1 * kMiB);
    directory.registerRegion({"meta", 4096, 256, SaveTier::Metadata});
    directory.registerRegion({"bulk", 16384, 4096, SaveTier::Bulk});

    directory.persist(system.memory(), 3, SaveTier::Metadata);
    const auto image = SalvageDirectory::read(system.memory(), 1 * kMiB);
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->tierCut, SaveTier::Metadata);
    ASSERT_EQ(image->entries.size(), 2u);
    EXPECT_TRUE(image->entries.front().saved);
    EXPECT_FALSE(image->entries.back().saved);
    EXPECT_EQ(image->entries.back().crc, 0u); // nothing vouches for it
}

TEST(SalvageDirectoryCodec, CorruptHeaderOrEntryRejected)
{
    WspSystem system(testConfig());
    system.start();
    const uint64_t base = 1 * kMiB;
    SalvageDirectory directory(system.cache(), base);
    directory.registerRegion({"meta", 4096, 256, SaveTier::Metadata});
    directory.persist(system.memory(), 5, SaveTier::Bulk);
    ASSERT_TRUE(SalvageDirectory::read(system.memory(), base).has_value());

    // Flip the generation field under the header checksum.
    const uint64_t generation = system.memory().readU64(base + 8);
    system.memory().writeU64(base + 8, generation ^ 1);
    EXPECT_FALSE(SalvageDirectory::read(system.memory(), base).has_value());
    system.memory().writeU64(base + 8, generation);
    ASSERT_TRUE(SalvageDirectory::read(system.memory(), base).has_value());

    // Flip one byte of the first entry's name.
    const uint64_t name_word = system.memory().readU64(base + 64);
    system.memory().writeU64(base + 64, name_word ^ 0xff);
    EXPECT_FALSE(SalvageDirectory::read(system.memory(), base).has_value());
}

TEST(SalvageDirectoryCodec, RejectsEntryWhoseRangeWraps)
{
    WspSystem system(testConfig());
    system.start();
    const uint64_t base = 1 * kMiB;
    SalvageDirectory directory(system.cache(), base);
    directory.registerRegion({"bulk", 16384, 4096, SaveTier::Bulk});
    directory.persist(system.memory(), 5, SaveTier::Bulk);
    ASSERT_TRUE(SalvageDirectory::read(system.memory(), base).has_value());

    // Move the entry to a base whose range wraps past 2^64, then
    // re-seal the entry, entries and header checksums as the codec
    // does, so only the range check stands between the table and a
    // region read far beyond the NVRAM.
    const uint64_t entry = base + SalvageDirectory::kHeaderBytes;
    system.memory().writeU64(entry + 24, 0xfffffffffffff000ull);
    std::vector<uint8_t> bytes(SalvageDirectory::kEntryBytes);
    system.memory().read(entry, bytes);
    const uint64_t entry_crc =
        fnv1a(std::span<const uint8_t>(bytes).first(56));
    system.memory().writeU64(entry + 56, entry_crc);
    const uint64_t entries_checksum = fnv1aU64(entry_crc, fnv1aU64(1));
    system.memory().writeU64(base + 32, entries_checksum);
    uint64_t header_crc = fnv1aU64(SalvageDirectory::kHeaderBytes);
    header_crc = fnv1aU64(5, header_crc);
    header_crc = fnv1aU64(1, header_crc);
    header_crc =
        fnv1aU64(static_cast<uint64_t>(SaveTier::Bulk), header_crc);
    header_crc = fnv1aU64(entries_checksum, header_crc);
    system.memory().writeU64(base + 40, header_crc);

    EXPECT_FALSE(SalvageDirectory::read(system.memory(), base).has_value());
}

TEST(SalvageDirectoryCodec, RegisterRejectsOverlapAndDuplicate)
{
    WspSystem system(testConfig());
    system.start();
    SalvageDirectory directory(system.cache(), 1 * kMiB);
    directory.registerRegion({"meta", 4096, 256, SaveTier::Metadata});
    EXPECT_DEATH(
        directory.registerRegion({"other", 4200, 64, SaveTier::Bulk}),
        "overlap");
    EXPECT_DEATH(
        directory.registerRegion({"meta", 65536, 64, SaveTier::Bulk}),
        "duplicate");
    EXPECT_DEATH(
        directory.registerRegion({"dir", 1 * kMiB + 64, 64, SaveTier::Bulk}),
        "directory");
}

// Health monitor ----------------------------------------------------------

TEST(HealthMonitor, DrainFlipsDegradedAndRechargeRecovers)
{
    SystemConfig config = testConfig();
    config.wsp.healthCheckPeriod = fromMillis(1.0);
    // The 4 MiB modules need so little save energy (~0.2 J) that even
    // a bank drained to its ESR floor (~6 V) retains ~0.5 J; demand a
    // safety factor past that so the drain trips the monitor while a
    // full charge (hundreds of joules) still passes with ease.
    config.wsp.healthEnergyMargin = 4.0;
    WspSystem system(config);
    system.start();

    EnergyHealthMonitor *health = system.wsp().healthMonitor();
    ASSERT_NE(health, nullptr);
    EXPECT_TRUE(health->started());
    system.runFor(fromMillis(10.0));
    EXPECT_GT(health->checksRun(), 5u);
    EXPECT_FALSE(health->degraded());
    EXPECT_FALSE(system.wsp().degraded());
    EXPECT_GT(health->worstMarginJoules(), 0.0);

    // Drain one bank below its floor: the next self-test must flip the
    // platform into degraded mode.
    FailureInjector injector(system);
    injector.drainUltracap(0, 5.0);
    system.runFor(fromMillis(5.0));
    EXPECT_TRUE(health->degraded());
    EXPECT_TRUE(system.wsp().degraded());
    EXPECT_LT(health->worstMarginJoules(), 0.0);

    // A recharged bank restores the margin and clears degraded mode.
    system.memory().module(0).ultracap().rechargeFully();
    system.runFor(fromMillis(5.0));
    EXPECT_FALSE(health->degraded());
    EXPECT_FALSE(system.wsp().degraded());
    EXPECT_GE(health->transitions(), 2u);
}

// Degraded-mode save ------------------------------------------------------

TEST(DegradedSave, TierCutSavesMetaDropsBulkAndSalvages)
{
    // Forced degraded save with the paper's strawman device policy:
    // the save must skip device suspend, flush only the registered
    // tier regions, and the restore must come back in salvage mode —
    // metadata intact, bulk quarantined and handed to recovery.
    SystemConfig config = testConfig(true);
    config.wsp.devicePolicy = DevicePolicy::AcpiSuspendOnSave;
    config.wsp.forceDegradedSave = true; // cut defaults to Metadata
    WspSystem system(config);
    system.start();
    writePattern(system, 4096, 32, 11);
    writePattern(system, 16384, 512, 12);
    system.registerSalvageRegion({"meta", 4096, 256, SaveTier::Metadata});
    system.registerSalvageRegion({"bulk", 16384, 4096, SaveTier::Bulk});
    std::vector<std::string> recovered;
    system.setRegionRecovery([&](const RegionOutcome &region) {
        recovered.push_back(region.name);
    });

    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(1.0), [&] { backend_ran = true; });

    ASSERT_TRUE(outcome.save.has_value());
    EXPECT_TRUE(outcome.save->degraded);
    EXPECT_EQ(outcome.save->tierCut, SaveTier::Metadata);
    EXPECT_EQ(outcome.save->regionsDropped, 1u);
    EXPECT_TRUE(SaveRoutine::stepReached(*outcome.save,
                                         "flush tier regions (degraded)"));
    EXPECT_FALSE(SaveRoutine::stepReached(*outcome.save,
                                          "flush caches (all sockets)"));
    EXPECT_FALSE(
        SaveRoutine::stepReached(*outcome.save, "acpi device suspend"));
    EXPECT_NE(outcome.save->directoryChecksum, 0u);

    // Whole-system resume over a tier-cut image would be silent
    // corruption; the restore must salvage instead, without the
    // whole-store back-end rebuild.
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_TRUE(outcome.restore.salvageMode);
    EXPECT_FALSE(backend_ran);
    EXPECT_EQ(outcome.restore.imageTierCut, SaveTier::Metadata);
    EXPECT_EQ(outcome.restore.regionsSalvaged, 1u);
    EXPECT_EQ(outcome.restore.regionsQuarantined, 1u);
    EXPECT_EQ(outcome.restore.regionsRecovered, 1u);
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_EQ(recovered.front(), "bulk");

    // Metadata survived verbatim; bulk was scrubbed before the hook.
    EXPECT_TRUE(checkPattern(system, 4096, 32, 11));
    for (uint64_t i = 0; i < 512; ++i)
        ASSERT_EQ(system.cache().readU64(16384 + i * 8), 0u) << i;
    EXPECT_TRUE(system.wsp().running());
}

// Generation binding ------------------------------------------------------

TEST(Generation, StaleFlashImageRejectedOnAdoptedBoot)
{
    // After a successful WSP cycle the flash still holds the consumed
    // image — with its then-valid marker — but the modules' epoch
    // registers have moved on. Socketing those DIMMs into a fresh
    // chassis must NOT resurrect the old image.
    SystemConfig config = testConfig();
    WspSystem donor(config);
    donor.start();
    writePattern(donor, 0, 128, 9);
    auto first = donor.powerFailAndRestore(fromMillis(5.0),
                                           fromSeconds(1.0));
    ASSERT_TRUE(first.restore.usedWsp);

    const NvramImage image = donor.captureNvramImage();
    WspSystem chassis(config);
    bool backend_ran = false;
    const RestoreReport report =
        chassis.bootFromImage(image, [&] { backend_ran = true; });

    EXPECT_TRUE(report.flashValid);
    EXPECT_TRUE(report.markerValid);
    EXPECT_FALSE(report.generationOk);
    EXPECT_FALSE(report.usedWsp);
    EXPECT_FALSE(report.salvageMode); // no directory from that save
    EXPECT_TRUE(backend_ran);
}

} // namespace
} // namespace wsp

namespace wsp::crashsim {
namespace {

/** Fast salvage-regime scenario for the schedule-driven tests. */
CrashSchedule
salvageSchedule()
{
    CrashSchedule schedule;
    schedule.ops = 48;
    schedule.outage = fromMillis(500.0);
    schedule.window = fromMillis(200.0); // the whole pipeline fits
    schedule.salvage = true;
    return schedule;
}

// Schedule plumbing -------------------------------------------------------

TEST(SalvageSchedule, SerializationRoundTripsNewFields)
{
    CrashSchedule schedule = salvageSchedule();
    schedule.mediaFaults = 3;
    schedule.mediaFaultKind = 2;
    schedule.mediaFaultSeed = 0xfeed;
    schedule.degradeTier = 1;
    schedule.dropSaveCommands = 2;
    schedule.trustDirectory = true;

    const auto parsed = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == schedule);
    const std::string summary = parsed->summary();
    EXPECT_NE(summary.find("salvage"), std::string::npos);
    EXPECT_NE(summary.find("media-faults=3"), std::string::npos);
    EXPECT_NE(summary.find("degrade-tier=1"), std::string::npos);
    EXPECT_NE(summary.find("TRUST-DIR"), std::string::npos);
}

TEST(SalvageSchedule, ParseRejectsBadTierAndFaultKind)
{
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "degrade_tier=2\n")
                     .has_value());
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "media_fault_kind=3\n")
                     .has_value());
}

TEST(SalvageSchedule, PlannedFaultsAreDeterministicAndGated)
{
    CrashSchedule schedule = salvageSchedule();
    schedule.mediaFaults = 4;
    schedule.mediaFaultSeed = 42;
    const auto faults = plannedMediaFaults(schedule, 2, 4 * kMiB);
    ASSERT_EQ(faults.size(), 4u);
    // Fault 0 always lands in module 0's KV region so every salvage
    // sweep exercises at least one quarantine.
    EXPECT_EQ(faults.front().module, 0u);
    EXPECT_LT(faults.front().addr, 64u * kKiB);
    EXPECT_EQ(plannedMediaFaults(schedule, 2, 4 * kMiB), faults);

    CrashSchedule off = schedule;
    off.salvage = false;
    EXPECT_TRUE(plannedMediaFaults(off, 2, 4 * kMiB).empty());
    off = schedule;
    off.mediaFaults = 0;
    EXPECT_TRUE(plannedMediaFaults(off, 2, 4 * kMiB).empty());
}

// Media faults ------------------------------------------------------------

TEST(MediaFault, BitFlipInKvRegionQuarantinedAndRecovered)
{
    CrashSchedule schedule = salvageSchedule();
    schedule.mediaFaults = 1;
    schedule.mediaFaultKind = 0; // bit flip: always corrupts content
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_TRUE(result.held()) << (result.violations.empty()
                                       ? ""
                                       : result.violations.front());
    // The fault hit a KV region under an otherwise intact image: the
    // machine whole-resumes while exactly the faulted region is
    // quarantined and rebuilt per shard.
    EXPECT_TRUE(result.restore.usedWsp);
    EXPECT_GE(result.restore.regionsQuarantined, 1u);
    EXPECT_EQ(result.restore.regionsRecovered,
              result.restore.regionsQuarantined);
    EXPECT_GT(result.restore.regionsSalvaged, 0u);
}

TEST(MediaFault, TrustDirectoryBugIsCaught)
{
    // The planted bug: restore trusts the save-time directory and
    // skips the per-region CRC re-verification, silently reviving
    // media-faulted bytes. The checkers must reject the run.
    CrashSchedule schedule = salvageSchedule();
    schedule.mediaFaults = 2;
    schedule.mediaFaultKind = 0;
    schedule.trustDirectory = true;
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_FALSE(result.held())
        << "checksum-skipping restore escaped every invariant";
}

// Degraded schedules ------------------------------------------------------

TEST(DegradedSchedule, ForcedTierCutsSalvageCleanly)
{
    for (int tier : {0, 1}) {
        CrashSchedule schedule = salvageSchedule();
        schedule.degradeTier = tier;
        const CrashPointResult result =
            CrashExplorer::runSchedule(schedule);
        EXPECT_TRUE(result.held())
            << "tier " << tier << ": "
            << (result.violations.empty() ? ""
                                          : result.violations.front());
        EXPECT_FALSE(result.restore.usedWsp) << "tier " << tier;
        EXPECT_TRUE(result.restore.salvageMode) << "tier " << tier;
        // A Core-only cut drops every KV region; a Metadata cut keeps
        // the shard headers.
        EXPECT_GE(result.restore.regionsQuarantined,
                  tier == 0 ? 2u : 1u);
    }
}

TEST(DegradedSchedule, DroppedSaveCommandIsRetried)
{
    CrashSchedule schedule = salvageSchedule();
    schedule.degradeTier = 1;
    schedule.dropSaveCommands = 1;
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_TRUE(result.held()) << (result.violations.empty()
                                       ? ""
                                       : result.violations.front());
    // The retry re-issued the lost command, so the image is usable and
    // the tier-cut restore still salvages.
    EXPECT_TRUE(result.restore.salvageMode);
}

// Acceptance sweep: media faults x drained caps x degraded tiers ----------

TEST(SalvageAcceptance, FaultStormGridHolds)
{
    std::vector<std::string> failures;
    size_t salvage_boots = 0;
    size_t quarantines = 0;
    for (int tier : {-1, 0, 1}) {
        for (unsigned faults : {0u, 1u, 3u}) {
            for (int drain : {-1, 0}) {
                CrashSchedule schedule = salvageSchedule();
                schedule.degradeTier = tier;
                schedule.mediaFaults = faults;
                schedule.mediaFaultSeed = 17 * faults + tier + 5;
                schedule.drainModule = drain;
                schedule.drainVoltage = drain >= 0 ? 5.0 : 0.0;
                const CrashPointResult result =
                    CrashExplorer::runSchedule(schedule);
                for (const std::string &violation : result.violations)
                    failures.push_back(schedule.summary() + " - " +
                                       violation);
                salvage_boots += result.restore.salvageMode ? 1 : 0;
                quarantines += result.restore.regionsQuarantined;
            }
        }
    }
    EXPECT_TRUE(failures.empty())
        << failures.size() << " violations; first: " << failures.front();
    // The grid must actually exercise the salvage machinery, not just
    // whole-resume its way through.
    EXPECT_GT(salvage_boots, 0u);
    EXPECT_GT(quarantines, 0u);
}

} // namespace
} // namespace wsp::crashsim

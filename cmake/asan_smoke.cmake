# AddressSanitizer + UndefinedBehaviorSanitizer smoke test, run as a
# ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -P asan_smoke.cmake
#
# Configures a sub-build of the tree with
# -DWSP_SANITIZE=address,undefined (the existing sanitizer hook),
# builds the salvage, sim-property and other test binaries below, and
# runs their suites under ASan and UBSan. The salvage paths shuffle raw
# NVRAM spans (scrubbing, CRC passes including the carry-less-multiply
# fold, directory decode of possibly-torn bytes, range checks on
# decoded 64-bit bases and sizes), which is exactly where an
# out-of-bounds read or an overflow would hide; the sim-property
# battery hammers the event engine's slab/arena recycling and the
# SmallFn relocate/destroy paths, where a lifetime bug would hide. The sub-build directory persists across
# runs, so re-runs are incremental.

if(NOT SOURCE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR "asan_smoke: SOURCE_DIR and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
    COMMAND ${CMAKE_COMMAND} -G Ninja -S ${SOURCE_DIR} -B ${OUT_DIR}
        -DCMAKE_BUILD_TYPE=Release
        -DWSP_SANITIZE=address,undefined
    RESULT_VARIABLE configure_rc
    OUTPUT_VARIABLE configure_out
    ERROR_VARIABLE configure_out
)
if(NOT configure_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: configure failed (rc=${configure_rc}):\n${configure_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR}
        --target test_salvage test_sim_property test_conditions test_fleet
                 test_machine_property test_apps test_util test_nvram
                 test_flight_recorder
    RESULT_VARIABLE build_rc
    OUTPUT_VARIABLE build_out
    ERROR_VARIABLE build_out
)
if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: build failed (rc=${build_rc}):\n${build_out}")
endif()

# Death tests fork under ASan; keep them but run them threadsafe.
# halt_on_error turns any ASan or UBSan report into a nonzero exit so
# the ctest fails loudly.
set(ENV{ASAN_OPTIONS} "halt_on_error=1")
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")
execute_process(
    COMMAND ${OUT_DIR}/tests/test_salvage
        --gtest_death_test_style=threadsafe
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out
)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: salvage ASan/UBSan run failed (rc=${run_rc}):\n${run_out}")
endif()

execute_process(
    COMMAND ${OUT_DIR}/tests/test_sim_property
    RESULT_VARIABLE sim_rc
    OUTPUT_VARIABLE sim_out
    ERROR_VARIABLE sim_out
)
if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: sim-property ASan/UBSan run failed (rc=${sim_rc}):\n${sim_out}")
endif()

# The conditions battery walks raw history/line-tracking structures
# (FliT per-line maps, replayed KV states, brute-force subset masks)
# and drives full crash/recovery sweeps — both good ASan hunting
# ground.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_conditions
    RESULT_VARIABLE cond_rc
    OUTPUT_VARIABLE cond_out
    ERROR_VARIABLE cond_out
)
if(NOT cond_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: conditions ASan/UBSan run failed (rc=${cond_rc}):\n${cond_out}")
endif()
# The fleet battery power-cycles each node's one WspSystem in place
# (kill, dark chassis, reboot) while the chassis keeps hooks into its
# node, drops and re-attaches store views, and walks raw store shards
# during anti-entropy — a use-after-free in the kill/reboot cycle would
# hide exactly there. Run the placement, lifecycle and mid-save-kill
# suites (FleetNode.* includes every boot path cycled on one chassis),
# back-to-back whole-fleet storms, the decommission-while-dark storm,
# the re-kill of a recovering victim, the missed-erase repair, the
# pinned repair scenarios (every repair streaming path) and the
# whole-fleet storm whose latency histograms merge across nodes.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_fleet
        --gtest_filter=Rendezvous.*:FleetNode.*:Fleet.BackToBackStormsEachReportTheirOwnCounts:Fleet.QuorumWritesReadsAndConvergence:Fleet.MidSaveKillSubsetStaysConvergent:Fleet.DecommissioningADarkVictimRetiresItFromTheStorm:Fleet.ReKillingARecoveringVictimLetsTheStormEnd:Fleet.RepairRemovesAnAckedEraseADarkReplicaMissed:Fleet.LatencyCountsEveryRequestWithoutClamping:FleetPinned.*
    RESULT_VARIABLE fleet_rc
    OUTPUT_VARIABLE fleet_out
    ERROR_VARIABLE fleet_out
)
if(NOT fleet_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: fleet ASan/UBSan run failed (rc=${fleet_rc}):\n${fleet_out}")
endif()
# Multi-line cache reads copy coalesced clean runs and dirty lines
# into one span, and KvStore scans read the slot array through a
# stack chunk buffer: the cache fuzz and the scan tests drive both
# across every boundary.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_machine_property
        --gtest_filter=CacheFuzz.*
    RESULT_VARIABLE cache_rc
    OUTPUT_VARIABLE cache_out
    ERROR_VARIABLE cache_out
)
if(NOT cache_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: cache fuzz ASan/UBSan run failed (rc=${cache_rc}):\n${cache_out}")
endif()
execute_process(
    COMMAND ${OUT_DIR}/tests/test_apps --gtest_filter=KvScan.*
    RESULT_VARIABLE scan_rc
    OUTPUT_VARIABLE scan_out
    ERROR_VARIABLE scan_out
)
if(NOT scan_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: KvStore scan ASan/UBSan run failed (rc=${scan_rc}):\n${scan_out}")
endif()
# rangeEquals compares pages in place: memcmp of two held pages, a
# one-sided page against the other side's fill, and whole absent
# chunks skipped. The SparseMemory suite's differential drives every
# case across page and chunk boundaries and into the partial last
# page, exactly where an out-of-bounds read would hide.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_nvram --gtest_filter=SparseMemory.*
    RESULT_VARIABLE sparse_rc
    OUTPUT_VARIABLE sparse_out
    ERROR_VARIABLE sparse_out
)
if(NOT sparse_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: SparseMemory ASan/UBSan run failed (rc=${sparse_rc}):\n${sparse_out}")
endif()
# The latency histogram indexes its buckets from a sample's top bits
# and grows its storage to the highest bucket recorded; a sample at
# UINT64_MAX lands in the very last bucket, exactly where an
# out-of-bounds write would hide.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_util --gtest_filter=Histogram.*
    RESULT_VARIABLE hist_rc
    OUTPUT_VARIABLE hist_out
    ERROR_VARIABLE hist_out
)
if(NOT hist_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: histogram ASan/UBSan run failed (rc=${hist_rc}):\n${hist_out}")
endif()
# The black-box decoder reads up to a whole ring of possibly-torn
# NVRAM slots into one buffer and decodes them in place, falling back
# to slot-by-slot reads into the same buffer; the decode differential
# walks wrapped rings, rings read in several chunks, refused ranges and
# every tear position, and a forged header claims a capacity whose
# byte size wraps.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_flight_recorder
        --gtest_filter=FlightRecorderTest.*
    RESULT_VARIABLE fr_rc
    OUTPUT_VARIABLE fr_out
    ERROR_VARIABLE fr_out
)
if(NOT fr_rc EQUAL 0)
    message(FATAL_ERROR
        "asan_smoke: flight recorder ASan/UBSan run failed (rc=${fr_rc}):\n${fr_out}")
endif()
message(STATUS
    "asan_smoke: salvage + sim-property + conditions + fleet + cache fuzz + scan + sparse memory + histogram + flight recorder suites clean under ASan + UBSan")

# ThreadSanitizer smoke test, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -P tsan_smoke.cmake
#
# Configures a sub-build of the tree with -DWSP_SANITIZE=thread (the
# existing sanitizer hook), builds only the concurrency test binary,
# and runs its genuinely-threaded suites under TSan. The sub-build
# directory persists across runs, so re-runs are incremental.

if(NOT SOURCE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR "tsan_smoke: SOURCE_DIR and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
    COMMAND ${CMAKE_COMMAND} -G Ninja -S ${SOURCE_DIR} -B ${OUT_DIR}
        -DCMAKE_BUILD_TYPE=Release
        -DWSP_SANITIZE=thread
    RESULT_VARIABLE configure_rc
    OUTPUT_VARIABLE configure_out
    ERROR_VARIABLE configure_out
)
if(NOT configure_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: configure failed (rc=${configure_rc}):\n${configure_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR}
        --target test_concurrency test_conditions test_fleet test_load
    RESULT_VARIABLE build_rc
    OUTPUT_VARIABLE build_out
    ERROR_VARIABLE build_out
)
if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: build failed (rc=${build_rc}):\n${build_out}")
endif()

# The threaded suites: thread-pool scheduling, the traffic plane's
# concurrent sharded serving vs the one-shard sequential replay, and
# the determinism battery (which runs the plane twice per test). halt_on_error turns any TSan
# report into a nonzero exit so the ctest fails loudly.
set(ENV{TSAN_OPTIONS} "halt_on_error=1")
execute_process(
    COMMAND ${OUT_DIR}/tests/test_concurrency
        --gtest_filter=ThreadPool.*:ShardedEquivalence.*:Determinism.*:KvBatch.*
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out
)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: TSan run failed (rc=${run_rc}):\n${run_out}")
endif()

# The conditions battery's end-to-end suites drive full crash/recovery
# cycles (workload events, save pipeline, fresh-chassis boot) with the
# FliT tracker observing the cache from the write-back path; run them
# under TSan too so an ordering bug between the tracker and the save
# machinery cannot hide.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_conditions
        --gtest_filter=AckBeforeApply.*:ConditionsBattery.*
    RESULT_VARIABLE cond_rc
    OUTPUT_VARIABLE cond_out
    ERROR_VARIABLE cond_out
)
if(NOT cond_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: conditions TSan run failed (rc=${cond_rc}):\n${cond_out}")
endif()
# Fleet quorum/lifecycle suites: the node save pipeline may use the
# parallel per-core flush path, and a TSan pass keeps the fleet
# machinery honest.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_fleet
        --gtest_filter=Rendezvous.*:FleetNode.*:Fleet.StormWspLocalRecoversEveryVictim
    RESULT_VARIABLE fleet_rc
    OUTPUT_VARIABLE fleet_out
    ERROR_VARIABLE fleet_out
)
if(NOT fleet_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: fleet TSan run failed (rc=${fleet_rc}):\n${fleet_out}")
endif()
# The traffic-plane battery is the most thread-dense code in the tree:
# SPSC ring producer/consumer pairs and the rings-dispatch worker graph
# with back-pressure draining. Running the whole load suite under TSan
# is the point of the battery — the equivalence tests pass through
# every ring and drain path.
execute_process(
    COMMAND ${OUT_DIR}/tests/test_load
    RESULT_VARIABLE load_rc
    OUTPUT_VARIABLE load_out
    ERROR_VARIABLE load_out
)
if(NOT load_rc EQUAL 0)
    message(FATAL_ERROR
        "tsan_smoke: load TSan run failed (rc=${load_rc}):\n${load_out}")
endif()
message(STATUS
    "tsan_smoke: threaded + conditions + fleet + load suites clean under TSan")

# Release-configuration sim-engine smoke, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -P perf_sim_engine_smoke.cmake
#
# Configures a -O2 (CMAKE_BUILD_TYPE=Release) sub-build of the tree,
# builds the event-engine bench, and runs it. The bench's own gates
# are the assertion, and none of them reads a clock: zero heap
# allocations inside the dispatch mix's timed window (device ladder +
# deadline-timer re-arms), pending() equal to schedules - cancels -
# dispatches after the cancel-heavy loop (no tombstones), and
# same-tick FIFO order. The rates are printed and recorded only. The
# sub-build directory persists across runs (and is shared with the
# other perf smokes), so re-runs are incremental.

if(NOT SOURCE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR
        "perf_sim_engine_smoke: SOURCE_DIR and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
    COMMAND ${CMAKE_COMMAND} -G Ninja -S ${SOURCE_DIR} -B ${OUT_DIR}
        -DCMAKE_BUILD_TYPE=Release
    RESULT_VARIABLE configure_rc
    OUTPUT_VARIABLE configure_out
    ERROR_VARIABLE configure_out
)
if(NOT configure_rc EQUAL 0)
    message(FATAL_ERROR
        "perf_sim_engine_smoke: configure failed (rc=${configure_rc}):\n${configure_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR} --target bench_sim_engine
    RESULT_VARIABLE build_rc
    OUTPUT_VARIABLE build_out
    ERROR_VARIABLE build_out
)
if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR
        "perf_sim_engine_smoke: build failed (rc=${build_rc}):\n${build_out}")
endif()

execute_process(
    COMMAND ${OUT_DIR}/bench/sim_engine --repeat=3
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out
)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "perf_sim_engine_smoke: engine gate failed (rc=${run_rc}):\n${run_out}")
endif()
message(STATUS "perf_sim_engine_smoke: allocation, tombstone and FIFO gates clean at -O2")

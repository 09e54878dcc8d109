# Smoke test for the observability pipeline, run as a ctest:
#
#   cmake -DBENCH=<path> -DFLEET_BENCH=<path> -DCHECKER=<path> \
#         -DOUT_DIR=<dir> -P trace_smoke.cmake
#
# Runs one fast bench with WSP_TRACE=all and the standard output
# flags, then validates the emitted trace/metrics files with
# trace_check. Fails the test when the bench exits nonzero, a file is
# missing, or the JSON shape is wrong. Also checks that the standard
# --seed/--repeat flags refuse values that do not fit, and that a flag
# the bench does not know is refused: the bench must print its usage
# and exit 1 instead of running a wrapped, saturated or truncated
# value, or the default in place of a misspelled flag. Then traces the
# fleet storm bench (6 nodes): each node keeps one machine on one
# clock for its whole life, so its trace must hold at least one
# simulated-time process per node.

if(NOT BENCH OR NOT FLEET_BENCH OR NOT CHECKER OR NOT OUT_DIR)
    message(FATAL_ERROR
        "trace_smoke: BENCH, FLEET_BENCH, CHECKER and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

foreach(bad_flag --repeat=-1 --repeat=4294967297 --seed=-1 --seed=12abc
                 --metric-out=x --full)
    execute_process(
        COMMAND ${BENCH} ${bad_flag}
        RESULT_VARIABLE bad_rc
        OUTPUT_VARIABLE bad_out
        ERROR_VARIABLE bad_out
    )
    if(NOT bad_rc EQUAL 1 OR NOT bad_out MATCHES "usage:")
        message(FATAL_ERROR
            "trace_smoke: ${bad_flag} was not refused with usage and "
            "exit 1 (rc=${bad_rc}):\n${bad_out}")
    endif()
endforeach()

set(TRACE_FILE ${OUT_DIR}/smoke_trace.json)
set(METRICS_FILE ${OUT_DIR}/smoke_metrics.json)

set(ENV{WSP_TRACE} all)
execute_process(
    COMMAND ${BENCH}
        --trace-out=${TRACE_FILE}
        --metrics-out=${METRICS_FILE}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_out
)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "trace_smoke: bench failed (rc=${bench_rc}):\n${bench_out}")
endif()

foreach(emitted ${TRACE_FILE} ${METRICS_FILE})
    if(NOT EXISTS ${emitted})
        message(FATAL_ERROR "trace_smoke: bench did not write ${emitted}")
    endif()
endforeach()

execute_process(
    COMMAND ${CHECKER} --trace=${TRACE_FILE} --metrics=${METRICS_FILE}
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_out
)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "trace_smoke: validation failed (rc=${check_rc}):\n${check_out}")
endif()
message(STATUS "trace_smoke: ${check_out}")

set(FLEET_TRACE_FILE ${OUT_DIR}/fleet_trace.json)
execute_process(
    COMMAND ${FLEET_BENCH} --trace-out=${FLEET_TRACE_FILE}
    WORKING_DIRECTORY ${OUT_DIR}
    RESULT_VARIABLE fleet_rc
    OUTPUT_VARIABLE fleet_out
    ERROR_VARIABLE fleet_out
)
if(NOT fleet_rc EQUAL 0 OR NOT EXISTS ${FLEET_TRACE_FILE})
    message(FATAL_ERROR
        "trace_smoke: traced fleet bench failed (rc=${fleet_rc}):\n${fleet_out}")
endif()

execute_process(
    COMMAND ${CHECKER} --trace=${FLEET_TRACE_FILE} --min-sim-processes=6
    RESULT_VARIABLE fleet_check_rc
    OUTPUT_VARIABLE fleet_check_out
    ERROR_VARIABLE fleet_check_out
)
if(NOT fleet_check_rc EQUAL 0)
    message(FATAL_ERROR
        "trace_smoke: fleet trace validation failed "
        "(rc=${fleet_check_rc}):\n${fleet_check_out}")
endif()
message(STATUS "trace_smoke: ${fleet_check_out}")

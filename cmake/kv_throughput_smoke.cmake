# Threaded-serving smoke, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -P kv_throughput_smoke.cmake
#
# Configures the shared -O2 (CMAKE_BUILD_TYPE=Release) sub-build,
# builds the kv_throughput bench and the bench_summary collator, then:
#
#  1. checks the regression-gate plumbing deterministically: on two
#     synthetic BENCH_*.json records, `bench_summary --gate` must pass
#     a 10% drop against a 20% allowance (exit 0) and fail a planted
#     25% drop (exit 1, reported as a gate failure);
#  2. runs the bench once — its shape check asserts the exact
#     sequential-replay equivalence and same-seed determinism at every
#     worker count of the sweep.
#
# Throughput itself is not gated here: one short shot is too noisy for
# an absolute floor, and two back-to-back runs of the same binary have
# differed by a third.
#
# The sub-build directory persists across runs, so re-runs are
# incremental.

if(NOT SOURCE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR "kv_throughput_smoke: SOURCE_DIR and OUT_DIR are required")
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
        "kv_throughput_smoke: configure failed (rc=${configure_rc}):\n${configure_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR}
        --target bench_kv_throughput bench_summary
    RESULT_VARIABLE build_rc
    OUTPUT_VARIABLE build_out
    ERROR_VARIABLE build_out
)
if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR
        "kv_throughput_smoke: build failed (rc=${build_rc}):\n${build_out}")
endif()

# Two kv_throughput-shaped records, oldest first: the gate compares
# the newest value of the counter against the previous one.
function(gate_probe name previous newest expected_rc expected_text)
    set(dir ${OUT_DIR}/kv_throughput_gate_${name})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    set(head "\"bench\":\"kv_throughput\",\"host\":\"smoke\"")
    set(tail "\"wall_seconds\":1,\"seed\":1,\"workers\":8")
    set(counter "bench.kv_throughput.t8.ops_per_sec")
    file(WRITE ${dir}/BENCH_kv_throughput.json
        "{${head},\"utc\":\"2026-01-01T00:00:00Z\",${tail},\"counters\":{\"${counter}\":${previous}}}\n"
        "{${head},\"utc\":\"2026-01-01T00:00:01Z\",${tail},\"counters\":{\"${counter}\":${newest}}}\n")
    execute_process(
        COMMAND ${OUT_DIR}/tools/bench_summary ${dir} --gate=${counter}:20
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out
    )
    if(NOT rc EQUAL expected_rc OR NOT out MATCHES "${expected_text}")
        message(FATAL_ERROR
            "kv_throughput_smoke: gate probe '${name}' (${previous} -> ${newest}, 20% allowed) "
            "wanted rc=${expected_rc} and '${expected_text}', got rc=${rc}:\n${out}")
    endif()
endfunction()

gate_probe(pass 1000000 900000 0 "within 20.00%")
gate_probe(fail 1000000 750000 1 "GATE FAIL")

# Fresh record dir per ctest invocation, so the record holds exactly
# this run.
set(RECORD_DIR ${OUT_DIR}/kv_throughput_records)
file(REMOVE_RECURSE ${RECORD_DIR})
file(MAKE_DIRECTORY ${RECORD_DIR})
execute_process(
    COMMAND ${OUT_DIR}/bench/kv_throughput
        --metrics-out=${RECORD_DIR}/metrics.json
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out
)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
        "kv_throughput_smoke: bench shape check failed (rc=${run_rc}):\n${run_out}")
endif()
message(STATUS
    "kv_throughput_smoke: gate plumbing passes 10% and catches 25%; bench shape checks clean at -O2")

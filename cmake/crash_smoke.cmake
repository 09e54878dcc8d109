# End-to-end check of the crash harness's bug-catching path, run as a
# ctest:
#
#   cmake -DSWEEP=<path> -DREPLAY=<path> -DOUT_DIR=<dir> \
#         -P crash_smoke.cmake
#
# Runs crash_sweep with the deliberately broken marker-before-flush
# save order. The sweep must find a violation (exit 3), minimize the
# failing schedule, and write a replay file; crash_replay must then
# reproduce the violation from that file (exit 2). Then sweeps the
# schedule size the repository benchmark's crash-sweep times (2000
# ops, 400 points), which must hold everywhere (exit 0), and checks
# that counts too large for their field are refused with usage
# (exit 1) rather than wrapped into range.

if(NOT SWEEP OR NOT REPLAY OR NOT OUT_DIR)
    message(FATAL_ERROR "crash_smoke: SWEEP, REPLAY and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
set(REPLAY_FILE ${OUT_DIR}/broken_marker.schedule)
file(REMOVE ${REPLAY_FILE})

execute_process(
    COMMAND ${SWEEP}
        --broken-marker
        --stop-on-first
        --points=80
        --replay-out=${REPLAY_FILE}
    RESULT_VARIABLE sweep_rc
    OUTPUT_VARIABLE sweep_out
    ERROR_VARIABLE sweep_out
)
if(NOT sweep_rc EQUAL 3)
    message(FATAL_ERROR
        "crash_smoke: expected the sweep to catch the broken save "
        "order (rc=3), got rc=${sweep_rc}:\n${sweep_out}")
endif()
if(NOT EXISTS ${REPLAY_FILE})
    message(FATAL_ERROR
        "crash_smoke: sweep did not write ${REPLAY_FILE}:\n${sweep_out}")
endif()

execute_process(
    COMMAND ${REPLAY} ${REPLAY_FILE}
    RESULT_VARIABLE replay_rc
    OUTPUT_VARIABLE replay_out
    ERROR_VARIABLE replay_out
)
if(NOT replay_rc EQUAL 2)
    message(FATAL_ERROR
        "crash_smoke: expected the replay to reproduce the violation "
        "(rc=2), got rc=${replay_rc}:\n${replay_out}")
endif()

execute_process(
    COMMAND ${SWEEP} --ops=2000 --points=400
    RESULT_VARIABLE big_rc
    OUTPUT_VARIABLE big_out
    ERROR_VARIABLE big_out
)
if(NOT big_rc EQUAL 0)
    message(FATAL_ERROR
        "crash_smoke: expected the 2000-op sweep to hold (rc=0), got "
        "rc=${big_rc}:\n${big_out}")
endif()
if(NOT big_out MATCHES "enumerated sweep: 400 points")
    message(FATAL_ERROR
        "crash_smoke: the 2000-op sweep did not run 400 points:\n${big_out}")
endif()

foreach(flag
        --ops=4294967297 --train-cycles=4294967297 --media-faults=4294967296
        --drop-save-cmds=4294967296 --fuzz=4294967296
        --pheap-txns=2147483648 --ops=-1)
    execute_process(
        COMMAND ${SWEEP} ${flag}
        RESULT_VARIABLE bad_rc
        OUTPUT_VARIABLE bad_out
        ERROR_VARIABLE bad_out
    )
    if(NOT bad_rc EQUAL 1 OR NOT bad_out MATCHES "usage: crash_sweep")
        message(FATAL_ERROR
            "crash_smoke: expected ${flag} to be refused with usage "
            "(rc=1), got rc=${bad_rc}:\n${bad_out}")
    endif()
endforeach()
message(STATUS "crash_smoke: broken order caught, minimized, replayed; "
    "2000-op sweep held; out-of-range counts refused")

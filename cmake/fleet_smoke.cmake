# Fleet smoke test, run as a ctest:
#
#   cmake -DSTORM=<fleet_storm> -DSWEEP=<fleet_sweep> \
#         -DREPLAY=<crash_replay> -DOUT_DIR=<dir> -P fleet_smoke.cmake
#
# Runs the fleet_storm bench and the fleet_sweep and crash_replay
# drivers small:
#
#  - bench/fleet_storm's own shape check is the assertion: WSP-local
#    recovery must reach full capacity at least 5x faster than the
#    backend-refill storm (in simulated time), no acknowledged write
#    may be lost under any recovery policy, and the degraded tier must
#    serve reads.
#  - tools/fleet_sweep proves NoReplicaDivergence over a handful of
#    enumerated mid-save kill instants (exit 3 = divergence found),
#    and refuses flag values that do not fit with usage and exit 1.
#  - tools/crash_replay re-runs a fleet schedule file through the
#    fleet, not through one machine, and NoReplicaDivergence holds.

if(NOT STORM OR NOT SWEEP OR NOT REPLAY OR NOT OUT_DIR)
    message(FATAL_ERROR
        "fleet_smoke: STORM, SWEEP, REPLAY and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
execute_process(
    COMMAND ${STORM}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_out
)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "fleet_smoke: fleet_storm shape check failed (rc=${bench_rc}):\n${bench_out}")
endif()

execute_process(
    COMMAND ${SWEEP} --points=6
    RESULT_VARIABLE sweep_rc
    OUTPUT_VARIABLE sweep_out
    ERROR_VARIABLE sweep_out
)
if(NOT sweep_rc EQUAL 0)
    message(FATAL_ERROR
        "fleet_smoke: NoReplicaDivergence sweep failed (rc=${sweep_rc}):\n${sweep_out}")
endif()

foreach(flag
        --nodes=4294967299 --nodes=0 --nodes=65 --policy=4294967296
        --points=-1 --seed=18446744073709551616)
    execute_process(
        COMMAND ${SWEEP} ${flag}
        RESULT_VARIABLE bad_rc
        OUTPUT_VARIABLE bad_out
        ERROR_VARIABLE bad_out
    )
    if(NOT bad_rc EQUAL 1 OR NOT bad_out MATCHES "usage: fleet_sweep")
        message(FATAL_ERROR
            "fleet_smoke: expected ${flag} to be refused with usage "
            "(rc=1), got rc=${bad_rc}:\n${bad_out}")
    endif()
endforeach()

# A three-node, R=3 whole-fleet storm killed 33 ms into the save.
set(FLEET_SCHEDULE ${OUT_DIR}/fleet_smoke.schedule)
file(WRITE ${FLEET_SCHEDULE}
    "wsp-crash-schedule v1\n"
    "fleet_nodes=3\n"
    "fleet_replication=3\n"
    "ops=48\n"
    "shards=8\n"
    "salvage=1\n"
    "outage_ns=1000000000\n"
    "window_ns=33000000\n")
execute_process(
    COMMAND ${REPLAY} ${FLEET_SCHEDULE}
    RESULT_VARIABLE replay_rc
    OUTPUT_VARIABLE replay_out
    ERROR_VARIABLE replay_out
)
if(NOT replay_rc EQUAL 0 OR NOT replay_out MATCHES "NoReplicaDivergence held")
    message(FATAL_ERROR
        "fleet_smoke: expected crash_replay to run the fleet schedule and "
        "hold NoReplicaDivergence (rc=0), got rc=${replay_rc}:\n${replay_out}")
endif()
message(STATUS
    "fleet_smoke: storm shape check + NoReplicaDivergence sweep clean; "
    "bad flags refused; fleet schedule replayed through the fleet")

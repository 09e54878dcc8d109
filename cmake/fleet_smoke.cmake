# Release-configuration fleet smoke test, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -P fleet_smoke.cmake
#
# Configures a -O2 (CMAKE_BUILD_TYPE=Release) sub-build of the tree
# (shared with the perf smokes' OUT_DIR convention), builds the
# fleet_storm bench and the fleet_sweep and crash_replay drivers, and
# runs them small:
#
#  - bench/fleet_storm's own shape check is the assertion: WSP-local
#    recovery must reach full capacity at least 5x faster than the
#    backend-refill storm, no acknowledged write may be lost under
#    any recovery policy, and the degraded tier must serve reads.
#  - tools/fleet_sweep proves NoReplicaDivergence over a handful of
#    enumerated mid-save kill instants (exit 3 = divergence found),
#    and refuses flag values that do not fit with usage and exit 1.
#  - tools/crash_replay re-runs a fleet schedule file through the
#    fleet, not through one machine, and NoReplicaDivergence holds.
#
# The sub-build directory persists across runs, so re-runs are
# incremental.

if(NOT SOURCE_DIR OR NOT OUT_DIR)
    message(FATAL_ERROR "fleet_smoke: SOURCE_DIR and OUT_DIR are required")
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
        "fleet_smoke: configure failed (rc=${configure_rc}):\n${configure_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR}
        --target bench_fleet_storm fleet_sweep crash_replay
    RESULT_VARIABLE build_rc
    OUTPUT_VARIABLE build_out
    ERROR_VARIABLE build_out
)
if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR
        "fleet_smoke: build failed (rc=${build_rc}):\n${build_out}")
endif()

execute_process(
    COMMAND ${OUT_DIR}/bench/fleet_storm
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_out
)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "fleet_smoke: fleet_storm shape check failed (rc=${bench_rc}):\n${bench_out}")
endif()

execute_process(
    COMMAND ${OUT_DIR}/tools/fleet_sweep --points=6
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
        COMMAND ${OUT_DIR}/tools/fleet_sweep ${flag}
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
    COMMAND ${OUT_DIR}/tools/crash_replay ${FLEET_SCHEDULE}
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
    "fleet_smoke: storm shape check + NoReplicaDivergence sweep clean at "
    "-O2; bad flags refused; fleet schedule replayed through the fleet")

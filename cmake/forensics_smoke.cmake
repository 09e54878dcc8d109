# Smoke test for the post-mortem forensics pipeline, run as a ctest:
#
#   cmake -DSWEEP=<crash_sweep> -DINSPECT=<wsp_inspect> -DOUT_DIR=<dir> \
#         -P forensics_smoke.cmake
#
# Runs a small enumerated sweep with the NVRAM flight recorder enabled
# and captures the surviving image, then proves the forensics toolkit
# can consume it: wsp_inspect must find a valid recorder header,
# decode a sound ring, export a Chrome trace, and diff the image
# against itself without reporting differences. Finally a shorter
# sweep of the same base schedule must leave the identical image: each
# machine owns its ring and stamps simulated time only, so the image
# depends on the schedule, not on what the process ran before it.

if(NOT SWEEP OR NOT INSPECT OR NOT OUT_DIR)
    message(FATAL_ERROR
        "forensics_smoke: SWEEP, INSPECT and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
set(IMAGE_FILE ${OUT_DIR}/smoke_image.wspimg)
set(SHORT_IMAGE_FILE ${OUT_DIR}/smoke_image_short.wspimg)
set(TRACE_FILE ${OUT_DIR}/smoke_blackbox_trace.json)

execute_process(
    COMMAND ${SWEEP} --points=16 --image-out=${IMAGE_FILE}
    RESULT_VARIABLE sweep_rc
    OUTPUT_VARIABLE sweep_out
    ERROR_VARIABLE sweep_out
)
if(NOT sweep_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: sweep failed (rc=${sweep_rc}):\n${sweep_out}")
endif()
if(NOT EXISTS ${IMAGE_FILE})
    message(FATAL_ERROR
        "forensics_smoke: sweep did not write ${IMAGE_FILE}")
endif()

# Decode: the image of a held sweep must contain a valid, sound ring.
execute_process(
    COMMAND ${INSPECT} --image=${IMAGE_FILE} --require-header
        --trace-out=${TRACE_FILE}
    RESULT_VARIABLE inspect_rc
    OUTPUT_VARIABLE inspect_out
    ERROR_VARIABLE inspect_out
)
if(NOT inspect_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: decode failed (rc=${inspect_rc}):\n${inspect_out}")
endif()
if(NOT EXISTS ${TRACE_FILE})
    message(FATAL_ERROR
        "forensics_smoke: inspect did not write ${TRACE_FILE}")
endif()

# Diff: an image diffed against itself reports no differences.
execute_process(
    COMMAND ${INSPECT} --image=${IMAGE_FILE} --diff=${IMAGE_FILE} --quiet
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_out
)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: self-diff failed (rc=${diff_rc}):\n${diff_out}")
endif()

# Same schedule, different history: a 4-point sweep writes the same
# base schedule's image after fewer prior runs. Byte-identical files,
# and a record-by-record diff that finds nothing.
execute_process(
    COMMAND ${SWEEP} --points=4 --image-out=${SHORT_IMAGE_FILE}
    RESULT_VARIABLE short_rc
    OUTPUT_VARIABLE short_out
    ERROR_VARIABLE short_out
)
if(NOT short_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: short sweep failed (rc=${short_rc}):\n${short_out}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${IMAGE_FILE} ${SHORT_IMAGE_FILE}
    RESULT_VARIABLE compare_rc
)
if(NOT compare_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: the 16-point and 4-point sweeps left different "
        "images of the same schedule")
endif()
execute_process(
    COMMAND ${INSPECT} --image=${IMAGE_FILE} --diff=${SHORT_IMAGE_FILE}
        --quiet
    RESULT_VARIABLE cross_rc
    OUTPUT_VARIABLE cross_out
    ERROR_VARIABLE cross_out
)
if(NOT cross_rc EQUAL 0)
    message(FATAL_ERROR
        "forensics_smoke: cross-run diff failed (rc=${cross_rc}):\n${cross_out}")
endif()
message(STATUS
    "forensics_smoke: decode + trace export + self-diff + same image "
    "across sweeps OK")

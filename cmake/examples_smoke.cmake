# Smoke test for the example programs, run as a ctest:
#
#   cmake -DEXAMPLES=<path>,<path>,... -DOUT_DIR=<dir> \
#         -P examples_smoke.cmake
#
# Runs every listed example binary once, with its default arguments
# and OUT_DIR as its working directory, and fails unless each exits 0.
# Between them the examples run a full failure/restore cycle
# (quickstart, wspsim), the recovery storm, the device policies, the
# tiered recovery, and persistent_directory's DirectoryServer load and
# AvlTree attach after a simulated crash.

if(NOT EXAMPLES OR NOT OUT_DIR)
    message(FATAL_ERROR "examples_smoke: EXAMPLES and OUT_DIR are required")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})
string(REPLACE "," ";" examples "${EXAMPLES}")
list(LENGTH examples count)

foreach(example IN LISTS examples)
    execute_process(
        COMMAND ${example}
        WORKING_DIRECTORY ${OUT_DIR}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out
    )
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "examples_smoke: ${example} exited ${rc}:\n${out}")
    endif()
endforeach()

message(STATUS "examples_smoke: ${count} examples exited 0")

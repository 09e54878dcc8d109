# Filter-drift check, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DTEST_DIR=<dir of the test binaries> \
#         -P gtest_filter_check.cmake
#
# gtest runs a --gtest_filter that selects nothing as a pass, so a
# renamed or deleted suite would silently empty a sanitizer or crash
# run. This scans every --gtest_filter in cmake/*.cmake and
# tests/CMakeLists.txt, lists the tests of the binary its command runs
# (the last test_* name on the nearest COMMAND line above it), and
# fails when any colon-separated pattern matches none of them.

if(NOT SOURCE_DIR OR NOT TEST_DIR)
    message(FATAL_ERROR "gtest_filter_check: SOURCE_DIR and TEST_DIR are required")
endif()

file(GLOB scripts ${SOURCE_DIR}/cmake/*.cmake)
list(REMOVE_ITEM scripts ${CMAKE_CURRENT_LIST_FILE})
set(checked 0)
foreach(script ${scripts} ${SOURCE_DIR}/tests/CMakeLists.txt)
    file(STRINGS ${script} lines)
    set(binary "")
    foreach(line IN LISTS lines)
        if(line MATCHES "COMMAND (.*[ /])?(test_[a-z_]+)")
            set(binary ${CMAKE_MATCH_2})
        endif()
        if(NOT line MATCHES "--gtest_filter=([^ )\"]+)")
            continue()
        endif()
        set(filter ${CMAKE_MATCH_1})
        if(NOT binary)
            message(FATAL_ERROR "gtest_filter_check: no test binary "
                "before --gtest_filter=${filter} in ${script}")
        endif()

        execute_process(
            COMMAND ${TEST_DIR}/${binary} --gtest_list_tests
            RESULT_VARIABLE list_rc
            OUTPUT_VARIABLE listing
            ERROR_VARIABLE listing
        )
        if(NOT list_rc EQUAL 0)
            message(FATAL_ERROR
                "gtest_filter_check: ${binary} --gtest_list_tests failed "
                "(rc=${list_rc}):\n${listing}")
        endif()
        # "Suite." lines, each followed by its "  Test" lines.
        string(REPLACE "\n" ";" listing "${listing}")
        set(names "")
        set(suite "")
        foreach(entry IN LISTS listing)
            if(entry MATCHES "^([^ #][^ ]*)")
                set(suite ${CMAKE_MATCH_1})
            elseif(entry MATCHES "^  ([^ ]+)")
                list(APPEND names "${suite}${CMAKE_MATCH_1}")
            endif()
        endforeach()

        string(REPLACE ":" ";" patterns "${filter}")
        foreach(pattern IN LISTS patterns)
            string(REPLACE "." "\\." regex "${pattern}")
            string(REPLACE "*" ".*" regex "${regex}")
            string(REPLACE "?" "." regex "${regex}")
            set(found FALSE)
            foreach(name IN LISTS names)
                if(name MATCHES "^${regex}$")
                    set(found TRUE)
                    break()
                endif()
            endforeach()
            if(NOT found)
                message(FATAL_ERROR
                    "gtest_filter_check: pattern '${pattern}' in ${script} "
                    "matches no test of ${binary}")
            endif()
            math(EXPR checked "${checked} + 1")
        endforeach()
    endforeach()
endforeach()
message(STATUS "gtest_filter_check: ${checked} patterns each match a test")

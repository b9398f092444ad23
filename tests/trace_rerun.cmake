# Runs a command twice with XDG_CACHE_HOME pointed at a fresh directory
# and fails unless both stderr streams are non-empty and byte-identical:
# a rerun must trace every event the first run traced. The two streams
# are left in OUT_DIR as run1.stderr and run2.stderr.
#
#   cmake "-DCMD=<binary;arg;arg>" -DOUT_DIR=<dir> [-DHINTM_TRACE=<cats>]
#         -P trace_rerun.cmake

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR}/cache)
set(ENV{XDG_CACHE_HOME} ${OUT_DIR}/cache)
if(HINTM_TRACE)
    set(ENV{HINTM_TRACE} ${HINTM_TRACE})
endif()
foreach(run 1 2)
    execute_process(COMMAND ${CMD}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err${run})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${CMD}: run ${run} exit '${rc}'\n${err${run}}")
    endif()
    file(WRITE ${OUT_DIR}/run${run}.stderr "${err${run}}")
    string(REGEX MATCHALL "\n" newlines "${err${run}}")
    list(LENGTH newlines lines${run})
endforeach()
if(lines1 EQUAL 0)
    message(FATAL_ERROR "${CMD}: the first run traced nothing")
endif()
if(NOT err1 STREQUAL err2)
    message(FATAL_ERROR "${CMD}: stderr differs between two runs "
                        "(${lines1} lines, then ${lines2}); see ${OUT_DIR}")
endif()

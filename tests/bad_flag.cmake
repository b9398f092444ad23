# Runs a binary with a bad flag and fails unless it exits with code 2
# after printing exactly one stderr line, a "fatal:" diagnostic. Each
# file in the optional UNWRITTEN list is removed first and must still
# be absent afterwards: a fatal run writes no report.
#
#   cmake -DBIN=<binary> "-DARGS=<arg;arg>" ["-DUNWRITTEN=<file;file>"]
#         -P bad_flag.cmake

if(UNWRITTEN)
    file(REMOVE ${UNWRITTEN})
endif()
execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', want 2\n${err}")
endif()
if(NOT err MATCHES "^fatal: [^\n]*\n$")
    message(FATAL_ERROR "${BIN} ${ARGS}: want one fatal: line, got\n${err}")
endif()
foreach(f ${UNWRITTEN})
    if(EXISTS "${f}")
        message(FATAL_ERROR "${BIN} ${ARGS}: failed run wrote ${f}")
    endif()
endforeach()

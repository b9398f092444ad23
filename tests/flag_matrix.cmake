# Checks that a harness or tool takes exactly the flags its --help lists
# and words every flag error the same way:
#   - --help and -h print the same text and exit 0;
#   - each flag --help lists is taken: with a value where it names one,
#     and followed by --help, the run stops at --help with exit 0;
#   - each listed flag that needs a value ends with
#     "fatal: FLAG needs a value" when it gets none;
#   - each shared flag --help does not list, like an unknown one, ends
#     with "fatal: unknown option FLAG (see --help)".
# Every failure must exit with code 2 after that one stderr line.
#
#   cmake -DBIN=<binary> -P flag_matrix.cmake

# The shared flags every binary reads through bench::BenchArgs::parse.
set(shared --workload --scale --tiny --small --large --htm --threads
    --seed --retries --buffer --preserve --preabort --jobs --lint
    --journal --metrics --perfetto --stats-json --list)
# A valid value for each metavariable --help uses.
set(value_N 1)
set(value_NAME kmeans)
set(value_S tiny)
set(value_KIND p8)
set(value_M full)
set(value_P attacker)
set(value_CATS tx)
set(value_FILE flag_matrix.unwritten)

function(expect_taken)
    execute_process(COMMAND ${BIN} ${ARGN} --help
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc STREQUAL "0")
        message(FATAL_ERROR
                "${BIN} ${ARGN} --help: exit '${rc}', want 0\n${err}")
    endif()
endfunction()

function(expect_fatal want)
    execute_process(COMMAND ${BIN} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    string(FIND "${err}" "fatal: ${want} (" at)
    if(NOT rc STREQUAL "2" OR NOT at EQUAL 0
       OR NOT err MATCHES "^fatal: [^\n]*\n$")
        message(FATAL_ERROR "${BIN} ${ARGN}: exit '${rc}', want 2 and "
                            "the one line 'fatal: ${want}', got\n${err}")
    endif()
endfunction()

execute_process(COMMAND ${BIN} --help RESULT_VARIABLE rc
                OUTPUT_VARIABLE help ERROR_VARIABLE err)
execute_process(COMMAND ${BIN} -h OUTPUT_VARIABLE help_h)
if(NOT rc STREQUAL "0" OR NOT err STREQUAL "" OR NOT help STREQUAL help_h)
    message(FATAL_ERROR "${BIN} --help: exit '${rc}', stderr '${err}', "
                        "or -h prints other text")
endif()

# One list element per help line; ';' and brackets would split it.
string(REPLACE ";" "," help "${help}")
string(REPLACE "[" "<" help "${help}")
string(REPLACE "]" ">" help "${help}")
string(REPLACE "\n" ";" lines "${help}")
set(listed)
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^  (-[^ ]+)( ([A-Z]+|<[A-Z]+>))?( |$)")
        continue()
    endif()
    string(REPLACE "|" ";" spellings "${CMAKE_MATCH_1}")
    set(meta "${CMAKE_MATCH_3}")
    foreach(flag IN LISTS spellings)
        list(APPEND listed ${flag})
        if(meta MATCHES "^<(.*)>$")
            expect_taken(${flag})
            expect_taken(${flag} ${value_${CMAKE_MATCH_1}})
        elseif(NOT meta STREQUAL "") # if(N) would read N as false
            if(NOT DEFINED value_${meta})
                message(FATAL_ERROR "${BIN}: no test value for ${meta}")
            endif()
            expect_taken(${flag} ${value_${meta}})
            expect_fatal("${flag} needs a value" ${flag})
        else()
            expect_taken(${flag})
        endif()
    endforeach()
endforeach()

foreach(flag IN LISTS shared ITEMS --bogus)
    list(FIND listed ${flag} at)
    if(at EQUAL -1)
        expect_fatal("unknown option ${flag} (see --help)" ${flag})
    endif()
endforeach()

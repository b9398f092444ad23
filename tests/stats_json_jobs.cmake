# Runs a harness at --jobs 1 and at --jobs 4, each writing --stats-json
# to its own file under OUT_DIR, and fails unless the two files are
# byte-identical: exports must list runs in submission order.
#
#   cmake -DHARNESS=<binary> -DOUT_DIR=<dir> -P stats_json_jobs.cmake

file(MAKE_DIRECTORY ${OUT_DIR})
foreach(jobs 1 4)
    execute_process(
        COMMAND ${HARNESS} --tiny --workload kmeans --workload intruder
                --journal --jobs ${jobs}
                --stats-json ${OUT_DIR}/jobs${jobs}.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${HARNESS} --jobs ${jobs} failed: ${rc}")
    endif()
endforeach()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/jobs1.json ${OUT_DIR}/jobs4.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--stats-json differs between --jobs 1 and --jobs 4")
endif()

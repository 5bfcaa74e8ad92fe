# Bad command-line and environment input must end scenario_cli with a clean
# error: exit status 2 and a message, never an abort (a signal) and never a
# silent success. Run as
#   cmake -DCLI=<path to scenario_cli> -P cli_bad_input.cmake
if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to scenario_cli>")
endif()

set(failures "")
function(expect_exit_2 label)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT rc STREQUAL "2" OR err STREQUAL "")
    set(failures "${failures}\n  ${label}: exit '${rc}', stderr '${err}'"
        PARENT_SCOPE)
  else()
    message(STATUS "${label}: exit 2: ${err}")
  endif()
endfunction()

expect_exit_2("malformed positional"
              ${CLI} peel broadcast abc 8 30 5)
expect_exit_2("positional with trailing junk"
              ${CLI} peel broadcast 16 8x 30 5)
expect_exit_2("malformed --shards"
              ${CLI} peel broadcast 16 8 30 5 --shards=abc)
expect_exit_2("flow fidelity with shards"
              ${CLI} peel broadcast 16 8 30 5 --fidelity=flow --shards=2)
expect_exit_2("malformed PEEL_BENCH_THREADS"
              ${CMAKE_COMMAND} -E env PEEL_BENCH_THREADS=banana
              ${CLI} peel broadcast 16 8 30 5)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "scenario_cli did not exit 2 on bad input:${failures}")
endif()

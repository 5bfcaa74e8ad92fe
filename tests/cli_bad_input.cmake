# Bad command-line and environment input must end scenario_cli, a paper
# bench and an example with a clean error: exit status 2 and a message, never
# an abort (a signal) and never a silent success. Run as
#   cmake -DCLI=<path to scenario_cli> -DBENCH=<path to fig6_cct_vs_scale>
#         -DEXAMPLE=<path to plan_inspector> -P cli_bad_input.cmake
if(NOT CLI OR NOT BENCH OR NOT EXAMPLE)
  message(FATAL_ERROR "pass -DCLI=, -DBENCH= and -DEXAMPLE= binary paths")
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
expect_exit_2("bench with malformed PEEL_BENCH_SAMPLES"
              ${CMAKE_COMMAND} -E env PEEL_BENCH_QUICK=1
              PEEL_BENCH_SAMPLES=banana ${BENCH})
expect_exit_2("example with malformed argument"
              ${EXAMPLE} 16x)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "a binary did not exit 2 on bad input:${failures}")
endif()

# Bad command-line and environment input must end scenario_cli, a paper
# bench and an example with a clean error: exit status 2 and a message, never
# an abort (a signal) and never a silent success. Run as
#   cmake -DCLI=<path to scenario_cli> -DBENCH=<path to fig6_cct_vs_scale>
#         -DEXAMPLE=<path to plan_inspector> -P cli_bad_input.cmake
if(NOT CLI OR NOT BENCH OR NOT EXAMPLE)
  message(FATAL_ERROR "pass -DCLI=, -DBENCH= and -DEXAMPLE= binary paths")
endif()

set(failures "")
# Runs the command, which must exit 2 with a message on stderr matching
# `pattern`: naming the flag or field at fault, so that a crash deep inside
# the run does not pass for a clean rejection.
function(expect_exit_2_naming label pattern)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "${pattern}")
    set(failures "${failures}\n  ${label}: exit '${rc}', stderr '${err}'"
        PARENT_SCOPE)
  else()
    message(STATUS "${label}: exit 2: ${err}")
  endif()
endfunction()

# Exit 2 with any message. A macro, so the function's PARENT_SCOPE update
# lands in this file's scope.
macro(expect_exit_2 label)
  expect_exit_2_naming("${label}" "." ${ARGN})
endmacro()

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

# Out-of-range flag values must not run as if the flag were absent or off.
expect_exit_2_naming("--stripes=0" "--stripes"
                     ${CLI} peel broadcast 16 1 30 2 --stripes=0)
expect_exit_2_naming("--stripes=-2" "--stripes"
                     ${CLI} peel broadcast 16 1 30 2 --stripes=-2)
expect_exit_2_naming("--deadline=-1" "--deadline"
                     ${CLI} peel broadcast 16 1 30 2 --deadline=-1)
expect_exit_2_naming("--sample-us=-3" "--sample-us"
                     ${CLI} peel broadcast 16 1 30 2 --sample-us=-3)
expect_exit_2_naming("--flap-links=-3" "--flap-links"
                     ${CLI} peel broadcast 16 1 30 2 --flap-mtbf=200
                     --flap-mttr=50 --flap-links=-3)
expect_exit_2_naming("--flap-horizon=-100" "--flap-horizon"
                     ${CLI} peel broadcast 16 1 30 2 --flap-mtbf=200
                     --flap-mttr=50 --flap-horizon=-100)
# A negative detection delay is rejected up front, naming the field, not at
# the first fault with the event queue's "scheduling into the past".
expect_exit_2_naming("--detect-us=-5" "detection_delay_seconds"
                     ${CLI} peel broadcast 64 1 30 5 --detect-us=-5
                     --flap-mtbf=200 --flap-mttr=50 --flap-links=4)
# Negative workload times are rejected up front, naming the field, not deep
# in the run with the event queue's "scheduling into the past".
expect_exit_2_naming("--gap-us=-500" "iteration_gap_seconds"
                     ${CLI} peel broadcast 16 1 30 5 --workload --gap-us=-500
                     --iters=3)
expect_exit_2_naming("--hold-us=-500" "hold_seconds"
                     ${CLI} peel broadcast 16 1 30 5 --workload --hold-us=-500
                     --iters=3)
# An explicit --rate must be positive, not silently "derive it from load%";
# a flap time must be positive, as an out-of-range value (exit 2).
expect_exit_2_naming("--rate=-3" "--rate"
                     ${CLI} peel broadcast 16 1 30 5 --workload --rate=-3)
expect_exit_2_naming("--flap-mtbf=-5" "--flap-mtbf"
                     ${CLI} peel broadcast 16 1 30 2 --flap-mtbf=-5
                     --flap-mttr=50)
expect_exit_2_naming("--flap-mttr=0" "--flap-mttr"
                     ${CLI} peel broadcast 16 1 30 2 --flap-mtbf=200
                     --flap-mttr=0)

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "a binary did not exit 2 on bad input:${failures}")
endif()

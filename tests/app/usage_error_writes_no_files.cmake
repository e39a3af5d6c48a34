# A command that fails argument checking exits 2 and leaves its
# --trace-out/--metrics-out paths alone: it creates no file and an existing
# one keeps its bytes. The same flags on a command that runs write both.
#
#   cmake -DUAVRES=path/to/uavres -DDIR=out/dir -P usage_error_writes_no_files.cmake
set(trace "${DIR}/usage_error_trace.json")
set(metrics "${DIR}/usage_error_metrics.json")

# Runs `uavres ARGN` with both output flags and fails unless it exits
# exactly 2, writes no trace file and leaves the metrics file's bytes alone.
function(expect_usage_error)
  string(JOIN " " cmd ${ARGN})
  file(REMOVE "${trace}")
  file(WRITE "${metrics}" "keep me\n")
  execute_process(COMMAND "${UAVRES}" ${ARGN} --trace-out "${trace}"
                          --metrics-out "${metrics}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${cmd} exited ${rc}, expected 2")
  endif()
  if(EXISTS "${trace}")
    message(FATAL_ERROR "the usage error of ${cmd} wrote ${trace}")
  endif()
  file(READ "${metrics}" kept)
  if(NOT kept STREQUAL "keep me\n")
    message(FATAL_ERROR "the usage error of ${cmd} overwrote ${metrics}")
  endif()
endfunction()

expect_usage_error(fly 0 --seed x)
# loadgen checks its counts and its grid before it connects anywhere.
expect_usage_error(loadgen --clients 0)
expect_usage_error(loadgen --missions -1)
expect_usage_error(loadgen --durations 0)

execute_process(COMMAND "${UAVRES}" list --trace-out "${trace}" --metrics-out "${metrics}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
file(READ "${metrics}" written)
if(NOT rc EQUAL 0 OR NOT EXISTS "${trace}" OR written STREQUAL "keep me\n")
  message(FATAL_ERROR "list exited ${rc} without writing both files")
endif()

# A command that fails argument checking exits 2 and leaves its
# --trace-out/--metrics-out paths alone: it creates no file and an existing
# one keeps its bytes. The same flags on a command that runs write both.
#
#   cmake -DUAVRES=path/to/uavres -DDIR=out/dir -P usage_error_writes_no_files.cmake
set(trace "${DIR}/usage_error_trace.json")
set(metrics "${DIR}/usage_error_metrics.json")
file(REMOVE "${trace}")
file(WRITE "${metrics}" "keep me\n")

execute_process(COMMAND "${UAVRES}" fly 0 --seed x --trace-out "${trace}"
                        --metrics-out "${metrics}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "fly 0 --seed x exited ${rc}, expected 2")
endif()
if(EXISTS "${trace}")
  message(FATAL_ERROR "the usage error wrote ${trace}")
endif()
file(READ "${metrics}" kept)
if(NOT kept STREQUAL "keep me\n")
  message(FATAL_ERROR "the usage error overwrote ${metrics}")
endif()

execute_process(COMMAND "${UAVRES}" list --trace-out "${trace}" --metrics-out "${metrics}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
file(READ "${metrics}" written)
if(NOT rc EQUAL 0 OR NOT EXISTS "${trace}" OR written STREQUAL "keep me\n")
  message(FATAL_ERROR "list exited ${rc} without writing both files")
endif()

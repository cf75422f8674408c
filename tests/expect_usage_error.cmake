# Runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits 2 with an "error:" line on stderr within 5 seconds. An abort, a
# silent wrap that runs to exit 0, or a sweep that starts before the bad
# argument is noticed all fail the check.
#
#   cmake -DPROGRAM=./examples/quickstart "-DARGS=--fifos 256" \
#         -P tests/expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE status
  ERROR_VARIABLE err
  OUTPUT_QUIET
  TIMEOUT 5)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: expected exit 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "error:")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: no 'error:' on stderr\n${err}")
endif()

# Runs PROGRAM with the argument ARG and passes only when it exits with
# status STATUS and writes the line STDERR to standard error. A crash
# fails: execute_process reports it as a message, not a status.
#
#   cmake -DPROGRAM=... -DARG=... -DSTATUS=1 -DSTDERR=... -P expect_failure.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}" RESULT_VARIABLE Result
                OUTPUT_QUIET ERROR_VARIABLE Err)
if(NOT Result STREQUAL "${STATUS}")
  message(FATAL_ERROR "expected exit status ${STATUS}, got '${Result}':\n"
                      "${Err}")
endif()
string(FIND "\n${Err}" "\n${STDERR}\n" At)
if(At EQUAL -1)
  message(FATAL_ERROR "expected the line '${STDERR}' on standard error, "
                      "got:\n${Err}")
endif()

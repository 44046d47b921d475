# Runs BIN with ARGS (a |-separated list) and passes when it exits with
# status 2 and prints its usage line on stderr. ABSENT names a path the run
# would create had it started working: it must still not exist afterwards.
#
#   cmake -DBIN=<binary> -DARGS=<a|b|c> -DABSENT=<path> -P flag_usage_test.cmake
file(REMOVE_RECURSE "${ABSENT}")
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "exit status ${code}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "no usage line on stderr:\n${err}")
endif()
if(EXISTS "${ABSENT}")
  message(FATAL_ERROR "${ABSENT} was created before the flag was refused")
endif()

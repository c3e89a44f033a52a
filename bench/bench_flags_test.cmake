# Bench flag handling, the perfbench convention: --help prints the usage
# line to stdout and exits 0; an unknown flag prints it to stderr and exits 2.
execute_process(COMMAND ${BENCH} --help OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: ")
  message(FATAL_ERROR "${BENCH} --help: exit '${rc}' (want 0), output: ${out}")
endif()
execute_process(COMMAND ${BENCH} --bogus ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag: --bogus.*usage: ")
  message(FATAL_ERROR "${BENCH} --bogus: exit '${rc}' (want 2), stderr: ${err}")
endif()

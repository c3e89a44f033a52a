# End-to-end CLI smoke test: generate data (model_io writes digits.libsvm),
# train with svm_cli, predict, and require a sane accuracy line; then the
# --engine-flavor contract: predict accepts it, train refuses it.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${MODEL_IO} --dir ${WORK_DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "model_io failed: ${rc}")
endif()
execute_process(
  COMMAND ${SVM_CLI} train ${WORK_DIR}/digits.libsvm ${WORK_DIR}/cli.model
          --c 10 --sigma-sq 25 --ranks 2 --heuristic Multi5pc
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "svm_cli train failed: ${rc}")
endif()
execute_process(
  COMMAND ${SVM_CLI} predict ${WORK_DIR}/digits.libsvm ${WORK_DIR}/cli.model
          --out ${WORK_DIR}/predictions.txt
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "svm_cli predict failed: ${rc}")
endif()
if(NOT out MATCHES "accuracy = (9[0-9]|100)")
  message(FATAL_ERROR "unexpected predict output: ${out}")
endif()
# Baseline path must work too.
execute_process(
  COMMAND ${SVM_CLI} train ${WORK_DIR}/digits.libsvm ${WORK_DIR}/cli_baseline.model
          --c 10 --sigma-sq 25 --baseline
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "svm_cli --baseline train failed: ${rc}")
endif()
# Prediction on f32 support-vector panels must keep the accuracy line.
execute_process(
  COMMAND ${SVM_CLI} predict ${WORK_DIR}/digits.libsvm ${WORK_DIR}/cli.model
          --engine-flavor f32
  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "svm_cli predict --engine-flavor f32 failed: ${rc}")
endif()
if(NOT out MATCHES "accuracy = (9[0-9]|100)")
  message(FATAL_ERROR "unexpected predict --engine-flavor f32 output: ${out}")
endif()
# Training runs f64: train refuses --engine-flavor, with and without --baseline.
foreach(solver_flag IN ITEMS "" --baseline)
  execute_process(
    COMMAND ${SVM_CLI} train ${WORK_DIR}/digits.libsvm ${WORK_DIR}/cli_flavor.model
            --c 10 --sigma-sq 25 --engine-flavor f16 ${solver_flag}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(rc EQUAL 0 OR NOT err MATCHES "training runs f64")
    message(FATAL_ERROR
            "svm_cli train ${solver_flag} accepted --engine-flavor (rc=${rc}): ${err}")
  endif()
endforeach()

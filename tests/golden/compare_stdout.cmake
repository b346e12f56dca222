# Runs BENCH and requires its stdout to equal the GOLDEN file byte for
# byte. On a mismatch the output is kept as <golden name>.actual.txt in
# the working directory, ready to diff against the golden file.
#
#   cmake -DBENCH=<executable> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND "${BENCH}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(kept "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt")
  file(WRITE "${kept}" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "it is kept in ${kept}")
endif()

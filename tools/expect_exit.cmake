# Run a program and fail unless it exits with the expected code.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXPECT=<code> -P expect_exit.cmake
#
# ARGS is split like a Unix shell command line. The CTest entries that
# check a CLI's error exit (2 for a bad option value) run through this.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARGS}: exit ${code}, expected ${EXPECT}\n${err}")
endif()

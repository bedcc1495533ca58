# Smoke check of sablock_cli's run loop, driven by ctest (the cli_*
# entries in CMakeLists.txt). Every argument after this script's path is
# passed to the CLI.
#
#   cmake -DCLI=<sablock_cli> [-DEXPECT=<regex>] -P cli_smoke.cmake <args>
#       runs the CLI once; fails unless it exits 0 and, when EXPECT is
#       set, its stdout matches EXPECT.
#   cmake -DCLI=<sablock_cli> -DSPEC=<spec> -DWORK_DIR=<dir>
#         -P cli_smoke.cmake <args>
#       runs the CLI twice, with `--technique SPEC` and `--pipeline SPEC`,
#       each writing --blocks-out into WORK_DIR; fails unless both exit 0
#       and the two block files are byte-identical.

set(cli_args "")
set(after_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND cli_args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR script_index "${i} + 1")
  elseif(DEFINED script_index AND i EQUAL script_index)
    set(after_script TRUE)
  endif()
endforeach()

function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sablock_cli ${ARGN} exited ${rc}\n${out}${err}")
  endif()
  message("${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

if(DEFINED SPEC)
  set(technique_blocks "${WORK_DIR}/cli_smoke_technique_blocks.csv")
  set(pipeline_blocks "${WORK_DIR}/cli_smoke_pipeline_blocks.csv")
  run_cli(out ${cli_args} --technique "${SPEC}"
          "--blocks-out=${technique_blocks}")
  run_cli(out ${cli_args} --pipeline "${SPEC}"
          "--blocks-out=${pipeline_blocks}")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${technique_blocks}" "${pipeline_blocks}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "--technique and --pipeline blocks differ for "
                        "'${SPEC}'")
  endif()
else()
  run_cli(out ${cli_args})
  if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "sablock_cli output does not match '${EXPECT}'")
  endif()
endif()

# Checks the m3d_repro command line. Run as:
#   cmake -DREPRO=<m3d_repro> -DGOLDEN=<expected stdout> -P repro_test.cmake
#     table1, table3 and table6 print exactly GOLDEN.
#   cmake -DREPRO=<m3d_repro> -DLIST=1 -P repro_test.cmake
#     --list prints the 24 ids; an unknown id exits 2 and lists them.
if(LIST)
  execute_process(COMMAND "${REPRO}" --list
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX MATCHALL "(^|\n)[a-z0-9]+" ids "${out}")
  string(REPLACE "\n" "" ids "${ids}")
  set(want table1 table2 table3 table4 table5 table6 table7 table8 table9
      table11 table12 table13 table14 table15 table16 table17 s5 fig3 fig4
      fig6 fig10 fig11 gmi ablations)
  if(NOT rc EQUAL 0 OR NOT ids STREQUAL "${want}")
    message(FATAL_ERROR "--list (${rc}) printed ids ${ids}, want ${want}: ${err}")
  endif()
  execute_process(COMMAND "${REPRO}" table1 no_such_table
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "no_such_table.*\nablations ")
    message(FATAL_ERROR "unknown id: want exit 2 and the list, got ${rc}: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "ran experiments before rejecting an unknown id:\n${out}")
  endif()
  return()
endif()

execute_process(COMMAND "${REPRO}" table1 table3 table6
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(READ "${GOLDEN}" want)
if(NOT rc EQUAL 0 OR NOT out STREQUAL want)
  message(FATAL_ERROR "exit ${rc}; stdout differs from ${GOLDEN}:\n${out}${err}")
endif()

# Drives m3d_prof against a fresh nested --out-dir, then against one it
# cannot create. Run as:
#   cmake -DPROF=<m3d_prof> -DDIR=<scratch dir> -P m3d_prof_out_dir_test.cmake
file(REMOVE_RECURSE "${DIR}")

# 1. Missing parents are created before the flow runs; the trace lands there.
set(out "${DIR}/fresh/nested/profile")
execute_process(
  COMMAND "${PROF}" --bench DES --scale 5 --style 2D --out-dir "${out}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "m3d_prof failed (${rc}) on a fresh nested dir: ${err}")
endif()
if(NOT EXISTS "${out}/trace_DES_2D.json")
  message(FATAL_ERROR "no trace written under ${out}")
endif()

# 2. An --out-dir below a regular file cannot exist: refused up front with a
# clear message, before any flow output.
file(WRITE "${DIR}/blocker" "")
execute_process(
  COMMAND "${PROF}" --bench DES --scale 5 --style 2D
          --out-dir "${DIR}/blocker/sub"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out2 ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "cannot create --out-dir")
  message(FATAL_ERROR "expected an up-front refusal, got ${rc}: ${err}")
endif()
if(out2 MATCHES "==")
  message(FATAL_ERROR "m3d_prof ran the flow before refusing: ${out2}")
endif()
file(REMOVE_RECURSE "${DIR}")

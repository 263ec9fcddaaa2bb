# Dispatch-policy serve smoke: a skewed batch (one 1034-thermal-node
# synthetic sparse request placed LAST behind small Alpha requests,
# including one duplicated line) must produce byte-identical results
# across {1,4} worker threads x {fifo,ljf} x {dedup on,off} — the
# dispatch layer's hard invariant: placement and memoization may change
# when work runs, never what is written. Also checks that
# --summary-json emits the thermo.serve_summary.v2 record and that
# every request answers ok:true.
#
# Usage: cmake -DSERVE_BIN=<thermosched> -DWORK_DIR=<scratch dir>
#              -P RunLjfServeSmoke.cmake
if(NOT SERVE_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "SERVE_BIN and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests_skewed.jsonl")
set(reference "${WORK_DIR}/results_ljf_t1.jsonl")
set(summary "${WORK_DIR}/summary_ljf.json")

# 8 distinct small Alpha requests (steady oracle, varied corners), one
# duplicated line (slot 1 == slot 5: the memo must answer it without
# changing the bytes), and the sparse whale LAST — under ljf it must
# start first, under fifo last; either way the output order is fixed.
set(small_tail "\"tl\":155,\"stcl\":50,\"solver\":{\"transient\":false}}")
set(whale "{\"id\":\"whale\",\"soc\":{\"kind\":\"synthetic\",\"seed\":7,\"cores\":1024,\"test_length_min\":0.02,\"test_length_max\":0.02},\"tl\":400,\"stcl\":120,\"solver\":{\"transient\":false,\"backend\":\"sparse\"}}")
file(WRITE "${requests}"
  "{\"id\":\"s0\",\"soc\":{\"power_scale\":1.01},${small_tail}\n"
  "{\"id\":\"s1\",\"soc\":{\"power_scale\":1.02},${small_tail}\n"
  "{\"id\":\"s2\",\"soc\":{\"power_scale\":1.03},${small_tail}\n"
  "{\"id\":\"s3\",\"soc\":{\"power_scale\":1.04},${small_tail}\n"
  "{\"id\":\"s4\",\"soc\":{\"power_scale\":1.05},${small_tail}\n"
  "{\"id\":\"s1\",\"soc\":{\"power_scale\":1.02},${small_tail}\n"
  "{\"id\":\"s6\",\"soc\":{\"power_scale\":1.06},${small_tail}\n"
  "{\"id\":\"s7\",\"soc\":{\"power_scale\":1.07},${small_tail}\n"
  "${whale}\n")

# Reference: ljf on 1 thread, with the summary JSON.
execute_process(
  COMMAND "${SERVE_BIN}" serve --in "${requests}" --out "${reference}"
          --threads 1 --schedule-policy ljf --summary-json "${summary}"
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_rc)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "reference serve exited with ${serve_rc}\n${serve_err}")
endif()

# Every other configuration must reproduce the reference bytes. (Each
# quoted item is one ;-separated record — foreach over ITEMS keeps them
# intact where a LISTS variable would flatten.)
foreach(config
    "4;ljf;on;results_ljf_t4.jsonl"
    "4;fifo;on;results_fifo_t4.jsonl"
    "4;ljf;off;results_ljf_t4_nodedup.jsonl"
    "1;fifo;off;results_fifo_t1_nodedup.jsonl")
  list(GET config 0 threads)
  list(GET config 1 policy)
  list(GET config 2 dedup)
  list(GET config 3 outname)
  set(outfile "${WORK_DIR}/${outname}")
  execute_process(
    COMMAND "${SERVE_BIN}" serve --in "${requests}" --out "${outfile}"
            --threads ${threads} --schedule-policy ${policy} --dedup ${dedup}
    ERROR_VARIABLE serve_err
    RESULT_VARIABLE serve_rc)
  if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR
      "serve --threads ${threads} --schedule-policy ${policy} --dedup "
      "${dedup} exited with ${serve_rc}\n${serve_err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${reference}" "${outfile}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
      "serve output differs from the 1-thread ljf reference for "
      "--threads ${threads} --schedule-policy ${policy} --dedup ${dedup} "
      "(${reference} vs ${outfile}) — the dispatch layer lost determinism")
  endif()
endforeach()

file(READ "${reference}" results)
if(results STREQUAL "")
  message(FATAL_ERROR "ljf serve smoke produced an empty results file")
endif()
string(REGEX MATCHALL "\n" newlines "${results}")
list(LENGTH newlines line_count)
if(NOT line_count EQUAL 9)
  message(FATAL_ERROR "expected 9 result records, got ${line_count}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${results}")
list(LENGTH oks ok_count)
if(NOT ok_count EQUAL 9)
  message(FATAL_ERROR
    "expected 9 ok:true records, got ${ok_count}:\n${results}")
endif()

file(READ "${summary}" summary_text)
foreach(needle
    "\"schema\":\"thermo.serve_summary.v2\""
    "\"policy\":\"ljf\""
    "\"requests\":9"
    "\"memo\":"
    "\"request_timings\":")
  string(FIND "${summary_text}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "--summary-json payload is missing ${needle}:\n${summary_text}")
  endif()
endforeach()

message(STATUS
  "ljf serve smoke OK: 9-record skewed batch byte-identical across "
  "threads x policy x dedup; summary JSON present")

# Serve determinism smoke: generate a demo JSONL batch, run
# `thermosched serve` over it once with 1 thread and once with several,
# and require (a) every step exits 0, (b) the two results files are
# byte-identical, (c) one result line per request, (d) every record is
# ok:true (the demo batch holds only valid requests).
#
# Usage: cmake -DGEN_BIN=<make_requests> -DSERVE_BIN=<thermosched>
#              -DWORK_DIR=<scratch dir> [-DREQUEST_COUNT=120] -P RunServeSmoke.cmake
if(NOT GEN_BIN OR NOT SERVE_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "GEN_BIN, SERVE_BIN and WORK_DIR must be set")
endif()
if(NOT REQUEST_COUNT)
  set(REQUEST_COUNT 120)
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests.jsonl")
set(out1 "${WORK_DIR}/results_t1.jsonl")
set(outN "${WORK_DIR}/results_tN.jsonl")

execute_process(
  COMMAND "${GEN_BIN}" --count ${REQUEST_COUNT}
  OUTPUT_FILE "${requests}"
  ERROR_VARIABLE gen_err
  RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "make_requests exited with ${gen_rc}\n${gen_err}")
endif()

foreach(pair "1;${out1}" "4;${outN}")
  list(GET pair 0 threads)
  list(GET pair 1 outfile)
  execute_process(
    COMMAND "${SERVE_BIN}" serve --in "${requests}" --out "${outfile}"
            --threads ${threads}
    OUTPUT_VARIABLE serve_out
    ERROR_VARIABLE serve_err
    RESULT_VARIABLE serve_rc)
  if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR
      "serve --threads ${threads} exited with ${serve_rc}\n${serve_err}")
  endif()
endforeach()

file(READ "${out1}" results_1)
file(READ "${outN}" results_n)
if(results_1 STREQUAL "")
  message(FATAL_ERROR "serve produced an empty results file")
endif()
if(NOT results_1 STREQUAL results_n)
  message(FATAL_ERROR
    "serve output differs between --threads 1 and --threads 4 "
    "(${out1} vs ${outN}) — the batch front-end lost determinism")
endif()
string(REGEX MATCHALL "\n" newlines "${results_1}")
list(LENGTH newlines line_count)
if(NOT line_count EQUAL REQUEST_COUNT)
  message(FATAL_ERROR
    "expected ${REQUEST_COUNT} result records, got ${line_count}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${results_1}")
list(LENGTH oks ok_count)
if(NOT ok_count EQUAL REQUEST_COUNT)
  message(FATAL_ERROR
    "expected ${REQUEST_COUNT} ok:true records, got ${ok_count} (${out1})")
endif()
message(STATUS
  "serve smoke OK: ${REQUEST_COUNT} requests all ok, 1-vs-4-thread results "
  "identical")

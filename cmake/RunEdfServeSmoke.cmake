# SLO serve smoke: a seeded `thermosched gen --deadline-rate` stream is
# served end to end and must (a) report the exactly-predictable deadline
# scoreboard — the generator only draws the tight 1e-7 s deadline (every
# executed request misses it on any machine) and the generous 1e6 s one
# (never missed) — and (b) produce byte-identical results across
# {1,4} threads x {fifo,ljf}: placement may change when work runs,
# never what is written. Also checks the summary JSON carries the v2
# schema needle and the slo section, that the removed edf policy is a
# usage error (exit 2) whose message names fifo and ljf, and that the
# removed --calibrate flag is an unknown-flag usage error (exit 2).
#
# Usage: cmake -DSERVE_BIN=<thermosched> -DWORK_DIR=<scratch dir>
#              -P RunEdfServeSmoke.cmake
if(NOT SERVE_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "SERVE_BIN and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests_deadlined.jsonl")
set(reference "${WORK_DIR}/results_fifo_t1.jsonl")
set(summary "${WORK_DIR}/summary_fifo.json")

# Seeded stream: 24 requests, small sizes (zipf 1.6 keeps the ladder's
# whales away so the config sweep stays quick), half deadlined.
execute_process(
  COMMAND "${SERVE_BIN}" gen --count 24 --seed 19 --zipf 1.6
          --deadline-rate 0.5 --out "${requests}"
  ERROR_VARIABLE gen_err
  RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "gen exited with ${gen_rc}\n${gen_err}")
endif()

# The scoreboard is machine-independent: count the two pinned deadline
# values in the stream itself.
file(READ "${requests}" request_text)
string(REGEX MATCHALL "\"deadline_s\":1e-07" tights "${request_text}")
list(LENGTH tights tight_count)
string(REGEX MATCHALL "\"deadline_s\":1e\\+06" generouses "${request_text}")
list(LENGTH generouses generous_count)
if(tight_count EQUAL 0 OR generous_count EQUAL 0)
  message(FATAL_ERROR
    "seeded stream must carry both deadline values (tight=${tight_count} "
    "generous=${generous_count}):\n${request_text}")
endif()

# Reference: fifo on 1 thread, plus the summary JSON.
execute_process(
  COMMAND "${SERVE_BIN}" serve --in "${requests}" --out "${reference}"
          --threads 1 --schedule-policy fifo
          --summary-json "${summary}"
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_rc)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "reference serve exited with ${serve_rc}\n${serve_err}")
endif()

# Every other configuration must reproduce the reference bytes. (Each
# quoted item is one ;-separated record — foreach over ITEMS keeps them
# intact where a LISTS variable would flatten.)
foreach(config
    "4;fifo;results_fifo_t4.jsonl"
    "1;ljf;results_ljf_t1.jsonl"
    "4;ljf;results_ljf_t4.jsonl")
  list(GET config 0 threads)
  list(GET config 1 policy)
  list(GET config 2 outname)
  set(outfile "${WORK_DIR}/${outname}")
  execute_process(
    COMMAND "${SERVE_BIN}" serve --in "${requests}" --out "${outfile}"
            --threads ${threads} --schedule-policy ${policy}
    ERROR_VARIABLE serve_err
    RESULT_VARIABLE serve_rc)
  if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR
      "serve --threads ${threads} --schedule-policy ${policy} exited with "
      "${serve_rc}\n${serve_err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${reference}" "${outfile}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
      "serve output differs from the 1-thread fifo reference for "
      "--threads ${threads} --schedule-policy ${policy} (${reference} vs "
      "${outfile}) — the dispatch layer lost determinism")
  endif()
endforeach()

file(READ "${reference}" results)
string(REGEX MATCHALL "\"ok\":true" oks "${results}")
list(LENGTH oks ok_count)
if(NOT ok_count EQUAL 24)
  message(FATAL_ERROR
    "expected 24 ok:true records, got ${ok_count}:\n${results}")
endif()

# Summary: v2 schema, and the slo scoreboard is exactly the pinned
# counts.
file(READ "${summary}" summary_text)
math(EXPR deadlined "${tight_count} + ${generous_count}")
foreach(needle
    "\"schema\":\"thermo.serve_summary.v2\""
    "\"policy\":\"fifo\""
    "\"slo\":{\"deadline_requests\":${deadlined},\"met\":${generous_count},\"missed\":${tight_count}}"
    "\"request_timings\":")
  string(FIND "${summary_text}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "--summary-json payload is missing ${needle}:\n${summary_text}")
  endif()
endforeach()

# The deadline-ordering policies are gone: edf must be rejected as a
# usage error that names the two policies left.
execute_process(
  COMMAND "${SERVE_BIN}" serve --in "${requests}"
          --out "${WORK_DIR}/results_rejected.jsonl" --schedule-policy edf
  OUTPUT_VARIABLE edf_out
  ERROR_VARIABLE edf_err
  RESULT_VARIABLE edf_rc)
if(NOT edf_rc EQUAL 2)
  message(FATAL_ERROR
    "--schedule-policy edf must exit 2, got ${edf_rc}\n${edf_out}${edf_err}")
endif()
foreach(name "'fifo'" "'ljf'")
  string(FIND "${edf_err}" "${name}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "--schedule-policy edf error must name ${name}:\n${edf_err}")
  endif()
endforeach()

# The self-calibrating cost model is gone: --calibrate must be rejected
# as an unknown flag (exit 2), not silently accepted.
execute_process(
  COMMAND "${SERVE_BIN}" serve --in "${requests}"
          --out "${WORK_DIR}/results_rejected.jsonl" --calibrate on
  OUTPUT_VARIABLE calibrate_out
  ERROR_VARIABLE calibrate_err
  RESULT_VARIABLE calibrate_rc)
if(NOT calibrate_rc EQUAL 2)
  message(FATAL_ERROR
    "--calibrate on must exit 2, got ${calibrate_rc}\n"
    "${calibrate_out}${calibrate_err}")
endif()
string(FIND "${calibrate_err}" "unknown option --calibrate" found)
if(found EQUAL -1)
  message(FATAL_ERROR
    "--calibrate error must be the unknown-flag usage error:\n"
    "${calibrate_err}")
endif()

message(STATUS
  "SLO serve smoke OK: 24-request deadlined stream byte-identical across "
  "threads x policy; missed exactly the ${tight_count} tight deadlines; "
  "edf and --calibrate rejected with exit 2")

# Generator -> serve pipeline smoke: `thermosched gen` must be
# deterministic (two runs with the same flags produce byte-identical
# request files), the generated stream must contain all three request
# kinds, and serving it must produce byte-identical results across
# {1,4} worker threads x {fifo,ljf} x {dedup on,off} with every record
# ok:true — the end-to-end version of what tests/gen_test.cpp and
# tests/scenario_slo_test.cpp (ServeGen.*) pin at the library level.
#
# Usage: cmake -DSCHED_BIN=<thermosched> -DWORK_DIR=<scratch dir>
#              -P RunGenServeSmoke.cmake
if(NOT SCHED_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "SCHED_BIN and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests "${WORK_DIR}/requests_gen.jsonl")
set(requests_again "${WORK_DIR}/requests_gen_again.jsonl")
set(reference "${WORK_DIR}/results_gen_t1.jsonl")
set(count 150)

# A small but adversarial stream: duplicates for the memo, whale-last
# arrival for the placer, the default kind mix for coverage.
set(gen_flags --count ${count} --seed 5 --dup 0.25 --order whale-last)
foreach(outfile "${requests}" "${requests_again}")
  execute_process(
    COMMAND "${SCHED_BIN}" gen ${gen_flags} --out "${outfile}"
    ERROR_VARIABLE gen_err
    RESULT_VARIABLE gen_rc)
  if(NOT gen_rc EQUAL 0)
    message(FATAL_ERROR "thermosched gen exited with ${gen_rc}\n${gen_err}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${requests}" "${requests_again}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "two `thermosched gen` runs with identical flags produced different "
    "bytes (${requests} vs ${requests_again}) — the generator lost its "
    "determinism contract")
endif()

# The stream must actually exercise the full request surface.
file(READ "${requests}" request_text)
foreach(needle
    "\"kind\":\"stcl_sweep\""
    "\"kind\":\"ptrace\""
    "\"kind\":\"chained\"")
  string(FIND "${request_text}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
      "generated stream is missing ${needle} requests:\n${requests}")
  endif()
endforeach()

# Reference: fifo on 1 thread, dedup on.
execute_process(
  COMMAND "${SCHED_BIN}" serve --in "${requests}" --out "${reference}"
          --threads 1
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_rc)
if(NOT serve_rc EQUAL 0)
  message(FATAL_ERROR "reference serve exited with ${serve_rc}\n${serve_err}")
endif()

# Every other configuration must reproduce the reference bytes. (Each
# quoted item is one ;-separated record — foreach over ITEMS keeps them
# intact where a LISTS variable would flatten.)
foreach(config
    "4;fifo;on;results_gen_fifo_t4.jsonl"
    "4;ljf;on;results_gen_ljf_t4.jsonl"
    "1;ljf;off;results_gen_ljf_t1_nodedup.jsonl"
    "4;fifo;off;results_gen_fifo_t4_nodedup.jsonl")
  list(GET config 0 threads)
  list(GET config 1 policy)
  list(GET config 2 dedup)
  list(GET config 3 outname)
  set(outfile "${WORK_DIR}/${outname}")
  execute_process(
    COMMAND "${SCHED_BIN}" serve --in "${requests}" --out "${outfile}"
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
      "serve output differs from the 1-thread fifo reference for "
      "--threads ${threads} --schedule-policy ${policy} --dedup ${dedup} "
      "(${reference} vs ${outfile}) on the generated stream")
  endif()
endforeach()

file(READ "${reference}" results)
string(REGEX MATCHALL "\n" newlines "${results}")
list(LENGTH newlines line_count)
if(NOT line_count EQUAL ${count})
  message(FATAL_ERROR
    "expected ${count} result records, got ${line_count}")
endif()
string(REGEX MATCHALL "\"ok\":true" oks "${results}")
list(LENGTH oks ok_count)
if(NOT ok_count EQUAL ${count})
  message(FATAL_ERROR
    "expected ${count} ok:true records, got ${ok_count}")
endif()

message(STATUS
  "gen serve smoke OK: ${count}-request generated stream deterministic, "
  "all kinds present, byte-identical across threads x policy x dedup")

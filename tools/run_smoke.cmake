# Drives motifsh with smoke_script.txt and checks the Figure 5 pipeline
# computes 24 without deadlock, that the tracing loop (:trace on ->
# :run -> :trace dump) produces a per-node summary and a Chrome JSON, and
# that a 2-rank loopback cluster answers :netrun with the sequential
# oracle's value and live net counters.
execute_process(COMMAND ${SHELL} --loopback 2
                INPUT_FILE ${SCRIPT}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "motifsh exited with ${rc}\n${out}\n${err}")
endif()
string(FIND "${out}" ",24))" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "expected Value=24 in output:\n${out}")
endif()
string(FIND "${out}" "DEADLOCK" dpos)
if(NOT dpos EQUAL -1)
  message(FATAL_ERROR "pipeline deadlocked:\n${out}")
endif()
string(FIND "${out}" "lint: clean" lpos)
if(lpos EQUAL -1)
  message(FATAL_ERROR "transformed pipeline should lint clean:\n${out}")
endif()
string(FIND "${out}" "reduce/3" rpos)
if(rpos EQUAL -1)
  message(FATAL_ERROR "profile should show reduce/3 commits:\n${out}")
endif()
# :stats surfaces the scheduler-substrate and fault counters of the last
# run.
string(FIND "${out}" "mailbox_fast_hits=" spos)
if(spos EQUAL -1)
  message(FATAL_ERROR ":stats should print scheduler counters:\n${out}")
endif()
string(FIND "${out}" "faults: drops=" fpos)
if(fpos EQUAL -1)
  message(FATAL_ERROR ":stats should print fault counters:\n${out}")
endif()
# :netrun across the 2-rank loopback cluster matches the oracle, and
# :stats adds the net: counter line while the cluster is up.
string(FIND "${out}" "result match: yes" mpos)
if(mpos EQUAL -1)
  message(FATAL_ERROR ":netrun should match the sequential oracle:\n${out}")
endif()
string(FIND "${out}" "net: tx_frames=" netpos)
if(netpos EQUAL -1)
  message(FATAL_ERROR ":stats should print net counters:\n${out}")
endif()
# Built with MOTIF_TRACING=OFF the :trace commands report unavailability
# (and write no file); that is the correct behaviour for that build.
string(FIND "${out}" "tracing unavailable" offpos)
if(NOT offpos EQUAL -1)
  return()
endif()
# :trace dump (no file) prints the per-node text summary.
string(FIND "${out}" "node 0: events=" tpos)
if(tpos EQUAL -1)
  message(FATAL_ERROR "trace dump should print per-node summaries:\n${out}")
endif()
# :trace dump FILE writes Chrome trace-event JSON (into the test cwd).
string(FIND "${out}" "events to smoke_trace.json" wpos)
if(wpos EQUAL -1)
  message(FATAL_ERROR "trace dump FILE should report the write:\n${out}")
endif()
file(READ smoke_trace.json trace_json)
string(FIND "${trace_json}" "\"traceEvents\"" jpos)
if(jpos EQUAL -1)
  message(FATAL_ERROR "smoke_trace.json is not a Chrome trace:\n${trace_json}")
endif()
string(FIND "${trace_json}" "\"thread_name\"" npos)
if(npos EQUAL -1)
  message(FATAL_ERROR "smoke_trace.json has no node tracks:\n${trace_json}")
endif()
file(REMOVE smoke_trace.json)

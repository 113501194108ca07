#include "runtime/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <ostream>
#include <string>

namespace motif::rt {

namespace {

/// Chrome's trace-event timestamps are microseconds; keep sub-us
/// resolution with three decimals.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      default:
        if (c < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[c >> 4] << hex[c & 0xF];
        } else {
          os << static_cast<char>(c);
        }
    }
  }
  os << '"';
}

struct EventWriter {
  std::ostream& os;
  bool first = true;

  void open(const char* name, const char* cat, char ph, std::size_t tid,
            std::uint64_t ts_ns) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":";
    write_json_string(os, name);
    os << ",\"cat\":\"" << cat << "\",\"ph\":\"" << ph
       << "\",\"pid\":0,\"tid\":" << tid << ",\"ts\":";
    write_us(os, ts_ns);
  }
  void close() { os << '}'; }
};

}  // namespace

void write_chrome_trace(const TraceLog& log, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  EventWriter w{os};

  // Track naming + per-track dropped-event metadata.
  if (!w.first) os << ",\n";
  w.first = false;
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"motif machine\"}}";
  for (std::size_t tid = 0; tid < log.tracks.size(); ++tid) {
    const TraceTrack& t = log.tracks[tid];
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << tid << ",\"args\":{\"name\":";
    write_json_string(os, t.name.c_str());
    os << ",\"dropped_events\":" << t.dropped << "}}";
  }

  for (std::size_t tid = 0; tid < log.tracks.size(); ++tid) {
    for (const TraceEvent& e : log.tracks[tid].events) {
      switch (e.kind) {
        case TraceEventKind::TaskBegin:
          w.open("task", "task", 'B', tid, e.ts_ns);
          w.close();
          break;
        case TraceEventKind::TaskEnd:
          w.open("task", "task", 'E', tid, e.ts_ns);
          os << ",\"args\":{\"work\":" << e.id << '}';
          w.close();
          break;
        case TraceEventKind::EvalBegin:
          w.open("eval", "eval", 'B', tid, e.ts_ns);
          w.close();
          break;
        case TraceEventKind::EvalEnd:
          w.open("eval", "eval", 'E', tid, e.ts_ns);
          w.close();
          break;
        case TraceEventKind::SpanBegin:
          w.open(e.name, "span", 'B', tid, e.ts_ns);
          w.close();
          break;
        case TraceEventKind::SpanEnd:
          w.open(e.name, "span", 'E', tid, e.ts_ns);
          w.close();
          break;
        case TraceEventKind::MsgSend:
          w.open("msg", "msg", 's', tid, e.ts_ns);
          os << ",\"id\":" << e.id << ",\"args\":{\"to\":" << e.peer
             << ",\"hops\":" << e.hops << '}';
          w.close();
          break;
        case TraceEventKind::MsgRecv:
          w.open("msg", "msg", 'f', tid, e.ts_ns);
          os << ",\"bp\":\"e\",\"id\":" << e.id
             << ",\"args\":{\"from\":" << e.peer << ",\"hops\":" << e.hops
             << '}';
          w.close();
          break;
        case TraceEventKind::Fault:
          // Instant event: an injected fault (drop/dup/delay/kill/throw)
          // pinned to the node that decided it.
          w.open(e.name, "fault", 'i', tid, e.ts_ns);
          os << ",\"s\":\"t\",\"args\":{\"peer\":" << e.peer
             << ",\"ordinal\":" << e.id << '}';
          w.close();
          break;
      }
    }
  }
  os << "\n]}\n";
}

std::uint64_t max_concurrent(const TraceTrack& track, TraceEventKind begin,
                             TraceEventKind end) {
  std::uint64_t depth = 0, peak = 0;
  for (const TraceEvent& e : track.events) {
    if (e.kind == begin) {
      peak = std::max(peak, ++depth);
    } else if (e.kind == end && depth > 0) {
      // depth==0 means the matching begin fell off a full ring.
      --depth;
    }
  }
  return peak;
}

void write_text_summary(const TraceLog& log, std::ostream& os) {
  for (std::size_t tid = 0; tid < log.tracks.size(); ++tid) {
    const TraceTrack& t = log.tracks[tid];
    std::uint64_t tasks = 0, sent = 0, recvd = 0, work = 0, hops = 0;
    std::map<std::string, std::uint64_t> spans;
    std::map<std::string, std::uint64_t> faults;
    for (const TraceEvent& e : t.events) {
      switch (e.kind) {
        case TraceEventKind::TaskBegin:
          ++tasks;
          break;
        case TraceEventKind::TaskEnd:
          work += e.id;
          break;
        case TraceEventKind::MsgSend:
          ++sent;
          hops += e.hops;
          break;
        case TraceEventKind::MsgRecv:
          ++recvd;
          break;
        case TraceEventKind::SpanBegin:
          ++spans[e.name];
          break;
        case TraceEventKind::Fault:
          ++faults[e.name];
          break;
        default:
          break;
      }
    }
    os << t.name << ": events=" << t.events.size()
       << " dropped=" << t.dropped << " tasks=" << tasks << " work=" << work
       << " sent=" << sent << " recv=" << recvd << " hops=" << hops
       << " max_concurrent_evals="
       << max_concurrent(t, TraceEventKind::EvalBegin,
                         TraceEventKind::EvalEnd)
       << "\n";
    for (const auto& [name, n] : spans) {
      os << "  span " << name << ": " << n << "\n";
    }
    for (const auto& [name, n] : faults) {
      os << "  fault " << name << ": " << n << "\n";
    }
  }
}

}  // namespace motif::rt

// Tracer tests: per-node event ordering, send/receive matching across
// nodes, ring-buffer overflow (drop-oldest + dropped counter surfaced in
// the exports), Chrome-trace JSON well-formedness (one track per node),
// and the paper's headline observable — Tree-Reduce-2 shows at most one
// concurrent evaluation span per node track.
#include "runtime/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "motifs/tree.hpp"
#include "motifs/tree_reduce.hpp"
#include "runtime/machine.hpp"

namespace rt = motif::rt;
using rt::TraceEventKind;

namespace {

std::vector<rt::TraceEvent> of_kind(const rt::TraceTrack& t,
                                    TraceEventKind k) {
  std::vector<rt::TraceEvent> out;
  for (const auto& e : t.events) {
    if (e.kind == k) out.push_back(e);
  }
  return out;
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, DropsOldestAndCounts) {
  rt::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rt::TraceEvent e;
    e.id = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.dropped(), 6u);
  auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, oldest first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].id, 6 + i);
  // drain() clears.
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.drain().empty());
}

TEST(TraceEventRecord, NameTruncatesSafely) {
  rt::TraceEvent e;
  const std::string long_name =
      "a.very.long.span.name.that.exceeds.the.inline.budget";
  e.set_name(long_name.c_str());
  EXPECT_EQ(std::string(e.name),
            long_name.substr(0, rt::TraceEvent::kNameBytes - 1));
  e.set_name("short");  // a shorter name ends at its own length
  EXPECT_EQ(std::string(e.name), "short");
  e.set_name(nullptr);
  EXPECT_EQ(std::string(e.name), "");
}

// ---- Tracer / Machine integration -----------------------------------------

TEST(MachineTrace, InactiveByDefaultAndToggleable) {
  rt::Machine m({.nodes = 2, .workers = 2});
  EXPECT_FALSE(m.tracing());
  m.post(0, [] {});
  m.wait_idle();
  EXPECT_TRUE(m.drain_trace().empty());

  m.start_trace();
  EXPECT_EQ(m.tracing(), rt::Machine::trace_compiled);
  m.post(0, [] {});
  m.wait_idle();
  m.stop_trace();
  // Events recorded while active survive until drained...
  auto log = m.drain_trace();
  if (rt::Machine::trace_compiled) {
    EXPECT_EQ(log.tracks.size(), 2u);
    EXPECT_FALSE(log.empty());
  }
  // ...and nothing is recorded while stopped.
  m.post(0, [] {});
  m.wait_idle();
  EXPECT_TRUE(m.drain_trace().empty());
}

#if MOTIF_TRACING

TEST(MachineTrace, PerNodeOrderingAndTaskPairs) {
  rt::Machine m({.nodes = 1, .workers = 1});
  m.start_trace();
  for (int i = 0; i < 5; ++i) {
    m.post(0, [&m] { m.add_work(3); });
  }
  m.wait_idle();
  auto log = m.drain_trace();
  ASSERT_EQ(log.tracks.size(), 1u);
  const auto& t = log.tracks[0];
  EXPECT_EQ(t.name, "node 0");
  EXPECT_EQ(t.dropped, 0u);

  // Timestamps never go backwards within a track.
  for (std::size_t i = 1; i < t.events.size(); ++i) {
    EXPECT_GE(t.events[i].ts_ns, t.events[i - 1].ts_ns);
  }
  // Tasks are strictly alternating begin/end on a sequential node.
  int depth = 0;
  for (const auto& e : t.events) {
    if (e.kind == TraceEventKind::TaskBegin) {
      EXPECT_EQ(depth, 0);
      ++depth;
    } else if (e.kind == TraceEventKind::TaskEnd) {
      EXPECT_EQ(depth, 1);
      --depth;
      EXPECT_EQ(e.id, 3u);  // virtual-work units recorded on the span end
    }
  }
  EXPECT_EQ(of_kind(t, TraceEventKind::TaskBegin).size(), 5u);
  EXPECT_EQ(of_kind(t, TraceEventKind::TaskEnd).size(), 5u);
}

TEST(MachineTrace, SendReceiveIdsMatchAcrossNodes) {
  rt::Machine m({.nodes = 4, .workers = 2, .topology = rt::Topology::Ring});
  m.start_trace();
  // node 0 -> node 2 is 2 hops on a 4-ring.
  m.post(0, [&m] { m.post(2, [] {}); });
  m.wait_idle();
  auto log = m.drain_trace();
  ASSERT_EQ(log.tracks.size(), 4u);

  auto sends = of_kind(log.tracks[0], TraceEventKind::MsgSend);
  auto recvs = of_kind(log.tracks[2], TraceEventKind::MsgRecv);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_NE(sends[0].id, 0u);
  EXPECT_EQ(sends[0].id, recvs[0].id);   // the matched pair
  EXPECT_EQ(sends[0].peer, 2u);          // send names its destination
  EXPECT_EQ(recvs[0].peer, 0u);          // receive names its source
  EXPECT_EQ(sends[0].hops, 2u);
  EXPECT_EQ(recvs[0].hops, 2u);
  EXPECT_GE(recvs[0].ts_ns, sends[0].ts_ns);
  // Local posts produce no message events.
  EXPECT_TRUE(of_kind(log.tracks[0], TraceEventKind::MsgRecv).empty());
}

TEST(MachineTrace, OverflowDropsOldestAndReportsCounter) {
  rt::Machine m({.nodes = 1, .workers = 1, .trace_capacity = 8});
  m.start_trace();
  for (int i = 0; i < 50; ++i) m.post(0, [] {});
  m.wait_idle();
  auto log = m.drain_trace();
  const auto& t = log.tracks[0];
  EXPECT_EQ(t.events.size(), 8u);
  // 50 tasks * 2 events, capacity 8 -> 92 drops.
  EXPECT_EQ(t.dropped, 92u);
  // The retained window is the newest events: it ends with a TaskEnd.
  EXPECT_EQ(t.events.back().kind, TraceEventKind::TaskEnd);

  // Both exporters surface the dropped count.
  std::ostringstream text;
  rt::write_text_summary(log, text);
  EXPECT_NE(text.str().find("dropped=92"), std::string::npos);
  std::ostringstream chrome;
  rt::write_chrome_trace(log, chrome);
  EXPECT_NE(chrome.str().find("\"dropped_events\":92"), std::string::npos);
}

TEST(MachineTrace, SpansAndEvalsLandOnTheRunningNodeTrack) {
  rt::Machine m({.nodes = 2, .workers = 2});
  m.start_trace();
  m.post(1, [] {
    rt::EvalScope scope;
    TRACE_SPAN("test.span");
  });
  m.wait_idle();
  auto log = m.drain_trace();
  const auto& t1 = log.tracks[1];
  ASSERT_EQ(of_kind(t1, TraceEventKind::SpanBegin).size(), 1u);
  EXPECT_EQ(std::string(of_kind(t1, TraceEventKind::SpanBegin)[0].name),
            "test.span");
  EXPECT_EQ(of_kind(t1, TraceEventKind::SpanEnd).size(), 1u);
  EXPECT_EQ(of_kind(t1, TraceEventKind::EvalBegin).size(), 1u);
  EXPECT_EQ(of_kind(t1, TraceEventKind::EvalEnd).size(), 1u);
  // Nothing leaked onto the idle node's track.
  EXPECT_TRUE(of_kind(log.tracks[0], TraceEventKind::SpanBegin).empty());
}

TEST(MachineTrace, SpanOutsideMachineIsANoOp) {
  // Unbound thread: must not crash, must record nothing anywhere.
  TRACE_SPAN("off.machine");
  rt::EvalScope scope;
  SUCCEED();
}

// ---- the paper's observable -----------------------------------------------

long traced_add(const char&, const long& a, const long& b) {
  for (int i = 0; i < 2000; ++i) asm volatile("");
  return a + b;
}

TEST(MachineTrace, TreeReduce2BoundsEvalConcurrencyPerNode) {
  auto tree = motif::balanced_tree<long, char>(
      256, [](std::size_t) { return 1L; }, '+');
  rt::Machine m({.nodes = 4, .workers = 4, .seed = 7});
  m.start_trace();
  long v = motif::tree_reduce2<long, char>(m, tree, traced_add);
  EXPECT_EQ(v, 256);
  auto log = m.drain_trace();
  ASSERT_EQ(log.tracks.size(), 4u);
  bool combined = false;
  for (const auto& t : log.tracks) {
    // Section 3.5: at each processor only a single node evaluation is
    // active at any given time — visible directly on the timeline.
    EXPECT_LE(rt::max_concurrent(t, TraceEventKind::EvalBegin,
                                 TraceEventKind::EvalEnd),
              1u)
        << "track " << t.name;
    for (const auto& e : of_kind(t, TraceEventKind::SpanBegin)) {
      if (std::string(e.name) == "tree_reduce2.combine") combined = true;
    }
  }
  EXPECT_TRUE(combined) << "motif spans missing from the trace";
}

TEST(MachineTrace, TreeReduce1EmitsItsEvalSpans) {
  auto tree = motif::balanced_tree<long, char>(
      64, [](std::size_t) { return 1L; }, '+');
  rt::Machine m({.nodes = 4, .workers = 2, .seed = 7});
  m.start_trace();
  long v = motif::tree_reduce1<long, char>(m, tree, traced_add);
  EXPECT_EQ(v, 64);
  auto log = m.drain_trace();
  std::size_t evals = 0;
  for (const auto& t : log.tracks) {
    for (const auto& e : of_kind(t, TraceEventKind::SpanBegin)) {
      if (std::string(e.name) == "tree_reduce1.eval") ++evals;
    }
  }
  EXPECT_EQ(evals, 63u);  // one per interior node
}

// ---- Chrome-trace export ---------------------------------------------------
//
// A minimal JSON reader — enough to prove the export parses and to walk
// the traceEvents array. Throws on malformed input.

struct Json {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj } kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& k) const { return obj.at(k); }
  bool has(const std::string& k) const { return obj.count(k) != 0; }
};

struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  char peek() {
    ws();
    if (i >= s.size()) throw std::runtime_error("eof");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected ") + c + " at " +
                               std::to_string(i));
    }
    ++i;
  }
  Json parse() {
    const char c = peek();
    Json j;
    if (c == '{') {
      expect('{');
      j.kind = Json::Kind::Obj;
      if (peek() == '}') {
        expect('}');
        return j;
      }
      for (;;) {
        Json key = parse();
        expect(':');
        j.obj[key.str] = parse();
        if (peek() == ',') {
          expect(',');
        } else {
          expect('}');
          return j;
        }
      }
    }
    if (c == '[') {
      expect('[');
      j.kind = Json::Kind::Arr;
      if (peek() == ']') {
        expect(']');
        return j;
      }
      for (;;) {
        j.arr.push_back(parse());
        if (peek() == ',') {
          expect(',');
        } else {
          expect(']');
          return j;
        }
      }
    }
    if (c == '"') {
      ++i;
      j.kind = Json::Kind::Str;
      while (s.at(i) != '"') {
        if (s[i] == '\\') {
          ++i;
          switch (s.at(i)) {
            case 'u':
              i += 4;
              j.str += '?';
              break;
            case 'n':
              j.str += '\n';
              break;
            case 't':
              j.str += '\t';
              break;
            default:
              j.str += s[i];
          }
          ++i;
        } else {
          j.str += s[i++];
        }
      }
      ++i;
      return j;
    }
    if (c == 't' || c == 'f') {
      j.kind = Json::Kind::Bool;
      j.b = c == 't';
      i += j.b ? 4 : 5;
      return j;
    }
    if (c == 'n') {
      i += 4;
      return j;
    }
    std::size_t end = i;
    while (end < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[end])) ||
            s[end] == '-' || s[end] == '+' || s[end] == '.' ||
            s[end] == 'e' || s[end] == 'E')) {
      ++end;
    }
    j.kind = Json::Kind::Num;
    j.num = std::stod(s.substr(i, end - i));
    i = end;
    return j;
  }
};

TEST(ChromeTrace, ParsesWithOneTrackPerNodeAndFlowPairs) {
  auto tree = motif::balanced_tree<long, char>(
      128, [](std::size_t) { return 1L; }, '+');
  rt::Machine m({.nodes = 3, .workers = 2, .seed = 11});
  m.start_trace();
  (void)motif::tree_reduce2<long, char>(m, tree, traced_add);
  auto log = m.drain_trace();

  std::ostringstream os;
  rt::write_chrome_trace(log, os);
  const std::string text = os.str();

  JsonParser p{text};
  Json root = p.parse();
  p.ws();
  EXPECT_EQ(p.i, text.size()) << "trailing garbage after JSON document";

  ASSERT_EQ(root.kind, Json::Kind::Obj);
  ASSERT_TRUE(root.has("traceEvents"));
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::Arr);
  ASSERT_FALSE(events.arr.empty());

  // Exactly one thread_name metadata record per node, with distinct tids
  // 0..nodes-1 — "one track per virtual node".
  std::set<double> named_tids;
  std::map<double, std::size_t> sends, recvs;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.kind, Json::Kind::Obj);
    const std::string ph = e.at("ph").str;
    if (ph == "M" && e.at("name").str == "thread_name") {
      EXPECT_TRUE(named_tids.insert(e.at("tid").num).second);
      EXPECT_EQ(e.at("args").at("name").str.rfind("node ", 0), 0u);
    } else if (ph == "s") {
      ++sends[e.at("id").num];
    } else if (ph == "f") {
      ++recvs[e.at("id").num];
    } else if (ph == "B" || ph == "E") {
      EXPECT_TRUE(e.has("ts"));
      EXPECT_GE(e.at("tid").num, 0.0);
      EXPECT_LT(e.at("tid").num, 3.0);
    }
  }
  EXPECT_EQ(named_tids.size(), 3u);
  // Every send flows to exactly one receive with the same id (nothing
  // dropped at this capacity).
  ASSERT_FALSE(sends.empty());
  for (const auto& [id, n] : sends) {
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(recvs[id], 1u) << "unmatched flow id " << id;
  }
}

#endif  // MOTIF_TRACING

// ---- standalone Tracer (pipeline-style use) --------------------------------

TEST(Tracer, StandaloneTracksAndRestart) {
  rt::Tracer tracer({.track_capacity = 16});
  const auto a = tracer.add_track("alpha");
  const auto b = tracer.add_track("beta");
  EXPECT_EQ(tracer.track_count(), 2u);

  tracer.emit(a, TraceEventKind::SpanBegin, "ignored.before.start");
  tracer.start();
  tracer.emit(a, TraceEventKind::SpanBegin, "work");
  tracer.emit(b, TraceEventKind::SpanBegin, "other");
  tracer.emit(a, TraceEventKind::SpanEnd, "work");

  auto log = tracer.drain();
  ASSERT_EQ(log.tracks.size(), 2u);
  EXPECT_EQ(log.tracks[0].name, "alpha");
  EXPECT_EQ(log.tracks[0].events.size(), 2u);
  EXPECT_EQ(log.tracks[1].events.size(), 1u);
  EXPECT_EQ(log.total_events(), 3u);

  // start() after drain() records a fresh run on the same tracks.
  tracer.start();
  tracer.emit(b, TraceEventKind::SpanBegin, "again");
  auto log2 = tracer.drain();
  EXPECT_EQ(log2.tracks[0].events.size(), 0u);
  EXPECT_EQ(log2.tracks[1].events.size(), 1u);
}

TEST(TextSummary, ReportsPerTrackHistogram) {
  rt::Tracer tracer({.track_capacity = 32});
  const auto a = tracer.add_track("node 0");
  tracer.start();
  tracer.emit(a, TraceEventKind::TaskBegin);
  tracer.emit(a, TraceEventKind::EvalBegin);
  tracer.emit(a, TraceEventKind::SpanBegin, "motif.step");
  tracer.emit(a, TraceEventKind::SpanEnd, "motif.step");
  tracer.emit(a, TraceEventKind::EvalEnd);
  tracer.emit(a, TraceEventKind::MsgSend, nullptr, 1, 1, 2);
  tracer.emit(a, TraceEventKind::TaskEnd, nullptr, 42);
  std::ostringstream os;
  rt::write_text_summary(tracer.drain(), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("node 0: events=7"), std::string::npos);
  EXPECT_NE(out.find("tasks=1"), std::string::npos);
  EXPECT_NE(out.find("work=42"), std::string::npos);
  EXPECT_NE(out.find("sent=1"), std::string::npos);
  EXPECT_NE(out.find("hops=2"), std::string::npos);
  EXPECT_NE(out.find("max_concurrent_evals=1"), std::string::npos);
  EXPECT_NE(out.find("span motif.step: 1"), std::string::npos);
}

TEST(MaxConcurrent, ToleratesTruncatedLogs) {
  rt::TraceTrack t;
  rt::TraceEvent end;
  end.kind = TraceEventKind::EvalEnd;
  rt::TraceEvent begin;
  begin.kind = TraceEventKind::EvalBegin;
  // An end whose begin fell off the ring, then two nested begins.
  t.events = {end, begin, begin, end, end};
  EXPECT_EQ(rt::max_concurrent(t, TraceEventKind::EvalBegin,
                               TraceEventKind::EvalEnd),
            2u);
}

}  // namespace

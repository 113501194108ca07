// motifsh — an exploratory shell for the motif system.
//
// The paper's closing argument (Section 4) is that motifs "encourage
// programmers to experiment with the use of alternative motifs in a
// single application" — an exploratory programming style. This shell is
// that loop: load an application, apply motifs by name, inspect the
// transformed program at any stage, and run queries on the simulated
// multicomputer.
//
//   $ ./build/tools/motifsh
//   motif> :load my_eval.str          load clauses from a file
//   motif> :apply tree1               link the Tree1 library
//   motif> :apply rand                rewrite @random, generate server/1
//   motif> :apply server              thread DT, link the server library
//   motif> :list                      show the current program
//   motif> :nodes 8                   set the machine size
//   motif> :run create(8, run(tree('+',leaf(1),leaf(2)),V))
//   motif> :profile                   reductions by definition (last run)
//   motif> :stats                     scheduler, load and fault counters
//   motif> :trace on                  record timelines for later runs
//   motif> :trace dump [file]         text summary, or Chrome JSON to file
//
// Invoke with `--trace FILE` to write a Chrome-trace JSON (load it in
// chrome://tracing or Perfetto) after every traced :run.
//
// Fault injection (`--fault-seed N`, or the :faults command) runs every
// subsequent :run under a deterministic FaultPlan — dropped, duplicated
// and delayed cross-node messages, node kills, injected task throws — so
// a motif's behaviour under partial failure is explorable from the shell.
//
// Reads commands from stdin (scriptable: `motifsh < script`), so it also
// serves as an end-to-end smoke test target.
//
// Distributed mode (DESIGN.md §11):
//   * `--loopback N` hosts an N-rank cluster inside this one process over
//     the deterministic loopback transport — every frame still passes
//     through the wire codec, so :netrun measures real message counts.
//   * `--rank R --peers host:port,host:port,...` joins a TCP cluster as
//     rank R (peers[r] is rank r's listen address). Rank 0 gets the
//     shell; every other rank serves until rank 0's :quit broadcasts
//     Shutdown. tools/net_launch.sh scripts the 2-process version.
//   * `:netrun treereduce2 DEPTH SEED` runs the distributed Tree-Reduce-2
//     across the cluster and prints the value, the sequential oracle and
//     the net counters; `:stats` adds a net: line while a cluster is up.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "motifs/dist_tree_reduce.hpp"
#include "net/cluster.hpp"
#include "net/transport.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"

#include "analysis/lint.hpp"
#include "interp/interp.hpp"
#include "interp/stdlib.hpp"
#include "term/program.hpp"
#include "term/writer.hpp"
#include "transform/motif.hpp"
#include "transform/rand.hpp"
#include "transform/sched.hpp"
#include "transform/server.hpp"
#include "transform/terminate.hpp"
#include "transform/tree.hpp"

namespace tf = motif::transform;
namespace in = motif::interp;
using motif::term::ProcKey;
using motif::term::Program;

namespace {

/// The shell's cluster, when one was requested on the command line.
/// cs[0] is always the local (driving) rank; under --loopback the vector
/// holds every rank, all living in this process. Member order matters:
/// clusters are destroyed before the transports they use and before the
/// motifs whose handlers they hold — ~Cluster abandons any still-queued
/// handler tasks, so nothing can run against a dead DistTreeReduce2.
struct NetState {
  std::optional<motif::net::LoopbackHub> hub;            // --loopback
  std::unique_ptr<motif::net::Transport> tcp;            // --rank/--peers
  std::vector<std::unique_ptr<motif::DistTreeReduce2>> trs;
  std::vector<std::unique_ptr<motif::net::Cluster>> cs;

  bool active() const { return !cs.empty(); }
  motif::net::Cluster& self() { return *cs.front(); }
};

struct Shell {
  NetState net;
  Program program;
  std::uint32_t nodes = 4;
  in::RunResult last;
  bool had_run = false;
  bool trace_enabled = false;
  std::string trace_file;  // --trace FILE: Chrome JSON after each :run
  motif::rt::TraceLog last_trace;
  bool had_trace = false;
  motif::rt::FaultPlan faults;  // disabled unless :faults / --fault-seed

  std::optional<tf::Motif> motif_by_name(const std::string& name,
                                         const std::string& arg) {
    if (name == "rand") return tf::rand_motif(parse_keys(arg));
    if (name == "server") return tf::server_motif();
    if (name == "tree1") return tf::tree1_motif();
    if (name == "tree1both") return tf::tree1_both_motif();
    if (name == "treereduce2") return tf::tree_reduce2_motif();
    if (name == "sched") return tf::sched_motif(parse_keys(arg));
    if (name == "terminate") {
      auto keys = parse_keys(arg);
      if (keys.size() != 1) {
        std::cout << "terminate needs one entry, e.g. "
                     ":apply terminate reduce/2\n";
        return std::nullopt;
      }
      return tf::terminate_motif(keys[0]);
    }
    std::cout << "unknown motif '" << name
              << "' (rand server tree1 tree1both treereduce2 sched "
                 "terminate)\n";
    return std::nullopt;
  }

  static std::vector<ProcKey> parse_keys(const std::string& s) {
    std::vector<ProcKey> keys;
    std::istringstream is(s);
    std::string item;
    while (is >> item) {
      const auto slash = item.find('/');
      if (slash == std::string::npos) continue;
      keys.push_back(ProcKey{item.substr(0, slash),
                             std::stoul(item.substr(slash + 1))});
    }
    return keys;
  }

  void write_trace_file(const std::string& path) {
    std::ofstream f(path);
    if (!f) {
      std::cout << "cannot write " << path << "\n";
      return;
    }
    motif::rt::write_chrome_trace(last_trace, f);
    std::cout << "trace: wrote " << last_trace.total_events()
              << " events to " << path << "\n";
  }

  void run_goal(const std::string& goal) {
    try {
      in::InterpOptions opts;
      opts.nodes = nodes;
      opts.workers = 2;
      opts.faults = faults;
      in::Interp interp(program, opts);
      if (trace_enabled) interp.machine().start_trace();
      auto [g, r] = interp.run_query(goal);
      if (trace_enabled) {
        last_trace = interp.machine().drain_trace();
        had_trace = true;
        if (!trace_file.empty()) write_trace_file(trace_file);
      }
      last = r;
      had_run = true;
      std::cout << "goal: " << motif::term::format_term(g) << "\n";
      std::cout << "reductions=" << r.reductions
                << " suspensions=" << r.suspensions
                << " remote_msgs=" << r.load.remote_msgs;
      if (r.deadlocked()) {
        std::cout << "  DEADLOCK (" << r.still_suspended << " stuck)";
        for (const auto& sg : r.stuck_goals) {
          std::cout << "\n  stuck: " << sg;
        }
      }
      std::cout << "\n";
      if (faults.enabled()) print_load(r.load, /*faults_only=*/true);
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }

  /// The sched: and load: lines of `l` (unless `faults_only`), then its
  /// faults: line. Every count is cumulative over the machine's runs.
  static void print_load(const motif::rt::LoadSummary& l, bool faults_only) {
    if (!faults_only) {
      std::cout << "sched: steals=" << l.sched.steals
                << " parks=" << l.sched.parks
                << " mailbox_fast_hits=" << l.sched.mailbox_fast_hits
                << " injects=" << l.sched.injects << "\n";
      std::cout << "load:  tasks=" << l.total_tasks
                << " remote_msgs=" << l.remote_msgs
                << " local_msgs=" << l.local_msgs
                << " imbalance=" << l.imbalance << "\n";
    }
    const auto& f = l.faults;
    std::cout << "faults: drops=" << f.drops << " dead_drops=" << f.dead_drops
              << " dups=" << f.duplicates << " delays=" << f.delays
              << " kills=" << f.kills << " throws=" << f.throws << "\n";
  }

  void print_net_stats() {
    const auto s = net.self().net_stats();
    std::cout << "net: tx_frames=" << s.tx_frames
              << " rx_frames=" << s.rx_frames << " tx_bytes=" << s.tx_bytes
              << " rx_bytes=" << s.rx_bytes << " ctl_frames=" << s.ctl_frames
              << " drops=" << s.drops << " dups=" << s.dups
              << " delays=" << s.delays << "\n";
  }

  void show_faults() const {
    if (!faults.enabled()) {
      std::cout << "faults: off\n";
      return;
    }
    std::cout << "faults: seed=" << faults.seed << " drop=" << faults.drop
              << " dup=" << faults.duplicate << " delay=" << faults.delay;
    for (const auto& k : faults.kills) {
      std::cout << " kill(" << k.node << "@" << k.after_tasks << ")";
    }
    for (const auto& t : faults.throws) {
      std::cout << " throw(" << t.node << "@" << t.on_task << ")";
    }
    std::cout << "\n";
  }

  bool handle(const std::string& line) {
    if (line.empty()) return true;
    if (line[0] != ':') {
      // Bare input: treat as clauses to add.
      try {
        program = program.linked_with(Program::parse(line));
        std::cout << "ok (" << program.clauses().size() << " clauses)\n";
      } catch (const std::exception& e) {
        std::cout << "parse error: " << e.what() << "\n";
      }
      return true;
    }
    std::istringstream is(line.substr(1));
    std::string cmd;
    is >> cmd;
    std::string rest;
    std::getline(is, rest);
    while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);

    if (cmd == "quit" || cmd == "q") return false;
    if (cmd == "load") {
      std::ifstream f(rest);
      if (!f) {
        std::cout << "cannot open " << rest << "\n";
        return true;
      }
      std::stringstream buf;
      buf << f.rdbuf();
      try {
        program = program.linked_with(Program::parse(buf.str()));
        std::cout << "loaded " << rest << " ("
                  << program.clauses().size() << " clauses total)\n";
      } catch (const std::exception& e) {
        std::cout << "parse error: " << e.what() << "\n";
      }
      return true;
    }
    if (cmd == "stdlib") {
      program = program.linked_with(in::stdlib());
      std::cout << "stdlib linked (" << program.clauses().size()
                << " clauses total)\n";
      return true;
    }
    if (cmd == "apply") {
      std::istringstream rs(rest);
      std::string name;
      rs >> name;
      std::string arg;
      std::getline(rs, arg);
      if (auto motif = motif_by_name(name, arg)) {
        program = motif->apply(program);
        std::cout << "applied " << motif->name() << " -> "
                  << program.clauses().size() << " clauses\n";
      }
      return true;
    }
    if (cmd == "list") {
      std::cout << program.to_source();
      return true;
    }
    if (cmd == "clear") {
      program = Program{};
      std::cout << "cleared\n";
      return true;
    }
    if (cmd == "nodes") {
      nodes = static_cast<std::uint32_t>(std::stoul(rest));
      std::cout << "machine: " << nodes << " processors\n";
      return true;
    }
    if (cmd == "run") {
      run_goal(rest);
      return true;
    }
    if (cmd == "trace") {
      std::istringstream rs(rest);
      std::string sub;
      rs >> sub;
      if (!motif::rt::Machine::trace_compiled) {
        std::cout << "tracing unavailable (built with MOTIF_TRACING=OFF)\n";
        return true;
      }
      if (sub == "on") {
        trace_enabled = true;
        std::cout << "tracing on (timelines recorded per :run)\n";
      } else if (sub == "off") {
        trace_enabled = false;
        std::cout << "tracing off\n";
      } else if (sub == "dump") {
        if (!had_trace) {
          std::cout << "no trace yet (:trace on, then :run)\n";
          return true;
        }
        std::string file;
        rs >> file;
        if (!file.empty()) {
          write_trace_file(file);
        } else {
          motif::rt::write_text_summary(last_trace, std::cout);
        }
      } else {
        std::cout << ":trace on | off | dump [file]\n";
      }
      return true;
    }
    if (cmd == "lint") {
      motif::analysis::Options opts;
      opts.entries = parse_keys(rest);  // optional: :lint main/2 ...
      const auto report = motif::analysis::analyze(program, opts);
      std::cout << report.to_string();
      if (report.clean()) {
        std::cout << "lint: clean (" << program.clauses().size()
                  << " clauses)\n";
      } else {
        std::cout << "lint: " << report.errors() << " error(s), "
                  << report.warnings() << " warning(s)\n";
      }
      return true;
    }
    if (cmd == "faults") {
      std::istringstream rs(rest);
      std::string sub;
      rs >> sub;
      try {
        if (sub.empty() || sub == "show") {
          show_faults();
        } else if (sub == "off") {
          faults = motif::rt::FaultPlan{};
          std::cout << "faults: off\n";
        } else if (sub == "chaos") {
          std::string seed;
          rs >> seed;
          faults = motif::rt::FaultPlan::chaos(
              seed.empty() ? faults.seed : std::stoull(seed));
          show_faults();
        } else if (sub == "seed") {
          std::string seed;
          rs >> seed;
          faults.seed = std::stoull(seed);
          show_faults();
        } else if (sub == "drop" || sub == "dup" || sub == "delay") {
          std::string p;
          rs >> p;
          (sub == "drop" ? faults.drop
                         : sub == "dup" ? faults.duplicate : faults.delay) =
              std::stod(p);
          show_faults();
        } else if (sub == "kill" || sub == "throw") {
          std::string node, when;
          rs >> node >> when;
          const auto n = static_cast<std::uint32_t>(std::stoul(node));
          const auto k = when.empty() ? 1 : std::stoull(when);
          if (sub == "kill") {
            faults.kills.push_back({n, k});
          } else {
            faults.throws.push_back({n, k});
          }
          show_faults();
        } else {
          std::cout << ":faults [show] | off | chaos [seed] | seed N | "
                       "drop P | dup P | delay P | kill NODE [AFTER] | "
                       "throw NODE [TASK]\n";
        }
      } catch (const std::exception&) {
        std::cout << "bad :faults argument (numbers expected)\n";
      }
      return true;
    }
    if (cmd == "netrun") {
      if (!net.active()) {
        std::cout << "netrun: no cluster (start with --loopback N or "
                     "--rank R --peers ...)\n";
        return true;
      }
      std::istringstream rs(rest);
      std::string what;
      std::uint32_t depth = 6;
      std::uint64_t seed = 42;
      rs >> what >> depth >> seed;
      if (what != "treereduce2") {
        std::cout << ":netrun treereduce2 [DEPTH] [SEED]\n";
        return true;
      }
      try {
        const auto r =
            net.trs.front()->run(depth, seed, std::chrono::seconds(60));
        std::cout << "netrun treereduce2 depth=" << depth << " seed=" << seed
                  << ": value=" << r.value << " expected=" << r.expected
                  << " (" << r.outcome.to_string() << ")\n";
        std::cout << "result match: " << (r.ok ? "yes" : "no") << "\n";
        print_net_stats();
      } catch (const std::exception& e) {
        std::cout << "netrun error: " << e.what() << "\n";
      }
      return true;
    }
    if (cmd == "stats") {
      if (net.active()) print_net_stats();
      if (!had_run) {
        if (!net.active()) std::cout << "stats: no run yet (use :run)\n";
        return true;
      }
      print_load(last.load, /*faults_only=*/false);
      return true;
    }
    if (cmd == "profile") {
      if (!had_run) {
        std::cout << "no run yet\n";
        return true;
      }
      for (const auto& [def, n] : last.by_definition) {
        std::cout << "  " << def << ": " << n << "\n";
      }
      return true;
    }
    if (cmd == "help" || cmd == "h") {
      std::cout << ":load FILE | :stdlib | :apply MOTIF [keys] | :list | "
                   ":lint [entry/k ...] | :clear | :nodes N | :run GOAL | "
                   ":netrun treereduce2 [DEPTH] [SEED] | "
                   ":profile | :stats | :trace on|off|dump [file] | "
                   ":faults [chaos|off|...] | :quit\n"
                   "bare lines are parsed as clauses and added\n";
      return true;
    }
    std::cout << "unknown command :" << cmd << " (try :help)\n";
    return true;
  }
};

}  // namespace

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  std::uint32_t rank = 0;
  bool rank_set = false;
  std::string peers_arg;
  std::uint32_t loopback = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      shell.trace_file = argv[++i];
      shell.trace_enabled = true;
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      try {
        shell.faults = motif::rt::FaultPlan::chaos(std::stoull(argv[++i]));
      } catch (const std::exception&) {
        std::cerr << "motifsh: --fault-seed expects a number\n";
        return 2;
      }
    } else if (arg == "--rank" && i + 1 < argc) {
      rank = static_cast<std::uint32_t>(std::stoul(argv[++i]));
      rank_set = true;
    } else if (arg == "--peers" && i + 1 < argc) {
      peers_arg = argv[++i];
    } else if (arg == "--loopback" && i + 1 < argc) {
      loopback = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: motifsh [--trace FILE] [--fault-seed N] "
                   "[--loopback N | --rank R --peers h:p,h:p,...]  "
                   "(commands on stdin)\n";
      return 2;
    }
  }
  if ((rank_set || !peers_arg.empty()) && loopback > 0) {
    std::cerr << "motifsh: --loopback and --rank/--peers are exclusive\n";
    return 2;
  }

  try {
    if (rank_set || !peers_arg.empty()) {
      const auto peers = split_commas(peers_arg);
      if (peers.size() < 2 || rank >= peers.size()) {
        std::cerr << "motifsh: --peers needs >= 2 host:port entries and "
                     "--rank must index one of them\n";
        return 2;
      }
      shell.net.tcp = motif::net::make_tcp_transport(rank, peers);
      motif::net::ClusterConfig cfg;
      shell.net.cs.push_back(
          std::make_unique<motif::net::Cluster>(*shell.net.tcp, cfg));
      shell.net.trs.push_back(
          std::make_unique<motif::DistTreeReduce2>(shell.net.self()));
      shell.net.self().start();
      std::cout << "cluster: rank " << rank << "/" << peers.size()
                << " up (" << shell.net.self().global_nodes()
                << " global nodes)\n";
      if (rank != 0) {
        // Followers have no shell: everything they do arrives as
        // messages. serve() returns when rank 0 broadcasts Shutdown.
        shell.net.self().serve();
        std::cout << "rank " << rank << ": shutdown received\n";
        return 0;
      }
    } else if (loopback > 0) {
      shell.net.hub.emplace(loopback);
      for (std::uint32_t r = 0; r < loopback; ++r) {
        motif::net::ClusterConfig cfg;
        shell.net.cs.push_back(std::make_unique<motif::net::Cluster>(
            shell.net.hub->endpoint(r), cfg));
      }
      for (auto& c : shell.net.cs) {
        shell.net.trs.push_back(
            std::make_unique<motif::DistTreeReduce2>(*c));
      }
      // Followers first: their Join frames deliver inline into rank 0's
      // already-set receiver, so rank 0's start() finds them all joined.
      for (std::uint32_t r = 1; r < loopback; ++r) shell.net.cs[r]->start();
      shell.net.self().start();
      std::cout << "cluster: " << loopback << " loopback ranks up ("
                << shell.net.self().global_nodes() << " global nodes)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "motifsh: cluster startup failed: " << e.what() << "\n";
    return 1;
  }

  const bool tty = false;  // prompt is harmless when scripted too
  (void)tty;
  std::string line;
  std::cout << "motifsh — :help for commands\n";
  while (std::cout << "motif> " << std::flush,
         std::getline(std::cin, line)) {
    if (!shell.handle(line)) break;
  }
  if (shell.net.active()) shell.net.self().shutdown();
  std::cout << "\n";
  return 0;
}

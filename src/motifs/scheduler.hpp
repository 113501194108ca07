// The scheduler motif: dynamic allocation of tasks to idle processors
// (paper Section 2.2 and reference [6]; in the spirit of the Argonne
// Schedule package: "a user provides a set of procedures and defines data
// dependencies between them; the system schedules their execution").
//
// Two layouts:
//  * Flat manager/worker — one manager (node 0) holds the ready queue;
//    idle workers request work with messages; the manager replies with a
//    task or records the worker as idle.
//  * Hierarchical — the paper's "reuse through modification" example:
//    "a scheduler motif might be adapted to the demands of a highly
//    parallel computer by introducing additional levels in its
//    manager/worker hierarchy" (Section 1). Sub-managers own worker
//    groups; each steals batches from the top manager, so top-manager
//    traffic drops by the batch factor.
//
// Tasks may declare dependencies (a DAG); a task becomes ready when all
// its dependencies completed. Task bodies run on worker nodes and may
// report virtual cost via Machine::add_work.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/machine.hpp"
#include "runtime/svar.hpp"
#include "runtime/trace.hpp"

namespace motif {

using SchedTaskId = std::uint64_t;

struct SchedulerOptions {
  /// Worker nodes are 1..workers (node 0 is the manager). 0 = all
  /// remaining machine nodes.
  std::uint32_t workers = 0;
  /// 1 = flat manager/worker; 2 = one sub-manager per `group` workers.
  std::uint32_t levels = 1;
  /// Workers per sub-manager (levels == 2).
  std::uint32_t group = 4;
  /// Tasks handed to a sub-manager per request (levels == 2).
  std::uint32_t batch = 8;
};

/// Dynamic DAG scheduler. Usage:
///   Scheduler s(machine, opts);
///   auto a = s.submit([]{...});
///   auto b = s.submit([]{...}, {a});
///   s.run();            // blocks until every submitted task completed
/// submit() is only legal before run().
class Scheduler {
 public:
  using Body = std::function<void()>;

  Scheduler(rt::Machine& m, SchedulerOptions opts = {}) : m_(m), opts_(opts) {
    if (m.node_count() < 2) {
      throw std::invalid_argument("scheduler needs >= 2 nodes");
    }
    if (opts_.workers == 0) opts_.workers = m.node_count() - 1;
    if (opts_.workers > m.node_count() - 1) {
      throw std::invalid_argument("more workers than nodes");
    }
    if (opts_.levels < 1 || opts_.levels > 2) {
      throw std::invalid_argument("levels must be 1 or 2");
    }
  }

  /// Registers a task; `deps` must already be submitted ids.
  SchedTaskId submit(Body body, std::vector<SchedTaskId> deps = {}) {
    const SchedTaskId id = tasks_.size();
    for (SchedTaskId d : deps) {
      if (d >= id) throw std::invalid_argument("dependency not submitted");
    }
    tasks_.push_back(TaskRec{std::move(body), std::move(deps), 0});
    return id;
  }

  /// Runs all tasks to completion. Returns the number of messages the
  /// top-level manager handled (the hotspot metric of experiment E7).
  /// A throwing task body is rethrown; a run that went idle short of
  /// completion (a lost job or worker) throws rt::RunIncomplete.
  std::uint64_t run() {
    if (tasks_.empty()) return 0;
    auto st = start();
    m_.wait_result(st->done);
    return st->manager_msgs.load(std::memory_order_relaxed);
  }

  /// Deadline-bounded run for chaos conditions: never hangs and never
  /// throws on stall — returns the classified RunOutcome
  /// (Machine::wait_result_for) plus the manager-message count so far.
  std::pair<rt::RunOutcome, std::uint64_t> run_for(
      std::chrono::nanoseconds deadline) {
    if (tasks_.empty()) return {rt::RunOutcome{}, 0};
    auto st = start();
    rt::RunOutcome o = m_.wait_result_for(st->done, deadline);
    return {std::move(o), st->manager_msgs.load(std::memory_order_relaxed)};
  }

 private:
  struct TaskRec {
    Body body;
    std::vector<SchedTaskId> deps;
    std::uint32_t pending_deps;
  };

  struct Run : std::enable_shared_from_this<Run> {
    rt::Machine& m;
    SchedulerOptions opts;
    std::vector<TaskRec> tasks;
    std::vector<std::vector<SchedTaskId>> dependents;
    std::deque<SchedTaskId> ready;          // manager-owned (node 0 only)
    std::deque<std::uint32_t> idle_targets; // workers or sub-managers
    std::size_t remaining;
    rt::SVar<bool> done;
    std::atomic<std::uint64_t> manager_msgs{0};

    // Sub-manager state (levels == 2); index = sub-manager ordinal.
    struct Sub {
      rt::NodeId node = 0;               // runs on its first worker's node
      std::deque<SchedTaskId> queue;
      std::deque<rt::NodeId> idle_workers;
      bool awaiting_batch = false;
      std::vector<rt::NodeId> workers;
    };
    std::vector<Sub> subs;

    Run(rt::Machine& mm, SchedulerOptions o, std::vector<TaskRec> ts)
        : m(mm), opts(o), tasks(std::move(ts)),
          dependents(tasks.size()), remaining(tasks.size()) {
      for (SchedTaskId i = 0; i < tasks.size(); ++i) {
        tasks[i].pending_deps =
            static_cast<std::uint32_t>(tasks[i].deps.size());
        for (SchedTaskId d : tasks[i].deps) dependents[d].push_back(i);
      }
    }

    // ---- common ----------------------------------------------------------

    void start() {
      auto self = this->shared_from_this();
      m.post(0, [self] {
        for (SchedTaskId i = 0; i < self->tasks.size(); ++i) {
          if (self->tasks[i].pending_deps == 0) self->ready.push_back(i);
        }
        if (self->opts.levels == 1) {
          for (std::uint32_t w = 1; w <= self->opts.workers; ++w) {
            self->flat_request(w);
          }
        } else {
          self->setup_subs();
        }
      });
    }

    void finish_task(SchedTaskId id) {
      // Runs on the manager (node 0): release dependents.
      for (SchedTaskId dep : dependents[id]) {
        if (--tasks[dep].pending_deps == 0) ready.push_back(dep);
      }
      if (--remaining == 0) done.bind(true);
    }

    // ---- flat manager/worker ----------------------------------------------

    void flat_request(std::uint32_t worker) {
      // Runs on node 0.
      TRACE_SPAN("scheduler.manager");
      manager_msgs.fetch_add(1, std::memory_order_relaxed);
      if (ready.empty()) {
        idle_targets.push_back(worker);
        return;
      }
      const SchedTaskId id = ready.front();
      ready.pop_front();
      dispatch_flat(worker, id);
    }

    void dispatch_flat(std::uint32_t worker, SchedTaskId id) {
      auto self = this->shared_from_this();
      m.post(worker, [self, id, worker] {
        {
          TRACE_SPAN("scheduler.task");
          self->tasks[id].body();
        }
        self->m.post(0, [self, id, worker] {
          self->manager_msgs.fetch_add(1, std::memory_order_relaxed);
          self->finish_task(id);
          // Newly released tasks may satisfy idle workers.
          self->drain_idle_flat();
          self->flat_request(worker);
        });
      });
    }

    void drain_idle_flat() {
      while (!ready.empty() && !idle_targets.empty()) {
        const std::uint32_t w = idle_targets.front();
        idle_targets.pop_front();
        const SchedTaskId id = ready.front();
        ready.pop_front();
        dispatch_flat(w, id);
      }
    }

    // ---- hierarchical ------------------------------------------------------

    void setup_subs() {
      const std::uint32_t n_subs =
          (opts.workers + opts.group - 1) / opts.group;
      subs.resize(n_subs);
      for (std::uint32_t s = 0; s < n_subs; ++s) {
        const std::uint32_t first = 1 + s * opts.group;
        const std::uint32_t last =
            std::min(opts.workers, first + opts.group - 1);
        subs[s].node = first;  // sub-manager shares its first worker's node
        for (std::uint32_t w = first; w <= last; ++w) {
          subs[s].workers.push_back(w);
        }
      }
      for (std::uint32_t s = 0; s < n_subs; ++s) sub_ask_top(s);
    }

    /// Sub-manager s asks the top manager for a batch (runs on node 0).
    void sub_ask_top(std::uint32_t s) {
      TRACE_SPAN("scheduler.manager");
      manager_msgs.fetch_add(1, std::memory_order_relaxed);
      if (ready.empty()) {
        idle_targets.push_back(s);
        return;
      }
      std::vector<SchedTaskId> batch;
      for (std::uint32_t k = 0; k < opts.batch && !ready.empty(); ++k) {
        batch.push_back(ready.front());
        ready.pop_front();
      }
      auto self = this->shared_from_this();
      m.post(subs[s].node, [self, s, batch = std::move(batch)] {
        self->sub_receive_batch(s, batch);
      });
    }

    /// Runs on sub-manager s's node.
    void sub_receive_batch(std::uint32_t s, const std::vector<SchedTaskId>& b) {
      Sub& sub = subs[s];
      sub.awaiting_batch = false;
      for (SchedTaskId id : b) sub.queue.push_back(id);
      if (sub.idle_workers.empty() && !b.empty()) {
        // First batch: all workers idle but not yet registered.
        for (rt::NodeId w : sub.workers) sub.idle_workers.push_back(w);
      }
      sub_drain(s);
    }

    void sub_drain(std::uint32_t s) {
      Sub& sub = subs[s];
      auto self = this->shared_from_this();
      while (!sub.queue.empty() && !sub.idle_workers.empty()) {
        const rt::NodeId w = sub.idle_workers.front();
        sub.idle_workers.pop_front();
        const SchedTaskId id = sub.queue.front();
        sub.queue.pop_front();
        m.post(w, [self, s, id, w] {
          {
            TRACE_SPAN("scheduler.task");
            self->tasks[id].body();
          }
          // Report completion to the top manager; rejoin the sub's pool.
          self->m.post(0, [self, id] {
            self->manager_msgs.fetch_add(1, std::memory_order_relaxed);
            self->finish_task(id);
            self->drain_idle_subs();
          });
          self->m.post(self->subs[s].node, [self, s, w] {
            self->subs[s].idle_workers.push_back(w);
            self->sub_drain(s);
            self->maybe_refill(s);
          });
        });
      }
      maybe_refill(s);
    }

    void maybe_refill(std::uint32_t s) {
      Sub& sub = subs[s];
      if (sub.queue.empty() && !sub.awaiting_batch) {
        sub.awaiting_batch = true;
        auto self = this->shared_from_this();
        m.post(0, [self, s] { self->sub_ask_top(s); });
      }
    }

    void drain_idle_subs() {
      while (!ready.empty() && !idle_targets.empty()) {
        const std::uint32_t s = idle_targets.front();
        idle_targets.pop_front();
        sub_ask_top(s);
      }
    }
  };

  /// Hands the submitted tasks to a fresh run and starts it.
  std::shared_ptr<Run> start() {
    auto st = std::make_shared<Run>(m_, opts_, std::move(tasks_));
    tasks_.clear();
    st->done.set_name("scheduler.done");
    st->start();
    return st;
  }

  rt::Machine& m_;
  SchedulerOptions opts_;
  std::vector<TaskRec> tasks_;
};

}  // namespace motif

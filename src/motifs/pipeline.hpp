// Pipeline motif: the producer/consumer structure of the paper's
// Figure 1, generalised to a chain of steps — a source, any number of
// 1-in/1-out stages, a sink — coupled by streams. Each hop is a data
// Stream<T> plus an ack stream flowing upstream, the sync acknowledgement:
// a producer starts with `capacity` credits, spends one per item pushed
// and earns them back from acks, so at most `capacity` items are in
// flight on a hop. With capacity 1 the producer cannot run ahead of the
// consumer, exactly the synchronous coupling of Figure 1.
//
// Every step runs as Stream continuations on a Machine node (step k on
// node k % node_count). A step out of input or out of credit registers
// one when_ready waiter on that cell and returns; the wake re-posts the
// step to its node, where it re-reads its state. No step ever blocks, so
// even a one-node machine runs the whole chain, and the hops get the
// Machine's counters, trace tracks and FaultPlan.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "runtime/stream.hpp"

namespace motif {

template <class T>
class Pipeline {
 public:
  /// Produces items until it returns nullopt.
  using Source = std::function<std::optional<T>()>;
  /// Transforms one item (1-in/1-out stage).
  using Stage = std::function<T(T)>;
  /// Consumes items.
  using Sink = std::function<void(T)>;

  /// `capacity` (>= 1) bounds the items in flight on each hop.
  explicit Pipeline(rt::Machine& m, std::size_t capacity = 1)
      : m_(m), capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("pipeline capacity must be at least 1");
    }
  }

  Pipeline& source(Source s) {
    source_ = std::move(s);
    return *this;
  }
  Pipeline& stage(Stage s) {
    stages_.push_back(std::move(s));
    return *this;
  }
  Pipeline& sink(Sink s) {
    sink_ = std::move(s);
    return *this;
  }

  /// Runs to completion (source exhausted, all items through the sink)
  /// and returns the number of items the sink consumed. A throwing
  /// source, stage or sink stops only its own step: the rest of the chain
  /// runs dry, the machine quiesces, and run() rethrows the first
  /// exception. Throws rt::RunIncomplete if the machine quiesced before
  /// the sink saw the end of the stream (a fault dropped a wake).
  std::size_t run() {
    if (!source_ || !sink_) {
      throw std::logic_error("pipeline needs a source and a sink");
    }
    Run r(*this);
    for (std::size_t k = 0; k < r.steps.size(); ++k) r.wake(k);
    return m_.wait_result(r.done);
  }

 private:
  /// One step's state. Only tasks on the step's node touch it, and they
  /// run one at a time.
  struct Step {
    rt::Stream<T> in;                  // input cursor (not the source)
    rt::Stream<std::size_t> ack_out;   // ack tail upstream (not the source)
    std::size_t unacked = 0;           // items taken but not yet acked
    rt::Stream<T> out;                 // output tail (not the sink)
    rt::Stream<std::size_t> ack_in;    // credit cursor (not the sink)
    std::size_t credits = 0;
    // A waiter sits on the current `in` / `ack_in` cell. Cleared when the
    // cursor moves past that cell, so each cell gets at most one waiter
    // however many (duplicated) wakes arrive.
    bool in_armed = false;
    bool ack_armed = false;
    bool stopped = false;  // reached the end, or its user code threw
  };

  struct Run {
    explicit Run(Pipeline& p) : p(p), steps(p.stages_.size() + 2) {
      for (std::size_t k = 0; k + 1 < steps.size(); ++k) {
        steps[k + 1].in = steps[k].out;
        steps[k + 1].ack_out = steps[k].ack_in;
        steps[k].credits = p.capacity_;
      }
    }
    Run(const Run&) = delete;  // wakes hold its address
    Run& operator=(const Run&) = delete;

    void wake(std::size_t k) {
      p.m_.post(static_cast<rt::NodeId>(k % p.m_.node_count()),
                [this, k] { resume(k); });
    }

    /// A wake may be duplicated or stale: resume only re-reads state.
    void resume(std::size_t k) {
      Step& s = steps[k];
      if (s.stopped) return;
      try {
        advance(k, s);
      } catch (...) {
        s.stopped = true;  // later wakes do nothing, so the chain runs dry
        throw;
      }
    }

    /// Moves items until the step ends or must wait for input or credit.
    void advance(std::size_t k, Step& s) {
      const bool is_source = k == 0;
      const bool is_sink = k + 1 == steps.size();
      for (;;) {
        if (!is_sink) {
          bool nil = false;
          while (auto ack = s.ack_in.try_next(nil)) {
            s.credits += ack->first;
            s.ack_in = std::move(ack->second);
            s.ack_armed = false;
          }
          if (s.credits == 0) return wait(k, s, s.ack_in, s.ack_armed);
        }
        std::optional<T> item;
        if (is_source) {
          item = p.source_();
          if (!item) return finish(s, is_sink);
        } else {
          bool nil = false;
          auto next = s.in.try_next(nil);
          if (nil) return finish(s, is_sink);
          if (!next) return wait(k, s, s.in, s.in_armed);
          item.emplace(std::move(next->first));
          s.in = std::move(next->second);
          s.in_armed = false;
          // Ack in batches of half the capacity: one ack per item costs
          // a wake per item at large capacities.
          if (++s.unacked >= (p.capacity_ + 1) / 2) flush_acks(s);
        }
        if (is_sink) {
          p.sink_(std::move(*item));
          ++count;
        } else {
          if (!is_source) *item = p.stages_[k - 1](std::move(*item));
          s.out = s.out.push(std::move(*item));
          --s.credits;
        }
      }
    }

    /// Parks step k until `cursor` (its input or its credits) resolves,
    /// first acking what it took so upstream never waits on credit this
    /// step holds back.
    template <class Cursor>
    void wait(std::size_t k, Step& s, Cursor& cursor, bool& armed) {
      flush_acks(s);
      if (armed) return;
      armed = true;
      cursor.when_ready([this, k] { wake(k); });
    }

    void finish(Step& s, bool is_sink) {
      if (is_sink) done.bind(count);
      else s.out.close();
      s.stopped = true;
    }

    static void flush_acks(Step& s) {
      if (s.unacked == 0) return;
      s.ack_out = s.ack_out.push(s.unacked);
      s.unacked = 0;
    }

    Pipeline& p;
    std::vector<Step> steps;
    std::size_t count = 0;  // written by the sink's node
    // Bound to `count` when the sink sees the end of the stream.
    rt::SVar<std::size_t> done;
  };

  rt::Machine& m_;
  std::size_t capacity_;
  Source source_;
  std::vector<Stage> stages_;
  Sink sink_;
};

}  // namespace motif

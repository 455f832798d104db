// Merged metrics snapshots and their exposition formats.
//
// A Snapshot is the collector's state at one instant, merged across shards
// and joined with the runtime's static automaton structure (class names,
// statically-valid transitions and their descriptions). It is produced by
// Runtime::CollectMetrics(), serialised three ways:
//
//   * ToJson        — machine-readable, embeds everything (the form that
//                     round-trips through a trace capture);
//   * ToPrometheus  — Prometheus text exposition format 0.0.4: HELP/TYPE
//                     headers, counter/gauge families labelled by automaton,
//                     dispatch-latency histograms with cumulative buckets;
//   * RenderText    — the human tables the tesla-trace CLI prints
//                     (per-class counters, p50/p99/max latency, coverage).
//
// Transition coverage is "branch coverage for temporal assertions": every
// statically-valid DFA transition of each class, flagged fired or not. A
// never-fired transition on an OR alternative or TSEQUENCE clause is a dead
// clause — the assertion passes without that path ever being checked.
#ifndef TESLA_METRICS_SNAPSHOT_H_
#define TESLA_METRICS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/collector.h"
#include "metrics/metrics.h"
#include "runtime/options.h"

namespace tesla::metrics {

struct TransitionCoverage {
  uint32_t state = 0;   // source DFA state
  uint16_t symbol = 0;  // alphabet symbol
  bool fired = false;
  std::string description;  // "NFA:1 --returnfrom check(x) == 0--> NFA:2,4"
};

struct ClassSnapshot {
  std::string name;
  uint64_t counters[kClassCounterCount] = {};
  // Statically-valid transitions in (state, symbol) order.
  std::vector<TransitionCoverage> transitions;

  size_t CoveredTransitions() const {
    size_t fired = 0;
    for (const TransitionCoverage& transition : transitions) {
      fired += transition.fired ? 1 : 0;
    }
    return fired;
  }
  double CoverageRatio() const {
    return transitions.empty()
               ? 0.0
               : static_cast<double>(CoveredTransitions()) / transitions.size();
  }
};

// Async-queue accounting, filled in by the queue's metrics augmenter
// (Runtime::SetMetricsAugmenter) when an EventQueue is attached to the
// runtime; empty vectors mean "no queue" and suppress the queue sections in
// every exposition format. Producer i is the i-th registered producer
// thread; consumer i is drain thread i.
struct QueueProducerSnapshot {
  uint64_t enqueued = 0;       // accepted into the ring
  uint64_t dropped = 0;        // rejected by the OnFull::kDrop policy
  uint64_t rejected = 0;       // Enqueue() while the queue was not running
  uint64_t blocked_spins = 0;  // OnFull::kBlock wait iterations (backpressure)
};

struct QueueConsumerSnapshot {
  uint64_t batches = 0;       // OnEvents batches dispatched
  uint64_t events = 0;        // records dispatched in the context stage
  uint64_t forwards_in = 0;   // forwarded records dispatched (shard stage)
  uint64_t forwards_out = 0;  // records forwarded to other consumers
  uint64_t steals = 0;        // batches stolen from other consumers' producers
  uint64_t busy_ns = 0;       // thread-CPU time spent dispatching
};

struct Snapshot {
  MetricsMode mode = MetricsMode::kOff;
  runtime::RuntimeStats stats;
  std::vector<ClassSnapshot> classes;
  HistogramData histograms[kEventKinds];
  std::vector<QueueProducerSnapshot> queue_producers;
  std::vector<QueueConsumerSnapshot> queue_consumers;
};

std::string ToJson(const Snapshot& snapshot);
std::string ToPrometheus(const Snapshot& snapshot);
std::string RenderText(const Snapshot& snapshot);

// The classes whose coverage is incomplete, with their never-fired
// transitions — the "dead clause" report.
std::string RenderUncovered(const Snapshot& snapshot);

}  // namespace tesla::metrics

#endif  // TESLA_METRICS_SNAPSHOT_H_

#include "metrics/snapshot.h"

#include <cinttypes>

#include "support/strings.h"

namespace tesla::metrics {

std::string ToJson(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  AppendF(&out, "{\n  \"mode\": \"%s\",\n  \"stats\": {", MetricsModeName(snapshot.mode));
  bool first = true;
#define TESLA_STATS_JSON(name, desc, replay)                                    \
  AppendF(&out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", #name,    \
          snapshot.stats.name);                                         \
  first = false;
  TESLA_RUNTIME_STATS(TESLA_STATS_JSON)
#undef TESLA_STATS_JSON
  out.append("\n  },");
  if (!snapshot.queue_producers.empty() || !snapshot.queue_consumers.empty()) {
    out.append("\n  \"queue\": {\n    \"producers\": [");
    for (size_t p = 0; p < snapshot.queue_producers.size(); p++) {
      const QueueProducerSnapshot& producer = snapshot.queue_producers[p];
      AppendF(&out,
              "%s\n      {\"enqueued\": %" PRIu64 ", \"dropped\": %" PRIu64
              ", \"rejected\": %" PRIu64 ", \"blocked_spins\": %" PRIu64 "}",
              p == 0 ? "" : ",", producer.enqueued, producer.dropped,
              producer.rejected, producer.blocked_spins);
    }
    out.append(snapshot.queue_producers.empty() ? "],\n    \"consumers\": ["
                                                : "\n    ],\n    \"consumers\": [");
    for (size_t c = 0; c < snapshot.queue_consumers.size(); c++) {
      const QueueConsumerSnapshot& consumer = snapshot.queue_consumers[c];
      AppendF(&out,
              "%s\n      {\"batches\": %" PRIu64 ", \"events\": %" PRIu64
              ", \"forwards_in\": %" PRIu64 ", \"forwards_out\": %" PRIu64
              ", \"steals\": %" PRIu64 ", \"busy_ns\": %" PRIu64 "}",
              c == 0 ? "" : ",", consumer.batches, consumer.events,
              consumer.forwards_in, consumer.forwards_out, consumer.steals,
              consumer.busy_ns);
    }
    out.append(snapshot.queue_consumers.empty() ? "]\n  }," : "\n    ]\n  },");
  }
  out.append("\n  \"classes\": [");
  for (size_t c = 0; c < snapshot.classes.size(); c++) {
    const ClassSnapshot& cls = snapshot.classes[c];
    AppendF(&out, "%s\n    {\"name\": ", c == 0 ? "" : ",");
    AppendJsonString(&out, cls.name);
    out.append(", \"counters\": {");
    for (size_t k = 0; k < kClassCounterCount; k++) {
      AppendF(&out, "%s\"%s\": %" PRIu64, k == 0 ? "" : ", ", kClassCounterNames[k],
              cls.counters[k]);
    }
    AppendF(&out, "},\n     \"coverage\": {\"total\": %zu, \"fired\": %zu, \"transitions\": [",
            cls.transitions.size(), cls.CoveredTransitions());
    for (size_t t = 0; t < cls.transitions.size(); t++) {
      const TransitionCoverage& tc = cls.transitions[t];
      AppendF(&out, "%s\n       {\"state\": %u, \"symbol\": %u, \"fired\": %s, \"description\": ",
              t == 0 ? "" : ",", tc.state, tc.symbol, tc.fired ? "true" : "false");
      AppendJsonString(&out, tc.description);
      out.push_back('}');
    }
    out.append(cls.transitions.empty() ? "]}}" : "\n     ]}}");
  }
  out.append(snapshot.classes.empty() ? "],\n" : "\n  ],\n");
  out.append("  \"histograms\": {");
  if (snapshot.mode == MetricsMode::kFull) {
    for (size_t kind = 0; kind < kEventKinds; kind++) {
      const HistogramData& hist = snapshot.histograms[kind];
      AppendF(&out, "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum_ns\": %" PRIu64
                    ", \"buckets\": [",
              kind == 0 ? "" : ",", kEventKindNames[kind], hist.count, hist.sum_ns);
      bool first_bucket = true;
      for (size_t bucket = 0; bucket < kHistogramBuckets; bucket++) {
        if (hist.buckets[bucket] == 0) {
          continue;
        }
        AppendF(&out, "%s[%" PRIu64 ", %" PRIu64 "]", first_bucket ? "" : ", ",
                BucketUpperNs(bucket), hist.buckets[bucket]);
        first_bucket = false;
      }
      out.append("]}");
    }
    out.append("\n  }\n}\n");
  } else {
    out.append("}\n}\n");
  }
  return out;
}

std::string ToPrometheus(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);

  // Global counters: one family per RuntimeStats field.
#define TESLA_STATS_PROM(name, desc, replay)                                       \
  AppendF(&out,                                                            \
          "# HELP tesla_%s_total %s\n# TYPE tesla_%s_total counter\n"      \
          "tesla_%s_total %" PRIu64 "\n",                                  \
          #name, desc, #name, #name, snapshot.stats.name);
  TESLA_RUNTIME_STATS(TESLA_STATS_PROM)
#undef TESLA_STATS_PROM

  // Async-queue accounting, labelled by producer/consumer index. Families
  // are emitted only when a queue augmenter filled the vectors, so a
  // queue-less runtime's exposition is unchanged.
  if (!snapshot.queue_producers.empty()) {
    static constexpr struct {
      const char* name;
      const char* help;
      uint64_t QueueProducerSnapshot::*field;
    } kProducerSeries[] = {
        {"enqueued", "events accepted into the producer's ring",
         &QueueProducerSnapshot::enqueued},
        {"dropped", "events dropped at enqueue (OnFull::kDrop policy)",
         &QueueProducerSnapshot::dropped},
        {"rejected", "events rejected while the queue was not running",
         &QueueProducerSnapshot::rejected},
        {"blocked_spins", "full-ring wait iterations (OnFull::kBlock backpressure)",
         &QueueProducerSnapshot::blocked_spins},
    };
    for (const auto& series : kProducerSeries) {
      AppendF(&out,
              "# HELP tesla_queue_producer_%s_total %s\n"
              "# TYPE tesla_queue_producer_%s_total counter\n",
              series.name, series.help, series.name);
      for (size_t p = 0; p < snapshot.queue_producers.size(); p++) {
        AppendF(&out, "tesla_queue_producer_%s_total{producer=\"%zu\"} %" PRIu64 "\n",
                series.name, p, snapshot.queue_producers[p].*series.field);
      }
    }
  }
  if (!snapshot.queue_consumers.empty()) {
    static constexpr struct {
      const char* name;
      const char* help;
      uint64_t QueueConsumerSnapshot::*field;
    } kConsumerSeries[] = {
        {"batches", "OnEvents batches dispatched by the consumer",
         &QueueConsumerSnapshot::batches},
        {"events", "records dispatched by the consumer (context stage)",
         &QueueConsumerSnapshot::events},
        {"forwards_in", "forwarded records dispatched (shard stage)",
         &QueueConsumerSnapshot::forwards_in},
        {"forwards_out", "records forwarded to other consumers",
         &QueueConsumerSnapshot::forwards_out},
        {"steals", "batches stolen from other consumers' producers",
         &QueueConsumerSnapshot::steals},
    };
    for (const auto& series : kConsumerSeries) {
      AppendF(&out,
              "# HELP tesla_queue_consumer_%s_total %s\n"
              "# TYPE tesla_queue_consumer_%s_total counter\n",
              series.name, series.help, series.name);
      for (size_t c = 0; c < snapshot.queue_consumers.size(); c++) {
        AppendF(&out, "tesla_queue_consumer_%s_total{consumer=\"%zu\"} %" PRIu64 "\n",
                series.name, c, snapshot.queue_consumers[c].*series.field);
      }
    }
    out.append(
        "# HELP tesla_queue_consumer_busy_seconds_total thread-CPU time spent dispatching\n"
        "# TYPE tesla_queue_consumer_busy_seconds_total counter\n");
    for (size_t c = 0; c < snapshot.queue_consumers.size(); c++) {
      AppendF(&out, "tesla_queue_consumer_busy_seconds_total{consumer=\"%zu\"} %.9f\n",
              c, static_cast<double>(snapshot.queue_consumers[c].busy_ns) / 1e9);
    }
  }

  // Per-class counters, labelled by automaton name.
  for (size_t k = 0; k < kClassCounterCount; k++) {
    AppendF(&out, "# HELP tesla_class_%s_total %s\n# TYPE tesla_class_%s_total counter\n",
            kClassCounterNames[k], kClassCounterHelp[k], kClassCounterNames[k]);
    for (const ClassSnapshot& cls : snapshot.classes) {
      AppendF(&out, "tesla_class_%s_total{automaton=\"", kClassCounterNames[k]);
      AppendPromLabel(&out, cls.name);
      AppendF(&out, "\"} %" PRIu64 "\n", cls.counters[k]);
    }
  }

  // Transition coverage: static total and fired count per class. Gauges —
  // fired can move back to zero across a ResetStats().
  out.append(
      "# HELP tesla_coverage_transitions statically-valid automaton transitions\n"
      "# TYPE tesla_coverage_transitions gauge\n");
  for (const ClassSnapshot& cls : snapshot.classes) {
    out.append("tesla_coverage_transitions{automaton=\"");
    AppendPromLabel(&out, cls.name);
    AppendF(&out, "\"} %zu\n", cls.transitions.size());
  }
  out.append(
      "# HELP tesla_coverage_transitions_fired transitions observed at least once\n"
      "# TYPE tesla_coverage_transitions_fired gauge\n");
  for (const ClassSnapshot& cls : snapshot.classes) {
    out.append("tesla_coverage_transitions_fired{automaton=\"");
    AppendPromLabel(&out, cls.name);
    AppendF(&out, "\"} %zu\n", cls.CoveredTransitions());
  }

  // Dispatch-latency histograms, Prometheus histogram convention: cumulative
  // le buckets, then _sum and _count. Only present when histograms ran.
  if (snapshot.mode == MetricsMode::kFull) {
    out.append(
        "# HELP tesla_dispatch_latency_ns event dispatch latency, nanoseconds\n"
        "# TYPE tesla_dispatch_latency_ns histogram\n");
    for (size_t kind = 0; kind < kEventKinds; kind++) {
      const HistogramData& hist = snapshot.histograms[kind];
      size_t top = 0;
      for (size_t bucket = 0; bucket < kHistogramBuckets; bucket++) {
        if (hist.buckets[bucket] != 0) {
          top = bucket;
        }
      }
      uint64_t cumulative = 0;
      for (size_t bucket = 0; bucket <= top; bucket++) {
        cumulative += hist.buckets[bucket];
        AppendF(&out,
                "tesla_dispatch_latency_ns_bucket{kind=\"%s\",le=\"%" PRIu64
                "\"} %" PRIu64 "\n",
                kEventKindNames[kind], BucketUpperNs(bucket), cumulative);
      }
      AppendF(&out,
              "tesla_dispatch_latency_ns_bucket{kind=\"%s\",le=\"+Inf\"} %" PRIu64 "\n",
              kEventKindNames[kind], hist.count);
      AppendF(&out, "tesla_dispatch_latency_ns_sum{kind=\"%s\"} %" PRIu64 "\n",
              kEventKindNames[kind], hist.sum_ns);
      AppendF(&out, "tesla_dispatch_latency_ns_count{kind=\"%s\"} %" PRIu64 "\n",
              kEventKindNames[kind], hist.count);
    }
  }
  return out;
}

std::string RenderText(const Snapshot& snapshot) {
  std::string out;
  AppendF(&out, "metrics mode: %s\n", MetricsModeName(snapshot.mode));

  out.append("\nglobal stats:\n");
#define TESLA_STATS_TEXT(name, desc, replay) \
  AppendF(&out, "  %-25s %12" PRIu64 "   %s\n", #name, snapshot.stats.name, desc);
  TESLA_RUNTIME_STATS(TESLA_STATS_TEXT)
#undef TESLA_STATS_TEXT

  if (!snapshot.queue_producers.empty()) {
    out.append("\nqueue producers:\n");
    AppendF(&out, "  %-10s %12s %12s %12s %14s\n", "producer", "enqueued", "dropped",
            "rejected", "blocked_spins");
    for (size_t p = 0; p < snapshot.queue_producers.size(); p++) {
      const QueueProducerSnapshot& producer = snapshot.queue_producers[p];
      AppendF(&out, "  %-10zu %12" PRIu64 " %12" PRIu64 " %12" PRIu64 " %14" PRIu64 "\n",
              p, producer.enqueued, producer.dropped, producer.rejected,
              producer.blocked_spins);
    }
  }
  if (!snapshot.queue_consumers.empty()) {
    out.append("\nqueue consumers:\n");
    AppendF(&out, "  %-10s %10s %10s %12s %13s %8s %12s\n", "consumer", "batches",
            "events", "forwards_in", "forwards_out", "steals", "busy_ms");
    for (size_t c = 0; c < snapshot.queue_consumers.size(); c++) {
      const QueueConsumerSnapshot& consumer = snapshot.queue_consumers[c];
      AppendF(&out,
              "  %-10zu %10" PRIu64 " %10" PRIu64 " %12" PRIu64 " %13" PRIu64
              " %8" PRIu64 " %12.2f\n",
              c, consumer.batches, consumer.events, consumer.forwards_in,
              consumer.forwards_out, consumer.steals,
              static_cast<double>(consumer.busy_ns) / 1e6);
    }
  }

  if (!snapshot.classes.empty()) {
    out.append("\nper-class counters:\n");
    AppendF(&out, "  %-40s", "automaton");
    for (size_t k = 0; k < kClassCounterCount; k++) {
      AppendF(&out, " %12s", kClassCounterNames[k]);
    }
    out.push_back('\n');
    for (const ClassSnapshot& cls : snapshot.classes) {
      AppendF(&out, "  %-40s", cls.name.c_str());
      for (size_t k = 0; k < kClassCounterCount; k++) {
        AppendF(&out, " %12" PRIu64, cls.counters[k]);
      }
      out.push_back('\n');
    }
  }

  if (snapshot.mode == MetricsMode::kFull) {
    out.append("\ndispatch latency (ns, bucket upper bounds):\n");
    AppendF(&out, "  %-16s %12s %10s %10s %10s\n", "event kind", "count", "p50", "p99",
            "max");
    for (size_t kind = 0; kind < kEventKinds; kind++) {
      const HistogramData& hist = snapshot.histograms[kind];
      AppendF(&out, "  %-16s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64 "\n",
              kEventKindNames[kind], hist.count, hist.QuantileNs(0.50),
              hist.QuantileNs(0.99), hist.MaxNs());
    }
  }

  if (!snapshot.classes.empty()) {
    out.append("\ntransition coverage:\n");
    for (const ClassSnapshot& cls : snapshot.classes) {
      AppendF(&out, "  %s: %zu/%zu transitions (%.0f%%)\n", cls.name.c_str(),
              cls.CoveredTransitions(), cls.transitions.size(),
              100.0 * cls.CoverageRatio());
      for (const TransitionCoverage& tc : cls.transitions) {
        AppendF(&out, "    [%s] %s\n", tc.fired ? "x" : " ", tc.description.c_str());
      }
    }
  }
  return out;
}

std::string RenderUncovered(const Snapshot& snapshot) {
  std::string out;
  for (const ClassSnapshot& cls : snapshot.classes) {
    if (cls.transitions.empty() || cls.CoveredTransitions() == cls.transitions.size()) {
      continue;
    }
    AppendF(&out, "%s: %zu uncovered transition(s) — possible dead clauses:\n",
            cls.name.c_str(), cls.transitions.size() - cls.CoveredTransitions());
    for (const TransitionCoverage& tc : cls.transitions) {
      if (!tc.fired) {
        AppendF(&out, "  %s\n", tc.description.c_str());
      }
    }
  }
  return out;
}

}  // namespace tesla::metrics

#include "ipc/merge.h"

#include <algorithm>
#include <map>

#include "support/strings.h"

namespace tesla::ipc {
namespace {

// Transition grids are comparable only when they describe the same automaton
// build: same (state, symbol) slots with the same human description. A
// mismatch means the shards ran different assertion sets (or different
// compiler versions of one), and OR-ing their coverage bits would fabricate
// a verdict.
Status CheckSameGrid(const metrics::ClassSnapshot& have, const metrics::ClassSnapshot& add,
                     const std::string& label) {
  if (have.transitions.size() != add.transitions.size()) {
    return Error{"capture '" + label + "': class '" + add.name + "' has " +
                     std::to_string(add.transitions.size()) +
                     " statically-valid transitions where earlier shards had " +
                     std::to_string(have.transitions.size()) +
                     " — shards recorded against different assertion sets",
                 0, 0, trace::kErrVersionMismatch};
  }
  for (size_t i = 0; i < have.transitions.size(); i++) {
    const metrics::TransitionCoverage& a = have.transitions[i];
    const metrics::TransitionCoverage& b = add.transitions[i];
    if (a.state != b.state || a.symbol != b.symbol || a.description != b.description) {
      return Error{"capture '" + label + "': class '" + add.name + "' transition #" +
                       std::to_string(i) + " (" + b.description +
                       ") disagrees with earlier shards (" + a.description +
                       ") — shards recorded against different assertion sets",
                   0, 0, trace::kErrVersionMismatch};
    }
  }
  return Status::Ok();
}

}  // namespace

Result<FleetReport> MergeCaptures(const std::vector<trace::TraceFile>& captures,
                                  const std::vector<std::string>& labels) {
  if (captures.empty()) {
    return Error{"merge needs at least one capture"};
  }
  FleetReport report;

  // Violation census and per-class metrics both accumulate in ordered maps —
  // the sort that makes the output independent of input order.
  std::map<std::pair<int, std::string>, uint64_t> violations;
  std::map<std::string, metrics::ClassSnapshot> classes;

  for (size_t i = 0; i < captures.size(); i++) {
    const trace::TraceFile& capture = captures[i];
    const std::string& label = i < labels.size() ? labels[i] : "capture";
    report.shards++;
    report.dropped += capture.summary.dropped;
    report.events += capture.records.size();
    for (const trace::StatsField& field : trace::kStatsFields) {
      report.stats.*field.field += capture.summary.stats.*field.field;
    }
    for (const auto& [kind, automaton] : capture.summary.violations) {
      violations[{static_cast<int>(kind), automaton}]++;
    }
    if (capture.summary.has_profile) {
      report.has_profile = true;
      report.profile_shards++;
      // MergeInto is commutative and associative and sorts classes by name,
      // so the fleet profile is independent of input order, like the rest.
      profile::MergeInto(&report.profile, capture.summary.profile);
    }
    if (!capture.summary.has_metrics) {
      continue;
    }
    report.has_metrics = true;
    report.metric_shards++;
    const metrics::Snapshot& snapshot = capture.summary.metrics;
    if (static_cast<int>(snapshot.mode) > static_cast<int>(report.metrics.mode)) {
      report.metrics.mode = snapshot.mode;
    }
    for (const metrics::ClassSnapshot& cls : snapshot.classes) {
      auto [it, inserted] = classes.try_emplace(cls.name, cls);
      if (inserted) {
        continue;
      }
      if (Status status = CheckSameGrid(it->second, cls, label); !status.ok()) {
        return status.error();
      }
      for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
        it->second.counters[k] += cls.counters[k];
      }
      for (size_t t = 0; t < cls.transitions.size(); t++) {
        it->second.transitions[t].fired |= cls.transitions[t].fired;
      }
    }
    for (size_t kind = 0; kind < metrics::kEventKinds; kind++) {
      const metrics::HistogramData& from = snapshot.histograms[kind];
      metrics::HistogramData& into = report.metrics.histograms[kind];
      into.count += from.count;
      into.sum_ns += from.sum_ns;
      for (size_t b = 0; b < metrics::kHistogramBuckets; b++) {
        into.buckets[b] += from.buckets[b];
      }
    }
    // Queue producer/consumer sections are per-process wall-clock detail
    // that does not aggregate meaningfully across shards; leaving the
    // vectors empty suppresses them in every exposition format.
  }

  for (auto& [key, count] : violations) {
    report.violations.push_back(ViolationCount{
        static_cast<runtime::ViolationKind>(key.first), key.second, count});
  }
  report.metrics.stats = report.stats;
  for (auto& [name, cls] : classes) {
    report.metrics.classes.push_back(std::move(cls));
  }
  return report;
}

Result<FleetReport> MergeCaptureFiles(const std::vector<std::string>& paths) {
  std::vector<trace::TraceFile> captures;
  captures.reserve(paths.size());
  for (const std::string& path : paths) {
    Result<trace::TraceFile> read = trace::TraceFile::Read(path);
    if (!read.ok()) {
      return read.error();
    }
    captures.push_back(std::move(read.value()));
  }
  return MergeCaptures(captures, paths);
}

std::string FleetToJson(const FleetReport& report) {
  std::string out = "{\n";
  out += "  \"fleet\": {\n";
  out += "    \"shards\": " + std::to_string(report.shards) + ",\n";
  out += "    \"metric_shards\": " + std::to_string(report.metric_shards) + ",\n";
  out += "    \"events\": " + std::to_string(report.events) + ",\n";
  out += "    \"dropped\": " + std::to_string(report.dropped) + "\n";
  out += "  },\n";
  out += "  \"stats\": {\n";
  bool first = true;
  for (const trace::StatsField& field : trace::kStatsFields) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "    \"" + std::string(field.name) +
           "\": " + std::to_string(report.stats.*field.field);
  }
  out += "\n  },\n";
  out += "  \"violations\": [";
  for (size_t i = 0; i < report.violations.size(); i++) {
    const ViolationCount& violation = report.violations[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"";
    out += runtime::ViolationKindName(violation.kind);
    out += "\", \"automaton\": ";
    AppendJsonString(&out, violation.automaton);
    out += ", \"count\": " + std::to_string(violation.count) + "}";
  }
  out += report.violations.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  if (report.has_metrics) {
    out += metrics::ToJson(report.metrics);
  } else {
    out += "null";
  }
  out += ",\n  \"profile\": ";
  if (report.has_profile) {
    out += profile::ToJson(report.profile);
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

std::string FleetToPrometheus(const FleetReport& report) {
  std::string out;
  out +=
      "# HELP tesla_fleet_shards captures merged into this report\n"
      "# TYPE tesla_fleet_shards gauge\n"
      "tesla_fleet_shards " + std::to_string(report.shards) + "\n";
  out +=
      "# HELP tesla_fleet_metric_shards merged captures that carried a metrics snapshot\n"
      "# TYPE tesla_fleet_metric_shards gauge\n"
      "tesla_fleet_metric_shards " + std::to_string(report.metric_shards) + "\n";
  out +=
      "# HELP tesla_fleet_capture_drops_total capture-side event drops summed over shards\n"
      "# TYPE tesla_fleet_capture_drops_total counter\n"
      "tesla_fleet_capture_drops_total " + std::to_string(report.dropped) + "\n";
  if (!report.violations.empty()) {
    out +=
        "# HELP tesla_fleet_violations_total fleet-wide violation census by kind and "
        "automaton\n"
        "# TYPE tesla_fleet_violations_total counter\n";
    for (const ViolationCount& violation : report.violations) {
      out += "tesla_fleet_violations_total{kind=\"";
      out += runtime::ViolationKindName(violation.kind);
      out += "\",automaton=\"";
      AppendPromLabel(&out, violation.automaton);
      out += "\"} " + std::to_string(violation.count) + "\n";
    }
  }
  out += metrics::ToPrometheus(report.metrics);
  if (report.has_profile) {
    out +=
        "# HELP tesla_fleet_profile_shards merged captures that carried a workload "
        "profile\n"
        "# TYPE tesla_fleet_profile_shards gauge\n"
        "tesla_fleet_profile_shards " + std::to_string(report.profile_shards) + "\n";
    out += profile::ToPrometheus(report.profile);
  }
  return out;
}

}  // namespace tesla::ipc

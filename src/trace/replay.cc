#include "trace/replay.h"

#include <map>
#include <memory>
#include <span>

#include "support/intern.h"
#include "trace/origins.h"

namespace tesla::trace {
namespace {

class ViolationCollector : public runtime::EventHandler {
 public:
  void OnViolation(const runtime::ClassInfo& cls,
                   const runtime::Violation& violation) override {
    violations_.emplace_back(violation.kind, violation.automaton);
  }

  std::vector<std::pair<runtime::ViolationKind, std::string>> take() {
    return std::move(violations_);
  }

 private:
  std::vector<std::pair<runtime::ViolationKind, std::string>> violations_;
};

}  // namespace

Status WriteCapture(const std::string& path, const std::string& origin,
                    const runtime::Runtime& rt) {
  const Recorder* recorder = rt.recorder();
  if (recorder == nullptr || recorder->mode() != TraceMode::kFullCapture) {
    return Error{"writing a capture requires trace_mode = full-capture"};
  }
  Snapshot snapshot = recorder->Harvest();

  TraceFile file;
  // Embedding the registered manifest makes the capture self-describing:
  // replay prefers it over resolving `origin`, so the file replays on any
  // machine — including user assertion sets no build ships a manifest for.
  static_cast<Plan&>(file) = Plan::Of(origin, rt.options(), rt.ManifestText());
  const StringInterner& interner = GlobalInterner();
  file.symbols.reserve(interner.size());
  for (Symbol symbol = 0; symbol < interner.size(); symbol++) {
    file.symbols.push_back(interner.Spelling(symbol));
  }
  file.records = std::move(snapshot.records);
  file.summary.dropped = snapshot.dropped;
  file.summary.stats = rt.stats();
  file.summary.violations = rt.violation_log();
  // The sections follow the options: one collector serves both views.
  if (rt.options().metrics_mode != metrics::MetricsMode::kOff) {
    file.summary.has_metrics = true;
    file.summary.metrics = rt.CollectMetrics();
  }
  if (rt.options().profile) {
    file.summary.has_profile = true;
    file.summary.profile = rt.CollectProfile();
  }
  return file.Write(path);
}

runtime::RuntimeOptions ReplayOptions(const TraceFile& file) {
  // The plan inputs include the hints, which decide the index key (so
  // index_probes vs index_scans) and the pool sizes: a hinted capture
  // replays hinted.
  runtime::RuntimeOptions options = file.ToRuntimeOptions();
  options.fail_stop = false;
  options.trace_mode = TraceMode::kOff;
  // A capture with an embedded metrics section is replayed with counters on
  // so per-class counters and transition coverage can be diffed. Histograms
  // stay off — they time the replayer, not the original run.
  options.metrics_mode = file.summary.has_metrics ? metrics::MetricsMode::kCounters
                                                  : metrics::MetricsMode::kOff;
  // Likewise, a capture with an embedded profile section is replayed with
  // profiling on so the deterministic cells can be diffed.
  options.profile = file.summary.has_profile;
  return options;
}

Result<ReplayResult> Replay(const TraceFile& file, runtime::Runtime& rt) {
  ViolationCollector collector;
  rt.AddHandler(&collector);

  // One replay context per capture context, fed in global sequence order and
  // batched by runs of the same context — the batch path (OnEvents) is both
  // the fast path and the code under differential test here.
  std::map<uint32_t, std::unique_ptr<runtime::ThreadContext>> contexts;
  std::vector<runtime::Event> batch;
  ReplayResult result;
  size_t i = 0;
  while (i < file.records.size()) {
    const uint32_t ctx_id = file.records[i].ctx;
    batch.clear();
    while (i < file.records.size() && file.records[i].ctx == ctx_id) {
      batch.push_back(ToEvent(file.records[i]));
      i++;
    }
    std::unique_ptr<runtime::ThreadContext>& ctx = contexts[ctx_id];
    if (ctx == nullptr) {
      ctx = std::make_unique<runtime::ThreadContext>(rt);
    }
    rt.OnEvents(*ctx, std::span<const runtime::Event>(batch.data(), batch.size()));
    result.events_replayed += batch.size();
  }
  contexts.clear();

  result.stats = rt.stats();
  result.violations = collector.take();
  result.matched = true;
  if (file.summary.dropped > 0) {
    result.matched = false;
    result.divergence += "capture dropped " + std::to_string(file.summary.dropped) +
                         " records; the replayed history is incomplete\n";
  }
  for (const StatsField& field : kStatsFields) {
    if (!field.replay_compared) {
      continue;  // ingestion-side / wall-clock counters; see options.h
    }
    const uint64_t want = file.summary.stats.*field.field;
    const uint64_t got = result.stats.*field.field;
    if (want != got) {
      result.matched = false;
      result.divergence += std::string(field.name) + ": capture " + std::to_string(want) +
                           " vs replay " + std::to_string(got) + "\n";
    }
  }
  if (file.summary.has_metrics && rt.options().metrics_mode != metrics::MetricsMode::kOff) {
    result.metrics = rt.CollectMetrics();
    const metrics::Snapshot& want = file.summary.metrics;
    if (want.classes.size() != result.metrics.classes.size()) {
      result.matched = false;
      result.divergence += "metrics class count: capture " +
                           std::to_string(want.classes.size()) + " vs replay " +
                           std::to_string(result.metrics.classes.size()) + "\n";
    } else {
      for (size_t c = 0; c < want.classes.size(); c++) {
        const metrics::ClassSnapshot& a = want.classes[c];
        const metrics::ClassSnapshot& b = result.metrics.classes[c];
        for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
          if (a.counters[k] != b.counters[k]) {
            result.matched = false;
            result.divergence += "metrics " + a.name + "." +
                                 metrics::kClassCounterNames[k] + ": capture " +
                                 std::to_string(a.counters[k]) + " vs replay " +
                                 std::to_string(b.counters[k]) + "\n";
          }
        }
        if (a.transitions.size() != b.transitions.size()) {
          result.matched = false;
          result.divergence += "metrics " + a.name + " coverage grid: capture " +
                               std::to_string(a.transitions.size()) + " vs replay " +
                               std::to_string(b.transitions.size()) + " transitions\n";
          continue;
        }
        for (size_t t = 0; t < a.transitions.size(); t++) {
          if (a.transitions[t].fired != b.transitions[t].fired) {
            result.matched = false;
            result.divergence += "coverage " + a.name + " [" +
                                 a.transitions[t].description + "]: capture " +
                                 (a.transitions[t].fired ? "fired" : "never") +
                                 " vs replay " +
                                 (b.transitions[t].fired ? "fired" : "never") + "\n";
          }
        }
      }
    }
  }

  if (file.summary.has_profile && rt.options().profile) {
    result.profile = rt.CollectProfile();
    const profile::Snapshot& want = file.summary.profile;
    if (want.classes.size() != result.profile.classes.size()) {
      result.matched = false;
      result.divergence += "profile class count: capture " +
                           std::to_string(want.classes.size()) + " vs replay " +
                           std::to_string(result.profile.classes.size()) + "\n";
    } else {
      for (size_t c = 0; c < want.classes.size(); c++) {
        const profile::ClassProfile& a = want.classes[c];
        const profile::ClassProfile& b = result.profile.classes[c];
        for (size_t i = 0; i < profile::kCellCount; i++) {
          if (!profile::kCellDeterministic[i]) {
            continue;  // latency cells time the replayer, not the capture
          }
          if (a.cells[i] != b.cells[i]) {
            result.matched = false;
            result.divergence += "profile " + a.name + "." + profile::kCellNames[i] +
                                 ": capture " + std::to_string(a.cells[i]) +
                                 " vs replay " + std::to_string(b.cells[i]) + "\n";
          }
        }
        for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
          if (a.var_partial[p] != b.var_partial[p]) {
            result.matched = false;
            result.divergence += "profile " + a.name + " partial[" + std::to_string(p) +
                                 "]: capture " + std::to_string(a.var_partial[p]) +
                                 " vs replay " + std::to_string(b.var_partial[p]) + "\n";
          }
          for (size_t w = 0; w < profile::kSketchWords; w++) {
            if (a.sketch[p][w] != b.sketch[p][w]) {
              result.matched = false;
              result.divergence += "profile " + a.name + " sketch[" + std::to_string(p) +
                                   "] diverges\n";
              break;
            }
          }
        }
      }
    }
  }

  if (file.summary.violations.size() != result.violations.size()) {
    result.matched = false;
    result.divergence += "violation count: capture " +
                         std::to_string(file.summary.violations.size()) + " vs replay " +
                         std::to_string(result.violations.size()) + "\n";
  } else {
    for (size_t v = 0; v < result.violations.size(); v++) {
      if (file.summary.violations[v] != result.violations[v]) {
        result.matched = false;
        result.divergence += "violation #" + std::to_string(v) + ": capture (" +
                             std::string(runtime::ViolationKindName(
                                 file.summary.violations[v].first)) +
                             ", " + file.summary.violations[v].second + ") vs replay (" +
                             std::string(runtime::ViolationKindName(
                                 result.violations[v].first)) +
                             ", " + result.violations[v].second + ")\n";
      }
    }
  }
  return result;
}

Result<ReplayResult> ReplayFile(const std::string& path) {
  Result<TraceFile> read = TraceFile::Read(path);
  if (!read.ok()) {
    return read.error();
  }
  TraceFile file = std::move(read.value());
  // A capture with an embedded manifest is self-describing: the manifest
  // wins, so the origin string is informational and replay needs no
  // built-in manifest. Writers that embedded nothing fall back to origin
  // resolution — including the file:<path> form.
  Result<automata::Manifest> manifest =
      file.manifest_text.empty() ? ManifestForOrigin(file.origin)
                                 : automata::Manifest::Deserialize(file.manifest_text);
  if (!manifest.ok()) {
    Error error = manifest.error();
    if (!file.manifest_text.empty()) {
      error.message = "embedded manifest: " + error.message;
      error.code = kErrCorrupt;
    }
    return error;
  }
  file.InternAndRemap();
  runtime::Runtime rt(ReplayOptions(file));
  if (Status status = rt.Register(manifest.value()); !status.ok()) {
    return status.error();
  }
  return Replay(file, rt);
}

}  // namespace tesla::trace

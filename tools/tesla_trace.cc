// tesla-trace: inspect, replay, aggregate and live-attach TESLA captures.
//
//   tesla-trace dump    <file>          print the plan (options, hints)
//                                       and every record
//   tesla-trace stats   <file>          print the capture's semantic summary
//                                       and, when a metrics section is
//                                       embedded, the per-class counters,
//                                       latency histograms and transition-
//                                       coverage table (--json / --prom
//                                       re-emit that snapshot instead)
//   tesla-trace replay  <file>          re-run the events through a fresh
//                                       Runtime and verify stats, violations
//                                       and — when the capture embeds
//                                       metrics — per-class counters and
//                                       transition coverage all match; exit
//                                       0 on an exact reproduction
//   tesla-trace emit-manifest <file>    extract a capture's embedded
//                                       manifest (or resolve its origin) as
//                                       a standalone .tesla blob usable as a
//                                       file:<path> origin anywhere
//   tesla-trace attach  <shm-name>      attach to a live instrumented
//                                       process's shm segment (see
//                                       src/ipc), register its embedded
//                                       manifest under the publisher's
//                                       options and plan inputs, and
//                                       dispatch its event
//                                       stream as an out-of-process sidecar
//                                       checker until the publisher closes
//                                       (exit 1 if a lane is corrupt)
//       [--manifest f.tesla]            override the embedded manifest
//       [--origin name]                 override with a built-in origin
//       [--out capture]                 also record a replayable capture
//       [--timeout-ms N]                attach wait (default 5000)
//   tesla-trace merge   <file>... --out fleet.json [--json|--prom]
//                                       union captures from a fleet of
//                                       shards into one deterministic
//                                       report: stats summed, coverage
//                                       OR'd, violations as a census
//   tesla-trace profile <file>... [--json|--prom] [--hints-out hints]
//                                       render the embedded workload
//                                       profile — hot-class ranking,
//                                       scan-fallback offenders, capacity
//                                       headroom; multiple captures merge
//                                       first. --hints-out compiles the
//                                       profile into a PlanHints file that
//                                       feeds back into Register() (e.g.
//                                       mac_audit --plan-hints)
//
// Exit codes (scriptable error classes — the CI smokes branch on them):
//   0  success / exact reproduction
//   1  failure: divergence, corrupt input, violation in the checked stream
//   2  usage error
//   3  unreadable input (missing file, shm name never appeared, I/O error)
//   4  unknown capture origin
//   5  version mismatch (capture or shm segment of another format version)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ipc/merge.h"
#include "ipc/subscriber.h"
#include "metrics/snapshot.h"
#include "profile/hints.h"
#include "profile/snapshot.h"
#include "support/log.h"
#include "trace/forensics.h"
#include "trace/format.h"
#include "trace/origins.h"
#include "trace/replay.h"

namespace {

using namespace tesla;
using namespace tesla::trace;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tesla-trace dump    <capture>\n"
               "  tesla-trace stats   <capture> [--json|--prom]\n"
               "  tesla-trace replay  <capture>\n"
               "  tesla-trace emit-manifest <capture> [--out manifest.tesla]\n"
               "  tesla-trace attach  <shm-name> [--manifest f.tesla] [--origin o]\n"
               "                      [--out capture] [--timeout-ms N]\n"
               "  tesla-trace merge   <capture>... [--out file] [--json|--prom]\n"
               "  tesla-trace profile <capture>... [--json|--prom] [--hints-out file]\n");
  std::fprintf(stderr, "known origins:");
  for (const std::string& origin : KnownOrigins()) {
    std::fprintf(stderr, " %s", origin.c_str());
  }
  std::fprintf(stderr, " file:<manifest.tesla>\n");
  return 2;
}

// Error::code (trace::ErrorCode) → the CLI's exit-code contract above.
int ExitCodeFor(const Error& error) {
  switch (error.code) {
    case kErrUnreadable:
      return 3;
    case kErrUnknownOrigin:
      return 4;
    case kErrVersionMismatch:
      return 5;
    default:
      return 1;
  }
}

int Fail(const Error& error) {
  std::fprintf(stderr, "tesla-trace: %s\n", error.ToString().c_str());
  return ExitCodeFor(error);
}

bool WriteOutput(const std::string& path, const std::string& content) {
  if (path.empty() || path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "tesla-trace: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

void PrintHeader(const TraceFile& file) {
  std::printf("origin:   %s\n", file.origin.c_str());
  std::printf("options:  lazy_init=%d use_dfa=%d instance_index=%d "
              "instances_per_context=%" PRIu64 " global_shards=%" PRIu64 "\n",
              file.options.lazy_init ? 1 : 0, file.options.use_dfa ? 1 : 0,
              file.options.instance_index ? 1 : 0, file.options.instances_per_context,
              file.options.global_shards);
  std::printf("manifest: %s\n",
              file.manifest_text.empty() ? "none (resolve the origin)" : "embedded");
  std::printf("symbols:  %zu\n", file.symbols.size());
  std::printf("records:  %zu (%" PRIu64 " dropped at capture)\n", file.records.size(),
              file.summary.dropped);
}

void PrintSummary(const TraceFile& file) {
  std::printf("semantic stats:\n");
  for (const StatsField& field : kStatsFields) {
    std::printf("  %-26s %" PRIu64 "\n", field.name, file.summary.stats.*field.field);
  }
  std::printf("violations (%zu):\n", file.summary.violations.size());
  for (const auto& [kind, automaton] : file.summary.violations) {
    std::printf("  %s — '%s'\n", runtime::ViolationKindName(kind), automaton.c_str());
  }
}

int Dump(const TraceFile& file) {
  PrintHeader(file);
  // The plan input replay applies beyond the options line, in the
  // --plan-hints file format.
  std::printf("plan hints:\n%s", profile::HintsToText(file.plan_hints).c_str());
  // Resolve against the file's own symbol table — dumping never requires the
  // dumping process to know the capture's automata.
  SymbolResolver resolve = [&file](uint32_t symbol) -> std::string {
    return symbol < file.symbols.size() ? file.symbols[symbol]
                                        : "sym#" + std::to_string(symbol);
  };
  for (const TraceRecord& record : file.records) {
    std::printf("%s\n", DescribeRecord(record, resolve).c_str());
  }
  return 0;
}

int Stats(const TraceFile& file, const std::string& format) {
  if (format == "--json" || format == "--prom") {
    if (!file.summary.has_metrics) {
      std::fprintf(stderr, "tesla-trace: capture has no metrics section "
                           "(record with metrics_mode != off)\n");
      return 1;
    }
    const std::string out = format == "--json" ? metrics::ToJson(file.summary.metrics)
                                               : metrics::ToPrometheus(file.summary.metrics);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  PrintHeader(file);
  PrintSummary(file);
  if (file.summary.has_metrics) {
    std::printf("\n%s", metrics::RenderText(file.summary.metrics).c_str());
    const std::string uncovered = metrics::RenderUncovered(file.summary.metrics);
    if (!uncovered.empty()) {
      std::printf("\n%s", uncovered.c_str());
    }
  }
  return 0;
}

int Replay(const std::string& path) {
  SetLogLevel(LogLevel::kSilent);  // replayed violations are expected output
  Result<ReplayResult> replayed = ReplayFile(path);
  if (!replayed.ok()) {
    return Fail(replayed.error());
  }
  const ReplayResult& result = replayed.value();
  std::printf("replayed %" PRIu64 " events, %zu violations\n", result.events_replayed,
              result.violations.size());
  if (!result.matched) {
    std::printf("DIVERGED:\n%s", result.divergence.c_str());
    return 1;
  }
  if (!result.metrics.classes.empty()) {
    std::printf("capture reproduced exactly: stats, violation sequence, per-class "
                "counters and transition coverage match\n");
  } else {
    std::printf("capture reproduced exactly: stats and violation sequence match\n");
  }
  return 0;
}

// Extracts the capture's assertion set as a standalone .tesla manifest —
// the blob a `file:<path>` origin (or `tesla-trace attach --manifest`)
// consumes. Prefers the embedded manifest; falls back to resolving the
// origin when the writer embedded none.
int EmitManifest(const std::string& path, const std::string& output) {
  Result<TraceFile> read = TraceFile::Read(path);
  if (!read.ok()) {
    return Fail(read.error());
  }
  std::string text = read.value().manifest_text;
  if (text.empty()) {
    Result<automata::Manifest> manifest = ManifestForOrigin(read.value().origin);
    if (!manifest.ok()) {
      return Fail(manifest.error());
    }
    text = manifest.value().Serialize();
  }
  if (!WriteOutput(output, text)) {
    return 3;
  }
  if (!output.empty() && output != "-") {
    std::fprintf(stderr, "tesla-trace: wrote manifest to %s\n", output.c_str());
  }
  return 0;
}

int Attach(const std::string& shm_name, const std::string& manifest_path,
           const std::string& origin_override, const std::string& capture_out,
           int timeout_ms) {
  SetLogLevel(LogLevel::kSilent);  // the sidecar reports through its summary
  Result<std::unique_ptr<ipc::ShmSubscriber>> attached =
      ipc::ShmSubscriber::Attach(shm_name, timeout_ms);
  if (!attached.ok()) {
    return Fail(attached.error());
  }
  ipc::ShmSubscriber& subscriber = *attached.value();

  // Manifest precedence: an explicit --manifest / --origin override, else
  // the manifest embedded in the segment, else the publisher's origin.
  Result<automata::Manifest> manifest = [&]() -> Result<automata::Manifest> {
    if (!manifest_path.empty()) {
      return ManifestForOrigin("file:" + manifest_path);
    }
    if (!origin_override.empty()) {
      return ManifestForOrigin(origin_override);
    }
    if (!subscriber.info().manifest_text.empty()) {
      Result<automata::Manifest> embedded =
          automata::Manifest::Deserialize(subscriber.info().manifest_text);
      if (!embedded.ok()) {
        Error error = embedded.error();
        error.message = "segment manifest: " + error.message;
        error.code = trace::kErrCorrupt;
        return error;
      }
      return embedded;
    }
    return ManifestForOrigin(subscriber.info().origin);
  }();
  if (!manifest.ok()) {
    return Fail(manifest.error());
  }

  runtime::RuntimeOptions options = subscriber.PublisherRuntimeOptions();
  options.fail_stop = false;  // the sidecar reports every violation
  options.metrics_mode = metrics::MetricsMode::kCounters;
  if (!capture_out.empty()) {
    options.trace_mode = trace::TraceMode::kFullCapture;
  }
  runtime::Runtime rt(options);
  // Intern the publisher's symbols before Register() freezes the dispatch
  // plan; site targets ride on registration order instead.
  subscriber.InternSymbols();
  if (Status status = rt.Register(manifest.value()); !status.ok()) {
    return Fail(status.error());
  }

  const ipc::DrainReport report = ipc::DrainAll(subscriber, rt);
  std::printf("drained %" PRIu64 " events in %" PRIu64 " batches from '%s'\n",
              report.events, report.batches, shm_name.c_str());
  std::printf("verdict: %" PRIu64 " violations, %" PRIu64 " accepts, %" PRIu64
              " transitions\n",
              rt.stats().violations, rt.stats().accepts, rt.stats().transitions);
  if (report.producer_dropped != 0 || report.lane_overflow != 0) {
    std::fprintf(stderr,
                 "tesla-trace: publisher dropped %" PRIu64 " events, %" PRIu64
                 " from unassigned threads — the checked stream is incomplete\n",
                 report.producer_dropped, report.lane_overflow);
  }
  if (report.producer_died) {
    std::fprintf(stderr, "tesla-trace: publisher died without closing; drained "
                         "what its lanes still held\n");
  }
  if (report.corrupt_lanes != 0) {
    std::fprintf(stderr,
                 "tesla-trace: %" PRIu32 " lane(s) failed the record decoder's checks "
                 "and were abandoned — the segment is corrupt\n",
                 report.corrupt_lanes);
  }
  if (!capture_out.empty()) {
    if (Status status = WriteCapture(capture_out, subscriber.info().origin, rt);
        !status.ok()) {
      return Fail(status.error());
    }
    std::fprintf(stderr, "tesla-trace: wrote capture to %s\n", capture_out.c_str());
  }
  return report.corrupt_lanes != 0 ? 1 : 0;
}

int Merge(const std::vector<std::string>& paths, const std::string& output,
          const std::string& format) {
  Result<ipc::FleetReport> merged = ipc::MergeCaptureFiles(paths);
  if (!merged.ok()) {
    return Fail(merged.error());
  }
  const std::string out = format == "--prom" ? ipc::FleetToPrometheus(merged.value())
                                             : ipc::FleetToJson(merged.value());
  if (!WriteOutput(output, out)) {
    return 3;
  }
  if (!output.empty() && output != "-") {
    std::fprintf(stderr,
                 "tesla-trace: merged %" PRIu64 " shards (%" PRIu64 " events, %" PRIu64
                 " violation classes) into %s\n",
                 merged.value().shards, merged.value().events,
                 static_cast<uint64_t>(merged.value().violations.size()), output.c_str());
  }
  return 0;
}

// Renders a capture fleet's merged workload profile, and optionally compiles
// it into the PlanHints file the adaptive loop feeds back into Register().
int Profile(const std::vector<std::string>& paths, const std::string& output,
            const std::string& format, const std::string& hints_out) {
  Result<ipc::FleetReport> merged = ipc::MergeCaptureFiles(paths);
  if (!merged.ok()) {
    return Fail(merged.error());
  }
  if (!merged.value().has_profile) {
    std::fprintf(stderr, "tesla-trace: no capture carries a profile section "
                         "(record with RuntimeOptions::profile = true)\n");
    return 1;
  }
  const profile::Snapshot& snapshot = merged.value().profile;
  if (!hints_out.empty()) {
    const profile::PlanHints hints = profile::HintsFromSnapshot(snapshot);
    if (Status status = profile::WriteHintsFile(hints_out, hints); !status.ok()) {
      return Fail(status.error());
    }
    std::fprintf(stderr, "tesla-trace: wrote %zu class hints to %s\n",
                 hints.classes.size(), hints_out.c_str());
  }
  std::string out;
  if (format == "--json") {
    out = profile::ToJson(snapshot);
  } else if (format == "--prom") {
    out = profile::ToPrometheus(snapshot);
  } else {
    out = profile::RenderReport(snapshot);
  }
  if (!WriteOutput(output, out)) {
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];

  std::vector<std::string> positional;
  std::string format;
  std::string output;
  std::string manifest_path;
  std::string origin_override;
  std::string hints_out;
  int timeout_ms = 5000;

  for (int i = 2; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--prom") {
      format = arg;
    } else if (arg == "--out" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (arg == "--origin" && i + 1 < argc) {
      origin_override = argv[++i];
    } else if (arg == "--hints-out" && i + 1 < argc) {
      hints_out = argv[++i];
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "tesla-trace: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (command == "replay") {
    return positional.size() == 1 ? Replay(positional[0]) : Usage();
  }
  if (command == "emit-manifest") {
    return positional.size() == 1 ? EmitManifest(positional[0], output) : Usage();
  }
  if (command == "attach") {
    return positional.size() == 1
               ? Attach(positional[0], manifest_path, origin_override, output, timeout_ms)
               : Usage();
  }
  if (command == "merge") {
    return positional.empty() ? Usage() : Merge(positional, output, format);
  }
  if (command == "profile") {
    return positional.empty() ? Usage() : Profile(positional, output, format, hints_out);
  }
  if (command != "dump" && command != "stats") {
    return Usage();
  }
  if (positional.size() != 1) {
    return Usage();
  }
  Result<TraceFile> read = TraceFile::Read(positional[0]);
  if (!read.ok()) {
    return Fail(read.error());
  }
  return command == "dump" ? Dump(read.value()) : Stats(read.value(), format);
}

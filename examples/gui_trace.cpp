// gui_trace: the paper's §3.5.3 GNUstep study, reproduced.
//
// TESLA as an *introspection* tool: the fig. 8 assertion instruments ~110
// AppKit methods through the Objective-C runtime's interposition table, the
// automaton accepts everything (it is a tracing net, not a checker), and a
// custom handler records the event stream. Analysing the trace reveals the
// cursor push/pop bug: mouse-entered events not paired with mouse-exited
// events push duplicate cursors, leaving the UI in the wrong state.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "metrics/snapshot.h"
#include "objsim/appkit.h"
#include "objsim/trace.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "trace/replay.h"

namespace {

using namespace tesla;
using namespace tesla::objsim;

std::vector<UiEvent> MouseSweep(int steps) {
  std::vector<UiEvent> events;
  for (int i = 0; i < steps; i++) {
    events.push_back({UiEvent::Kind::kMouseMove, (i % 6) * 100 + 50, 50});
  }
  return events;
}

// Writes the runtime's merged metrics snapshot to `path`: JSON when the path
// ends in ".json", Prometheus text exposition otherwise.
bool WriteMetrics(const char* path, const runtime::Runtime& rt) {
  const std::string name = path;
  const bool json = name.size() >= 5 && name.compare(name.size() - 5, 5, ".json") == 0;
  const metrics::Snapshot snapshot = rt.CollectMetrics();
  const std::string out = json ? metrics::ToJson(snapshot) : metrics::ToPrometheus(snapshot);
  std::FILE* file = std::fopen(path, "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "metrics: cannot open '%s' for writing\n", path);
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), file);
  std::fclose(file);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out <path>: record the whole run and write a replayable capture.
  // --metrics-out <path>: write the metrics snapshot (.json → JSON, else
  // Prometheus text) after the session ends.
  // --async-queue: dispatch through tesla::queue drain threads instead of
  // inline on the run-loop thread.
  // --queue-consumers=N: drain threads for --async-queue (shard-owning
  // multi-consumer dispatch; default 1).
  const char* trace_out = nullptr;
  const char* metrics_out = nullptr;
  bool async_queue = false;
  queue::QueueOptions queue_options;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--async-queue") == 0) {
      async_queue = true;
    } else if (std::strncmp(argv[i], "--queue-consumers=", 18) == 0) {
      queue_options.consumers = static_cast<size_t>(std::strtoul(argv[i] + 18, nullptr, 10));
    }
  }

  runtime::RuntimeOptions options;
  options.fail_stop = false;
  if (trace_out != nullptr) {
    options.trace_mode = tesla::trace::TraceMode::kFullCapture;
  }
  if (metrics_out != nullptr) {
    options.metrics_mode = metrics::MetricsMode::kFull;
  }
  runtime::Runtime tesla_rt(options);
  runtime::ThreadContext ctx(tesla_rt);

  ObjcRuntime objc(TraceMode::kTesla);
  AppKitConfig config;
  config.cursor_unbalanced_bug = true;  // the June-2013 GNUstep bug
  AppKit app(objc, config);

  auto installed = GuiTesla::Install(tesla_rt, ctx, app);
  if (!installed.ok()) {
    std::fprintf(stderr, "install: %s\n", installed.error().ToString().c_str());
    return 1;
  }
  GuiTesla& tesla = **installed;
  tesla.EnableTraceRecording(true);

  // With --async-queue the interposed AppKit messages pay only an SPSC
  // enqueue; Stop() below flushes before the trace is analysed. Started
  // after Install(): consumer shard ownership is computed from the
  // compiled plan.
  std::unique_ptr<queue::EventQueue> queue;
  if (async_queue) {
    queue = std::make_unique<queue::EventQueue>(tesla_rt, queue_options);
    queue->Start();
  }

  std::printf("instrumented %zu selectors via runtime interposition (fig. 8)\n\n",
              app.InstrumentedSelectors().size());

  // Drive the app: the user sweeps the mouse across views for a few frames.
  std::vector<UiEvent> sweep = MouseSweep(18);
  for (int frame = 0; frame < 6; frame++) {
    app.RunLoopIteration(std::span<const UiEvent>(sweep.data(), sweep.size()));
  }

  // Flush and stop before the analysis: every interposed message has been
  // dispatched, so the trace below matches an inline run.
  if (queue != nullptr) {
    queue->Stop();
  }

  std::printf("run-loop iterations: %llu, messages traced: %llu, violations: %llu\n\n",
              static_cast<unsigned long long>(app.run_loop()->iterations),
              static_cast<unsigned long long>(tesla.total_events()),
              static_cast<unsigned long long>(tesla_rt.stats().violations));

  // The §3.5.3 analysis: pair pushes with pops per iteration.
  std::printf("cursor stack balance per run-loop iteration (push - pop):\n");
  int64_t total_imbalance = 0;
  for (const auto& [iteration, delta] : tesla.CursorImbalanceByIteration()) {
    std::printf("  iteration %llu: %+lld%s\n", static_cast<unsigned long long>(iteration),
                static_cast<long long>(delta), delta > 1 ? "   <-- unbalanced!" : "");
    total_imbalance += delta;
  }
  std::printf("\ncursor stack depth after the session: %zu (pushes %llu, pops %llu)\n",
              app.cursor_stack_depth(), static_cast<unsigned long long>(app.cursor_pushes()),
              static_cast<unsigned long long>(app.cursor_pops()));

  // Show a slice of the recorded trace, as handed to the GNUstep developers.
  std::printf("\nfirst cursor events in the trace:\n");
  int shown = 0;
  for (const TraceEvent& event : tesla.trace()) {
    if (event.selector == "push" || event.selector == "pop" ||
        event.selector == "mouseEntered" || event.selector == "mouseExited") {
      std::printf("  [iter %llu] %-14s receiver #%llu\n",
                  static_cast<unsigned long long>(event.iteration), event.selector.c_str(),
                  static_cast<unsigned long long>(event.receiver));
      if (++shown == 14) {
        break;
      }
    }
  }

  // §3.5.3's second insight: profiling exposes optimisation opportunities.
  auto profile = tesla.AnalyseSaveRestorePairs();
  std::printf("\ngraphics-state profile: %llu save/restore pairs, %llu elidable\n"
              "(only colour/position changed in between — \"before examining these traces\n"
              "it was not obvious that this would be a worthwhile change\")\n",
              static_cast<unsigned long long>(profile.total_pairs),
              static_cast<unsigned long long>(profile.elidable_pairs));

  std::printf("\ndiagnosis: %s\n",
              total_imbalance > 1
                  ? "mouse-entered events are not correctly paired with mouse-exited "
                    "events;\nthe same cursors are pushed onto the cursor stack multiple times."
                  : "cursor traffic is balanced.");
  if (trace_out != nullptr) {
    if (auto status = tesla::trace::WriteCapture(trace_out, "objsim:gui", tesla_rt);
        !status.ok()) {
      std::fprintf(stderr, "trace capture: %s\n", status.error().ToString().c_str());
      return 1;
    }
    std::printf("\ntrace capture written to %s (%llu events)\n", trace_out,
                static_cast<unsigned long long>(tesla_rt.stats().events));
  }
  if (metrics_out != nullptr) {
    if (!WriteMetrics(metrics_out, tesla_rt)) {
      return 1;
    }
    std::printf("\nmetrics written to %s\n", metrics_out);
  }

  return total_imbalance > 1 ? 0 : 1;
}

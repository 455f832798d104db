// watchdog_slo: timed assertions (within_ms / rate) over the kernelsim
// watchdog service loop.
//
// The kernel's watchdog SLO says: once the service loop arms the hardware
// watchdog it must pat it within 10 ms, and a healthy pass never fields more
// than 8 device kicks in one 10 ms window. Neither property is an *ordering*
// — every event happens, in the right order — so no classic TESLA assertion
// can see the bug this demo injects: a retry loop that stalls the service
// thread 15 ms between arm and pat. The kSetTimed assertions catch it as
// kDeadlineExpired, fired by the deadline wheel when the (too-late) pat
// event's timestamp lands past the armed deadline.
//
// The kernel runs on a virtual clock wired into RuntimeOptions::now_ns, so
// runs are deterministic: the same flags produce the same verdicts, and a
// --trace-out capture replays to byte-identical timed verdicts from the
// recorded timestamps (no wall clock involved anywhere).
//
//   (no flags)      clean run: 0 violations, exit 0
//   --bug           inject the slow-service stall: exit 0 iff within_ms fires
//   --storm         9 kicks per pass: exit 0 iff rate() fires
//   --async-queue   dispatch through tesla::queue drain threads
//   --queue-consumers=N   drain threads for --async-queue
//   --trace-out <path>    write a replayable capture (TSLATRC v6: records
//                         carry the virtual-clock timestamps)
//   --metrics-out <path>  write the metrics snapshot (tesla_deadline_* rows)
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "metrics/snapshot.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "support/log.h"
#include "trace/replay.h"

namespace {

using namespace tesla;
using namespace tesla::kernelsim;

class SloLog : public runtime::EventHandler {
 public:
  void OnViolation(const runtime::ClassInfo& cls, const runtime::Violation& violation) override {
    std::printf("  !! TESLA: %s — automaton '%s' (%s)\n",
                runtime::ViolationKindName(violation.kind), violation.automaton.c_str(),
                violation.detail.c_str());
    if (violation.kind == runtime::ViolationKind::kDeadlineExpired) {
      deadline_.fetch_add(1, std::memory_order_relaxed);
    }
    if (violation.kind == runtime::ViolationKind::kRateExceeded) {
      rate_.fetch_add(1, std::memory_order_relaxed);
    }
    total_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t deadline() const { return deadline_.load(std::memory_order_relaxed); }
  uint64_t rate() const { return rate_.load(std::memory_order_relaxed); }
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> deadline_{0};
  std::atomic<uint64_t> rate_{0};
  std::atomic<uint64_t> total_{0};
};

}  // namespace

int main(int argc, char** argv) {
  const char* trace_out = nullptr;
  const char* metrics_out = nullptr;
  bool bug = false;
  bool storm = false;
  bool async_queue = false;
  queue::QueueOptions queue_options;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--bug") == 0) {
      bug = true;
    } else if (std::strcmp(argv[i], "--storm") == 0) {
      storm = true;
    } else if (std::strcmp(argv[i], "--async-queue") == 0) {
      async_queue = true;
    } else if (std::strncmp(argv[i], "--queue-consumers=", 18) == 0) {
      queue_options.consumers = static_cast<size_t>(std::strtoul(argv[i] + 18, nullptr, 10));
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }

  SetLogLevel(LogLevel::kSilent);

  // The virtual clock: kernelsim advances it as simulated work happens and
  // every TESLA event is stamped from it — determinism end to end.
  static uint64_t clock_ns = 1'000'000'000;  // boot at t=1s, away from ts==0
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.now_ns = [] { return clock_ns; };
  if (trace_out != nullptr) {
    options.trace_mode = trace::TraceMode::kFullCapture;
  }
  if (metrics_out != nullptr) {
    options.metrics_mode = metrics::MetricsMode::kCounters;
  }
  runtime::Runtime rt(options);

  auto manifest = KernelAssertions(kSetTimed);
  if (!manifest.ok()) {
    std::fprintf(stderr, "assertion suite: %s\n", manifest.error().ToString().c_str());
    return 1;
  }
  if (auto status = rt.Register(manifest.value()); !status.ok()) {
    std::fprintf(stderr, "register: %s\n", status.error().ToString().c_str());
    return 1;
  }
  SloLog slo;
  rt.AddHandler(&slo);

  std::unique_ptr<queue::EventQueue> queue;
  if (async_queue) {
    queue = std::make_unique<queue::EventQueue>(rt, queue_options);
    queue->Start();
  }

  KernelConfig config;
  config.tesla = &rt;
  config.clock_ns = &clock_ns;
  config.bugs.watchdog_slow_service = bug;
  Kernel kernel(config);
  Proc* proc = kernel.NewProcess(0);
  KThread td = kernel.NewThread(proc);

  const int kicks = storm ? 9 : 4;
  std::printf("watchdog daemon: 8 service passes, %d kicks each%s%s\n", kicks,
              bug ? ", slow-service bug injected" : "",
              queue != nullptr ? " (async ingestion queue)" : "");
  WatchdogDaemon(kernel, td, 8, kicks);

  if (queue != nullptr) {
    queue->Stop();
  }

  std::printf("\n== SLO summary ==\n");
  std::printf("  deadline expiries: %llu, rate violations: %llu (events: %llu, "
              "deadlines armed: %llu)\n",
              static_cast<unsigned long long>(slo.deadline()),
              static_cast<unsigned long long>(slo.rate()),
              static_cast<unsigned long long>(rt.stats().events),
              static_cast<unsigned long long>(rt.stats().deadline_arms));

  if (trace_out != nullptr) {
    if (auto status = trace::WriteCapture(trace_out, "kernelsim:timed", rt); !status.ok()) {
      std::fprintf(stderr, "trace capture: %s\n", status.error().ToString().c_str());
      return 1;
    }
    std::printf("  trace capture written to %s\n", trace_out);
  }
  if (metrics_out != nullptr) {
    const metrics::Snapshot snapshot = rt.CollectMetrics();
    const std::string out = metrics::ToPrometheus(snapshot);
    std::FILE* file = std::fopen(metrics_out, "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "metrics: cannot open '%s' for writing\n", metrics_out);
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), file);
    std::fclose(file);
    std::printf("  metrics written to %s\n", metrics_out);
  }

  // Exit criteria: the run demonstrates exactly what its flags injected.
  // A clean pass must be silent; a buggy pass must be caught, once per pass.
  const bool deadline_ok = bug ? slo.deadline() == 8 : slo.deadline() == 0;
  const bool rate_ok = storm ? slo.rate() == 8 : slo.rate() == 0;
  return deadline_ok && rate_ok ? 0 : 1;
}

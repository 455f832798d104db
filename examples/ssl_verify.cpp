// ssl_verify: the paper's §3.5.1 OpenSSL study, reproduced.
//
// A libfetch-style client retrieves a document over a miniature TLS stack.
// Its verification check contains the historical CVE-2008-5077-class bug:
// `if (!EVP_VerifyFinal(...))` treats the *exceptional* −1 result as success.
// The fig. 6 assertion — written in the client, instrumenting across the
// libssl/libcrypto boundary — catches the compromise the client itself
// cannot see.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "metrics/snapshot.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "support/log.h"
#include "sslsim/fetch.h"
#include "trace/replay.h"

namespace {

using namespace tesla;
using namespace tesla::sslsim;

class ViolationPrinter : public runtime::EventHandler {
 public:
  void OnViolation(const runtime::ClassInfo& cls, const runtime::Violation& violation) override {
    std::printf("  !! TESLA: %s — '%s'\n", runtime::ViolationKindName(violation.kind),
                violation.automaton.c_str());
    fired_.store(true, std::memory_order_relaxed);
  }
  // Atomic: with --queue-consumers > 1 violations are reported from several
  // drain threads.
  bool fired() const { return fired_.load(std::memory_order_relaxed); }
  void Reset() { fired_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> fired_{false};
};

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
  // Prometheus text) after the fetches finish.
  // --async-queue: dispatch through tesla::queue drain threads instead of
  // inline on the fetching thread.
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

  // Violations are reported through our handler; silence the default log.
  SetLogLevel(LogLevel::kSilent);
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  if (trace_out != nullptr) {
    options.trace_mode = trace::TraceMode::kFullCapture;
  }
  if (metrics_out != nullptr) {
    options.metrics_mode = metrics::MetricsMode::kFull;
  }
  runtime::Runtime rt(options);

  auto manifest = FetchAssertions();
  if (!manifest.ok() || !rt.Register(manifest.value()).ok()) {
    std::fprintf(stderr, "failed to register the fig. 6 assertion\n");
    return 1;
  }
  ViolationPrinter printer;
  rt.AddHandler(&printer);
  runtime::ThreadContext ctx(rt);

  // With --async-queue the fetch path pays only an SPSC enqueue. Started
  // after Register(): consumer shard ownership is computed from the
  // compiled plan. Flush() is the checkpoint barrier before each violation
  // read below.
  std::unique_ptr<queue::EventQueue> queue;
  if (async_queue) {
    queue = std::make_unique<queue::EventQueue>(rt, queue_options);
    queue->Start();
  }
  auto checkpoint = [&queue] {
    if (queue != nullptr) {
      queue->Flush();
    }
  };

  std::printf("fig. 6 assertion registered:\n  %s\n\n",
              rt.automaton(0).source_text.c_str());

  SslInstrumentation instr{&rt, &ctx};
  FetchClient vulnerable_client(instr, SslConfig{});  // the buggy tri-state check

  std::printf("== fetching from an honest server ==\n");
  Server honest = Server::Honest(0x5eed, "<html>the real page</html>");
  FetchResult good = vulnerable_client.FetchDocument(honest);
  checkpoint();
  std::printf("  fetched: %s (EVP_VerifyFinal returned %lld)\n",
              good.document.c_str(), static_cast<long long>(good.verify_result));
  std::printf("  TESLA violations: %s\n\n", printer.fired() ? "YES" : "none");

  std::printf("== fetching from the malicious s_server (forged ASN.1 tag) ==\n");
  printer.Reset();
  Server malicious = Server::Malicious(0x5eed, "<html>attacker content</html>");
  FetchResult bad = vulnerable_client.FetchDocument(malicious);
  checkpoint();
  std::printf("  the client *believes* it fetched: %s\n", bad.document.c_str());
  std::printf("  EVP_VerifyFinal actually returned %lld (exceptional failure)\n",
              static_cast<long long>(bad.verify_result));
  std::printf("  TESLA violations: %s\n\n", printer.fired() ? "YES — compromise detected" : "none");
  bool caught = printer.fired();

  std::printf("== same malicious server, fixed client (verify != 1 rejected) ==\n");
  printer.Reset();
  SslConfig fixed;
  fixed.correct_verify_check = true;
  FetchClient fixed_client(instr, fixed);
  FetchResult rejected = fixed_client.FetchDocument(malicious);

  // Flush and stop before the verdicts: the capture and metrics below then
  // match an inline run exactly.
  if (queue != nullptr) {
    queue->Stop();
  }
  std::printf("  connection %s; TESLA violations: %s\n",
              rejected.ok ? "succeeded (!)" : "refused",
              printer.fired() ? "YES" : "none (no site reached)");

  if (trace_out != nullptr) {
    if (auto status = trace::WriteCapture(trace_out, "sslsim:fetch", rt); !status.ok()) {
      std::fprintf(stderr, "trace capture: %s\n", status.error().ToString().c_str());
      return 1;
    }
    std::printf("\ntrace capture written to %s (%llu events)\n", trace_out,
                static_cast<unsigned long long>(rt.stats().events));
  }
  if (metrics_out != nullptr) {
    if (!WriteMetrics(metrics_out, rt)) {
      return 1;
    }
    std::printf("\nmetrics written to %s\n", metrics_out);
  }

  return caught && !rejected.ok ? 0 : 1;
}

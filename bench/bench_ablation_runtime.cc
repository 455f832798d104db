// Ablation microbenchmarks (google-benchmark) for libtesla design choices
// called out in DESIGN.md:
//   * NFA state-set simulation vs determinised-DFA stepping;
//   * eager vs lazy instance initialisation at different automata counts;
//   * event cost with no matching automata (the "Infrastructure" floor).
#include <benchmark/benchmark.h>

#include <memory>

#include "automata/lower.h"
#include "bench/bench_util.h"
#include "runtime/runtime.h"

namespace {

using namespace tesla;

std::unique_ptr<runtime::Runtime> MakeRuntime(int automata_count, bool lazy, bool use_dfa) {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.lazy_init = lazy;
  options.use_dfa = use_dfa;
  auto rt = std::make_unique<runtime::Runtime>(options);
  automata::Manifest manifest;
  for (int i = 0; i < automata_count; i++) {
    auto automaton = automata::CompileAssertion(
        "TESLA_WITHIN(syscall, previously(check" + std::to_string(i) + "(x) == 0))", {},
        std::string("a").append(std::to_string(i)));
    if (!automaton.ok()) {
      std::abort();
    }
    manifest.Add(std::move(automaton.value()));
  }
  if (!rt->Register(manifest).ok()) {
    std::abort();
  }
  return rt;
}

void DriveBound(runtime::Runtime& rt, runtime::ThreadContext& ctx, int64_t value) {
  static Symbol syscall = InternString("syscall");
  static Symbol check0 = InternString("check0");
  rt.OnFunctionCall(ctx, syscall, {});
  int64_t args[] = {value};
  rt.OnFunctionReturn(ctx, check0, args, 0);
  runtime::Binding site[] = {{0, value}};
  rt.OnAssertionSite(ctx, 0, site);
  rt.OnFunctionReturn(ctx, syscall, {}, 0);
}

void BM_SteppingMode(benchmark::State& state) {
  bool use_dfa = state.range(0) != 0;
  auto rt = MakeRuntime(1, /*lazy=*/true, use_dfa);
  runtime::ThreadContext ctx(*rt);
  int64_t value = 0;
  for (auto _ : state) {
    DriveBound(*rt, ctx, value++ % 5);
  }
  state.SetLabel(use_dfa ? "DFA stepping" : "NFA state-set");
}
BENCHMARK(BM_SteppingMode)->Arg(0)->Arg(1);

void BM_InitStrategy(benchmark::State& state) {
  bool lazy = state.range(0) != 0;
  int automata = static_cast<int>(state.range(1));
  auto rt = MakeRuntime(automata, lazy, /*use_dfa=*/false);
  runtime::ThreadContext ctx(*rt);
  int64_t value = 0;
  for (auto _ : state) {
    DriveBound(*rt, ctx, value++ % 5);
  }
  state.SetLabel(std::string(lazy ? "lazy" : "eager") + ", " + std::to_string(automata) +
                 " automata sharing the bound");
}
BENCHMARK(BM_InitStrategy)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 96})
    ->Args({1, 96});

void BM_UnmatchedEvent(benchmark::State& state) {
  auto rt = MakeRuntime(8, /*lazy=*/true, /*use_dfa=*/false);
  runtime::ThreadContext ctx(*rt);
  Symbol unrelated = InternString("completely_unrelated_fn");
  for (auto _ : state) {
    rt->OnFunctionCall(ctx, unrelated, {});
  }
  state.SetLabel("event with no listening automata");
}
BENCHMARK(BM_UnmatchedEvent);

// Console output as usual, plus every run captured into the shared JSON
// schema (bench/README.md) so the ablations diff like the figure benches.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(tesla::bench::JsonReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      report_->Add(run.benchmark_name(), run.GetAdjustedRealTime(), "ns/op");
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  tesla::bench::JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  tesla::bench::JsonReport report("ablation_runtime");
  JsonCapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return report.Write() ? 0 : 1;
}

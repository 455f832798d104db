// Instance-dispatch scaling: binding-indexed instance stores vs naive scan.
//
// Populates a single open bound with N live automaton instances (one per
// distinct bound value of x), then measures the cost of dispatching one
// fully-bound event — an assertion site carrying a concrete x — as N grows
// from 1 to 10k. The naive mode walks every live instance per event (O(live));
// the binding-keyed index (RuntimeOptions::instance_index) probes one hash
// bucket (O(matching)), so its per-event cost should stay near-flat.
//
// Runs the sweep in both serialisation contexts: per-thread storage and the
// sharded global store (spinlock-guarded). TESLA_BENCH_SMOKE=1 shrinks
// populations and timing windows for CI smoke runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "bench/bench_util.h"
#include "runtime/runtime.h"

namespace {

using namespace tesla;

constexpr const char* kPerThreadSource =
    "TESLA_PERTHREAD(call(syscall), returnfrom(syscall), previously(check(x) == 0))";
constexpr const char* kGlobalSource =
    "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))";

std::unique_ptr<runtime::Runtime> MakeRuntime(const char* source, bool indexed) {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.instance_index = indexed;
  options.instances_per_context = 20000;
  auto rt = std::make_unique<runtime::Runtime>(options);
  auto automaton = automata::CompileAssertion(source, {}, "inst-bench");
  if (!automaton.ok()) {
    std::fprintf(stderr, "compile: %s\n", automaton.error().ToString().c_str());
    return nullptr;
  }
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  if (!rt->Register(manifest).ok()) {
    return nullptr;
  }
  return rt;
}

// ns per fully-bound assertion-site dispatch with `population` live instances.
double MeasureDispatch(const char* source, bool indexed, int population, double min_seconds) {
  auto rt = MakeRuntime(source, indexed);
  if (rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*rt);
  uint32_t id = static_cast<uint32_t>(rt->FindAutomaton("inst-bench"));
  Symbol syscall = InternString("syscall");
  Symbol check = InternString("check");

  // One open bound; each distinct check(x) value clones one instance.
  rt->OnFunctionCall(ctx, syscall, {});
  for (int v = 0; v < population; v++) {
    int64_t args[] = {v};
    rt->OnFunctionReturn(ctx, check, args, 0);
  }

  double per_event = tesla::bench::TimePerOp(
      [&](int iterations) {
        for (int i = 0; i < iterations; i++) {
          runtime::Binding site[] = {{0, i % population}};
          rt->OnAssertionSite(ctx, id, site);
        }
      },
      min_seconds);

  if (rt->stats().violations != 0 || rt->stats().overflows != 0) {
    std::fprintf(stderr, "unexpected violations/overflows (pop=%d indexed=%d)\n", population,
                 indexed);
    return -1;
  }
  // Below runtime::kIndexMinPopulation the indexed mode deliberately skips
  // the probe and scans (the small-population crossover this bench measures
  // at n=1); past it every fully-bound dispatch must probe.
  const size_t live = static_cast<size_t>(population) + 1;  // clones + wildcard
  const bool expect_probe = live >= runtime::kIndexMinPopulation;
  if (indexed && expect_probe && rt->stats().index_probes == 0) {
    std::fprintf(stderr, "index never engaged (pop=%d)\n", population);
    return -1;
  }
  if (indexed && !expect_probe && rt->stats().index_probes != 0) {
    std::fprintf(stderr, "index engaged below the probe threshold (pop=%d)\n", population);
    return -1;
  }
  return per_event * 1e9;
}

}  // namespace

int main() {
  const bool smoke = tesla::bench::SmokeMode();
  const double min_seconds = smoke ? 0.005 : 0.15;
  const std::vector<int> populations =
      smoke ? std::vector<int>{1, 64, 256} : std::vector<int>{1, 10, 100, 1000, 10000};

  const struct {
    const char* label;
    const char* key;
    const char* source;
  } contexts[] = {
      {"per-thread context", "perthread", kPerThreadSource},
      {"sharded global context", "global", kGlobalSource},
  };

  tesla::bench::JsonReport report("instances");
  std::printf("Instance-dispatch scaling: indexed (instance_index=on) vs naive scan\n");
  if (smoke) {
    std::printf("(smoke mode: reduced populations and timing windows)\n");
  }

  bool ok = true;
  for (const auto& context : contexts) {
    std::printf("\n--- %s ---\n", context.label);
    std::printf("%-12s %16s %16s %10s\n", "instances", "scan (ns/event)", "index (ns/event)",
                "speedup");
    double top_speedup = 0;
    int top_population = 0;
    for (int population : populations) {
      double scan = MeasureDispatch(context.source, /*indexed=*/false, population, min_seconds);
      double index = MeasureDispatch(context.source, /*indexed=*/true, population, min_seconds);
      if (scan < 0 || index < 0) {
        ok = false;
        continue;
      }
      double speedup = index > 0 ? scan / index : 0;
      std::printf("%-12d %16.1f %16.1f %9.2fx\n", population, scan, index, speedup);
      const std::string prefix =
          std::string("site_dispatch.") + context.key + ".n" + std::to_string(population);
      report.Add(prefix + ".scan", scan, "ns/event");
      report.Add(prefix + ".indexed", index, "ns/event");
      if (population >= top_population) {
        top_population = population;
        top_speedup = speedup;
      }
    }
    report.Add(std::string("site_dispatch.") + context.key + ".speedup_at_max", top_speedup,
               "x");
    std::printf("speedup at %d live instances: %.2fx\n", top_population, top_speedup);
  }

  std::printf("\nexpected shape: the scan column grows linearly with the live-instance\n");
  std::printf("population; the indexed column stays near-flat (one bucket probe per\n");
  std::printf("event), so the speedup approaches the population size.\n");
  if (!report.Write()) {
    ok = false;
  }
  return ok ? 0 : 1;
}

// Profiling overhead and profile-guided plan payoff.
//
// Two claims, both CI-gated against the committed BENCH_profile.json:
//
//   1. RuntimeOptions::profile costs ≤ ~5 ns per dispatched event. The shard
//      write path is a handful of relaxed load+store pairs (no RMW) plus a
//      1-in-64 sampled clock, the same discipline as tesla::metrics.
//   2. On a scan-fallback workload — partially-bound sites against a large
//      instance population — the profile's own prescription (the instance
//      index keyed on the bound key variable, fed back as a PlanHint) makes
//      dispatch ≥ 1.5× faster. The hinted plan walks one prefix bucket where
//      the unhinted plan scans every live instance.
//
// TESLA_BENCH_SMOKE=1 shrinks the timing windows for CI; the metric set is
// identical so bench_diff can gate smoke runs against the full-run reference.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "bench/bench_util.h"
#include "profile/hints.h"
#include "profile/profile.h"
#include "profile/snapshot.h"
#include "runtime/runtime.h"

namespace {

using namespace tesla;

constexpr const char* kOneVar =
    "TESLA_PERTHREAD(call(syscall), returnfrom(syscall), previously(check(x) == 0))";
constexpr const char* kTwoVar =
    "TESLA_PERTHREAD(call(syscall), returnfrom(syscall), previously(pair(x, y) == 0))";

std::unique_ptr<runtime::Runtime> MakeRuntime(const char* source,
                                              runtime::RuntimeOptions options) {
  options.fail_stop = false;
  options.instances_per_context = 20000;
  auto rt = std::make_unique<runtime::Runtime>(options);
  auto automaton = automata::CompileAssertion(source, {}, "profile-bench");
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

// ns per fully-bound assertion-site dispatch with `population` live
// instances, profiling off or on — the overhead claim. One sample = one
// fresh runtime; OverheadNs takes the min over several samples because heap
// layout varies run to run by more than the effect being measured.
double MeasureOverheadOnce(bool profile, int population, double min_seconds) {
  runtime::RuntimeOptions options;
  options.profile = profile;
  auto rt = MakeRuntime(kOneVar, options);
  if (rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*rt);
  const uint32_t id = static_cast<uint32_t>(rt->FindAutomaton("profile-bench"));
  rt->OnFunctionCall(ctx, InternString("syscall"), {});
  for (int v = 0; v < population; v++) {
    int64_t args[] = {v};
    rt->OnFunctionReturn(ctx, InternString("check"), args, 0);
  }

  const double per_event = tesla::bench::TimePerOp(
      [&](int iterations) {
        for (int i = 0; i < iterations; i++) {
          runtime::Binding site[] = {{0, i % population}};
          rt->OnAssertionSite(ctx, id, site);
        }
      },
      min_seconds);

  if (rt->stats().violations != 0 || rt->stats().overflows != 0) {
    std::fprintf(stderr, "unexpected violations/overflows (pop=%d)\n", population);
    return -1;
  }
  if (profile) {
    // Sanity: the profiler must actually have recorded the workload.
    const profile::Snapshot snapshot = rt->CollectProfile();
    if (snapshot.classes.empty() ||
        snapshot.classes[0].cell(profile::Cell::dispatches) == 0) {
      std::fprintf(stderr, "profiler never engaged (pop=%d)\n", population);
      return -1;
    }
  }
  return per_event * 1e9;
}

// Interleaved off/on pairs so slow machine phases hit both configurations;
// the mins across pairs estimate each configuration's unloaded cost.
bool MeasureOverhead(int population, double min_seconds, int samples, double* off_ns,
                     double* on_ns) {
  *off_ns = -1;
  *on_ns = -1;
  for (int s = 0; s < samples; s++) {
    const double off = MeasureOverheadOnce(false, population, min_seconds);
    const double on = MeasureOverheadOnce(true, population, min_seconds);
    if (off < 0 || on < 0) {
      return false;
    }
    if (*off_ns < 0 || off < *off_ns) {
      *off_ns = off;
    }
    if (*on_ns < 0 || on < *on_ns) {
      *on_ns = on;
    }
  }
  return true;
}

// ns per *partially-bound* site dispatch against distinct_x × per_x live
// instances — the payoff claim. Unhinted, every such dispatch scans the full
// population; with the profile-derived prefix hint it walks one bucket.
double MeasurePartialDispatch(bool hinted, int distinct_x, int per_x, double min_seconds,
                              bool* engaged) {
  runtime::RuntimeOptions options;
  if (hinted) {
    profile::ClassHint hint;
    hint.name = "profile-bench";
    hint.capacity = 4096;     // hints size the pool: leave headroom for the population
    hint.prefix_key_pos = 0;  // key the instance index on x
    options.plan_hints.classes.push_back(hint);
  }
  auto rt = MakeRuntime(kTwoVar, options);
  if (rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*rt);
  const uint32_t id = static_cast<uint32_t>(rt->FindAutomaton("profile-bench"));
  rt->OnFunctionCall(ctx, InternString("syscall"), {});
  for (int x = 0; x < distinct_x; x++) {
    for (int y = 0; y < per_x; y++) {
      int64_t args[] = {x, y};
      rt->OnFunctionReturn(ctx, InternString("pair"), args, 0);
    }
  }

  const double per_event = tesla::bench::TimePerOp(
      [&](int iterations) {
        for (int i = 0; i < iterations; i++) {
          runtime::Binding site[] = {{0, i % distinct_x}};
          rt->OnAssertionSite(ctx, id, site);
        }
      },
      min_seconds);

  if (rt->stats().violations != 0 || rt->stats().overflows != 0) {
    std::fprintf(stderr, "unexpected violations/overflows (hinted=%d)\n", hinted ? 1 : 0);
    return -1;
  }
  // The two plans must really have taken different routes.
  *engaged = hinted ? rt->stats().index_probes > 0 : rt->stats().index_scans > 0;
  return per_event * 1e9;
}

}  // namespace

int main() {
  const bool smoke = tesla::bench::SmokeMode();
  const double min_seconds = smoke ? 0.005 : 0.15;
  tesla::bench::JsonReport report("profile");
  bool ok = true;

  std::printf("Profiling overhead: site dispatch with RuntimeOptions::profile off/on\n");
  if (smoke) {
    std::printf("(smoke mode: reduced timing windows)\n");
  }
  const int samples = smoke ? 2 : 5;
  for (int population : {1, 64, 1024}) {
    double off = 0;
    double on = 0;
    if (!MeasureOverhead(population, min_seconds, samples, &off, &on)) {
      ok = false;
      continue;
    }
    std::printf("  n=%-5d off %7.1f ns/event   on %7.1f ns/event   overhead %+5.1f ns\n",
                population, off, on, on - off);
    const std::string prefix = std::string("site_dispatch.n") + std::to_string(population);
    report.Add(prefix + ".off", off, "ns/event");
    report.Add(prefix + ".on", on, "ns/event");
    report.Add(prefix + ".overhead_on", on - off, "ns");
  }

  std::printf("\nProfile-guided payoff: partially-bound dispatch, 1024 live instances\n");
  std::printf("(128 distinct prefix-key values x 8 instances each)\n");
  bool scan_engaged = false;
  bool prefix_engaged = false;
  const double scan = MeasurePartialDispatch(false, 128, 8, min_seconds, &scan_engaged);
  const double prefix = MeasurePartialDispatch(true, 128, 8, min_seconds, &prefix_engaged);
  if (scan < 0 || prefix < 0 || !scan_engaged || !prefix_engaged) {
    ok = false;
  } else {
    const double speedup = prefix > 0 ? scan / prefix : 0;
    std::printf("  full scan (unhinted) %8.1f ns/event\n", scan);
    std::printf("  prefix index (hinted) %7.1f ns/event\n", prefix);
    std::printf("  speedup %.2fx (gate: >= 1.5x)\n", speedup);
    report.Add("partial_dispatch.n1024.scan", scan, "ns/event");
    report.Add("partial_dispatch.n1024.prefix", prefix, "ns/event");
    report.Add("partial_dispatch.n1024.speedup", speedup, "x");
  }

  std::printf("\nexpected shape: profiling stays within ~5 ns of off (relaxed single-writer\n");
  std::printf("shards, 1-in-64 sampled clock); the hinted plan beats the scan by the\n");
  std::printf("bucket-vs-population ratio.\n");
  if (!report.Write()) {
    ok = false;
  }
  return ok ? 0 : 1;
}

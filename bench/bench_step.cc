// Stepping-tier cost isolation: interpreted vs shape-specialised step
// kernels (RuntimeOptions::step_tier, runtime/step.h).
//
// Two workloads, each a steady-state stream of assertion-site events batched
// through OnEvents():
//   * dfa — a DFA-trackable class (previously(check(x) == 0)): the
//     specialised tier steps by one packed-row table lookup;
//   * nfa — an incallstack() class: every tier runs exact NFA union
//     semantics (mask-and-union tables in the specialised tier).
//
// Each site event carries no bindings, so it exact-matches every live
// instance: with P bound values the per-event cost is the shared dispatch
// overhead plus P kernel invocations (the (*) wildcard only consumes site
// events when a site edge exists in its pre-check state, as in the
// incallstack() variant), which is what separates the tiers. The assertion
// site self-loops, so the stream runs indefinitely inside one open bound with
// zero clones, violations or accepts.
//
// BENCH_step.json carries per-tier ns/event for both workloads plus the
// step.{specialised,interpreted}.ns_per_event aliases CI gates on: the
// specialised tier must dispatch in under 30 ns/event AND at least 2x faster
// than the interpreted tier on the same workload.
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "bench/bench_util.h"
#include "runtime/runtime.h"

namespace {

using namespace tesla;
using runtime::StepTier;

constexpr const char* kDfaSource =
    "TESLA_PERTHREAD(call(syscall), returnfrom(syscall), previously(check(x) == 0))";
constexpr const char* kNfaSource =
    "TESLA_PERTHREAD(call(syscall), returnfrom(syscall), "
    "incallstack(helper) || previously(check(x) == 0))";

// Bound values live in the open bound — each site event steps at least this
// many instances. Small enough that one event stays cache-resident, large
// enough that kernel cost — not the shared dispatch prologue — dominates the
// measurement.
constexpr int kPopulation = 8;
constexpr int kBatch = 256;

struct TierCase {
  StepTier tier;
  const char* key;
};

constexpr TierCase kTiers[] = {
    {StepTier::kInterpreted, "interpreted"},
    {StepTier::kSpecialised, "specialised"},
};

std::unique_ptr<runtime::Runtime> MakeRuntime(const char* source, StepTier tier) {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.step_tier = tier;
  options.instances_per_context = 4096;
  auto rt = std::make_unique<runtime::Runtime>(options);
  auto automaton = automata::CompileAssertion(source, {}, "step-bench");
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

// ns per site event, steady state: >= kPopulation instances stepping per event.
double MeasureSteps(const char* source, StepTier tier, bool in_helper, double min_seconds) {
  auto rt = MakeRuntime(source, tier);
  if (rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*rt);
  const uint32_t id = static_cast<uint32_t>(rt->FindAutomaton("step-bench"));

  // One open bound, kPopulation bound values; the NFA workload additionally
  // sits inside helper() so the incallstack() site variant stays satisfied
  // and every event is a genuine multi-symbol NFA step.
  rt->OnFunctionCall(ctx, InternString("syscall"), {});
  if (in_helper) {
    rt->OnFunctionCall(ctx, InternString("helper"), {});
  }
  for (int v = 0; v < kPopulation; v++) {
    int64_t args[] = {v};
    rt->OnFunctionReturn(ctx, InternString("check"), args, 0);
  }

  std::vector<runtime::Event> batch(kBatch, runtime::Event::Site(id, {}));
  rt->OnEvents(ctx, batch);  // warm: every instance into its self-loop state

  const uint64_t transitions_before = rt->stats().transitions;
  uint64_t batches = 0;
  double per_batch = tesla::bench::TimePerOp(
      [&](int iterations) {
        for (int i = 0; i < iterations; i++) {
          rt->OnEvents(ctx, batch);
        }
        batches += static_cast<uint64_t>(iterations);
      },
      min_seconds);

  // Steady-state sanity: every event stepped at least the bound population
  // (the (*) wildcard only joins in when a site-consuming edge exists in its
  // pre-check state, e.g. via the incallstack() variant), and nothing
  // violated, cloned or overflowed.
  const uint64_t stepped = rt->stats().transitions - transitions_before;
  const uint64_t expect = batches * kBatch * kPopulation;
  if (rt->stats().violations != 0 || rt->stats().overflows != 0 || stepped < expect) {
    std::fprintf(stderr, "bad steady state (tier=%d): %llu violations, %llu/%llu transitions\n",
                 static_cast<int>(tier),
                 static_cast<unsigned long long>(rt->stats().violations),
                 static_cast<unsigned long long>(stepped),
                 static_cast<unsigned long long>(expect));
    return -1;
  }
  return per_batch / kBatch * 1e9;
}

}  // namespace

int main() {
  const bool smoke = tesla::bench::SmokeMode();
  const double min_seconds = smoke ? 0.02 : 0.25;

  const struct {
    const char* label;
    const char* key;
    const char* source;
    bool in_helper;
  } workloads[] = {
      {"DFA-trackable class (packed kernel)", "dfa", kDfaSource, false},
      {"incallstack() class (NFA kernels)", "nfa", kNfaSource, true},
  };

  tesla::bench::JsonReport report("step");
  std::printf("Stepping-tier isolation: %d bound instances stepped per site event\n", kPopulation);
  if (smoke) {
    std::printf("(smoke mode: reduced timing windows)\n");
  }

  bool ok = true;
  double dfa_by_tier[std::size(kTiers)] = {};
  for (const auto& workload : workloads) {
    std::printf("\n--- %s ---\n", workload.label);
    std::printf("%-14s %16s %10s\n", "tier", "ns/event", "vs interp");
    double interp = 0;
    for (size_t t = 0; t < std::size(kTiers); t++) {
      double ns = MeasureSteps(workload.source, kTiers[t].tier, workload.in_helper, min_seconds);
      if (ns < 0) {
        ok = false;
        continue;
      }
      if (kTiers[t].tier == StepTier::kInterpreted) {
        interp = ns;
      }
      if (std::string(workload.key) == "dfa") {
        dfa_by_tier[t] = ns;
      }
      std::printf("%-14s %16.1f %9.2fx\n", kTiers[t].key, ns, ns > 0 ? interp / ns : 0.0);
      report.Add(std::string("step.") + workload.key + "." + kTiers[t].key + ".ns_per_event",
                 ns, "ns/event");
    }
  }

  // The CI gate's aliases: the DFA workload is the dispatch-rate headline.
  if (dfa_by_tier[0] > 0 && dfa_by_tier[1] > 0) {
    report.Add("step.interpreted.ns_per_event", dfa_by_tier[0], "ns/event");
    report.Add("step.specialised.ns_per_event", dfa_by_tier[1], "ns/event");
    std::printf("\nspecialised dispatch: %.1f ns/event (%.2fx over interpreted)\n",
                dfa_by_tier[1], dfa_by_tier[1] > 0 ? dfa_by_tier[0] / dfa_by_tier[1] : 0.0);
  }

  // The stepping-tier contract, also gated in CI: specialised dispatch under
  // 30 ns/event AND at least 2x over the interpreted tier on the same
  // workload. A steady-state claim — smoke mode's tiny timing windows still
  // print the table but only the full run gates on it.
  if (!smoke && dfa_by_tier[0] > 0 && dfa_by_tier[1] > 0) {
    if (dfa_by_tier[1] >= 30.0) {
      std::fprintf(stderr, "FAIL: specialised dispatch %.1f ns/event >= 30\n", dfa_by_tier[1]);
      ok = false;
    }
    if (dfa_by_tier[0] < 2.0 * dfa_by_tier[1]) {
      std::fprintf(stderr, "FAIL: specialised only %.2fx over interpreted (< 2x)\n",
                   dfa_by_tier[0] / dfa_by_tier[1]);
      ok = false;
    }
  }

  if (!report.Write()) {
    ok = false;
  }
  return ok ? 0 : 1;
}

// Differential coverage for the compiled stepping tiers (runtime/step.h):
// the interpreted reference and the shape-specialised kernels must be
// semantically indistinguishable. Identical pseudo-random schedules drive one
// runtime per tier and compare, after every event, the full RuntimeStats
// schema (via the TESLA_RUNTIME_STATS X-macro, so a new counter is compared
// the day it is added) and the violation sequences; at the end of each
// schedule the transition-coverage bitmaps must be bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "metrics/collector.h"
#include "runtime/handler.h"
#include "runtime/runtime.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::CountingHandler;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::StepTier;
using runtime::ThreadContext;
using runtime::Violation;

Symbol S(const char* name) { return InternString(name); }

constexpr StepTier kAllTiers[] = {StepTier::kInterpreted, StepTier::kSpecialised};

const char* TierName(StepTier tier) {
  switch (tier) {
    case StepTier::kInterpreted:
      return "interpreted";
    case StepTier::kSpecialised:
      return "specialised";
  }
  return "?";
}

// One runtime + counting handler compiled from `source` at a given tier.
struct Side {
  Side(const std::string& source, RuntimeOptions options, StepTier tier) : rt([&] {
    options.step_tier = tier;
    return options;
  }()) {
    auto automaton = CompileAssertion(source, {}, "tier");
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    EXPECT_TRUE(rt.Register(manifest).ok());
    id = static_cast<uint32_t>(rt.FindAutomaton("tier"));
    rt.AddHandler(&handler);
    ctx = std::make_unique<ThreadContext>(rt);
  }
  Runtime rt;
  CountingHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  uint32_t id = 0;
};

RuntimeOptions BaseOptions(bool metrics) {
  RuntimeOptions options;
  options.fail_stop = false;
  if (metrics) {
    options.metrics_mode = metrics::MetricsMode::kCounters;
  }
  return options;
}

// Three runtimes — one per tier — driven in lockstep. The interpreted tier
// (index 0) is the reference the others are compared against.
struct TierSet {
  explicit TierSet(const std::string& source, RuntimeOptions options = BaseOptions(true)) {
    for (StepTier tier : kAllTiers) {
      sides.push_back(std::make_unique<Side>(source, options, tier));
    }
  }

  void CheckStats(const char* where) {
    const RuntimeStats& ref = sides[0]->rt.stats();
    for (size_t t = 1; t < sides.size(); t++) {
      const RuntimeStats& got = sides[t]->rt.stats();
      const char* tier = TierName(kAllTiers[t]);
#define TESLA_TIER_CHECK(name, desc, replay) \
  ASSERT_EQ(got.name, ref.name) << where << " [" << tier << "] " << #name;
      TESLA_RUNTIME_STATS(TESLA_TIER_CHECK)
#undef TESLA_TIER_CHECK

      const std::vector<Violation>& va = sides[0]->handler.violations();
      const std::vector<Violation>& vb = sides[t]->handler.violations();
      ASSERT_EQ(vb.size(), va.size()) << where << " [" << tier << "]";
      for (size_t i = 0; i < va.size(); i++) {
        ASSERT_EQ(vb[i].kind, va[i].kind) << where << " [" << tier << "] violation " << i;
      }
    }
  }

  // The tier-invariance contract on coverage: bit-identical bitmaps.
  void CheckCoverage(const char* where) {
    const metrics::Collector* ref = sides[0]->rt.collector();
    ASSERT_NE(ref, nullptr) << where;
    for (size_t t = 1; t < sides.size(); t++) {
      const metrics::Collector* got = sides[t]->rt.collector();
      const char* tier = TierName(kAllTiers[t]);
      ASSERT_EQ(got->coverage_bits(), ref->coverage_bits()) << where << " [" << tier << "]";
      for (size_t bit = 0; bit < ref->coverage_bits(); bit++) {
        ASSERT_EQ(got->CoverageBit(static_cast<uint32_t>(bit)),
                  ref->CoverageBit(static_cast<uint32_t>(bit)))
            << where << " [" << tier << "] coverage bit " << bit;
      }
    }
  }

  std::vector<std::unique_ptr<Side>> sides;
};

// ---------------------------------------------------------------------------
// Randomized lockstep schedules, one per kernel shape.

// Small DFA-trackable class: the specialised tier takes the packed
// (table-in-registers) kernel.
TEST(StepTier, SmallDfaClassAgrees) {
  TierSet tiers("TESLA_WITHIN(syscall, previously(check(x) == 0))");

  uint64_t rng = 99;
  for (int round = 0; round < 500; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 4);
    int64_t value = static_cast<int64_t>((rng >> 40) % 5);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (auto& s : tiers.sides) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    tiers.CheckStats("round");
  }
  tiers.CheckCoverage("final");
  ASSERT_GT(tiers.sides[0]->rt.stats().transitions, 0u);
  ASSERT_GT(tiers.sides[0]->rt.stats().violations, 0u);  // the schedule bites
}

// Wide alternation: ~19 DFA states exceed the packed kernel's budget, so the
// specialised tier falls back to the flat-row kernel.
TEST(StepTier, WideAlternationAgrees) {
  TierSet tiers(
      "TESLA_WITHIN(syscall, previously(c0(x) == 0 || c1(x) == 0 || c2(x) == 0 || "
      "c3(x) == 0))");

  uint64_t rng = 1234;
  for (int round = 0; round < 500; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 7);
    int64_t value = static_cast<int64_t>((rng >> 40) % 4);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};
    static const char* const kChecks[] = {"c0", "c1", "c2", "c3"};

    for (auto& s : tiers.sides) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
        case 2:
        case 3:
        case 4:
          s->rt.OnFunctionReturn(*s->ctx, S(kChecks[action - 1]), args, 0);
          break;
        case 5:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 6:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    tiers.CheckStats("round");
  }
  tiers.CheckCoverage("final");
  ASSERT_GT(tiers.sides[0]->rt.stats().transitions, 0u);
}

// incallstack() site variants force multi-symbol NFA stepping: the
// specialised tier runs the mask-and-union kernel.
TEST(StepTier, InCallStackClassAgrees) {
  TierSet tiers("TESLA_WITHIN(f, incallstack(g) || previously(a(x) == 0))");

  uint64_t rng = 777;
  int depth = 0;
  for (int round = 0; round < 500; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 6);
    if (action == 5 && depth == 0) {
      action = 4;  // nothing to return from; push instead
    }
    int64_t value = static_cast<int64_t>((rng >> 40) % 4);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (auto& s : tiers.sides) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("f"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("f"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("a"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 4:
          s->rt.OnFunctionCall(*s->ctx, S("g"), {});
          break;
        case 5:
          s->rt.OnFunctionReturn(*s->ctx, S("g"), {}, 0);
          break;
      }
    }
    if (action == 4) {
      depth++;
    } else if (action == 5) {
      depth--;
    }
    tiers.CheckStats("round");
  }
  tiers.CheckCoverage("final");
  ASSERT_GT(tiers.sides[0]->rt.stats().transitions, 0u);
}

// The use_dfa ablation must stay tier-invariant too (every tier then runs
// DFA-semantics stepping directly).
TEST(StepTier, UseDfaAblationAgrees) {
  RuntimeOptions options = BaseOptions(true);
  options.use_dfa = true;
  TierSet tiers("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  uint64_t rng = 31;
  for (int round = 0; round < 400; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 4);
    int64_t value = static_cast<int64_t>((rng >> 40) % 3);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (auto& s : tiers.sides) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    tiers.CheckStats("round");
  }
  tiers.CheckCoverage("final");
}

// Metrics off: the non-stamping kernel variants are selected; verdicts and
// stats must still agree (there is no coverage to compare).
TEST(StepTier, MetricsOffAgrees) {
  TierSet tiers("TESLA_WITHIN(syscall, previously(check(x) == 0))", BaseOptions(false));

  uint64_t rng = 4711;
  for (int round = 0; round < 400; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 4);
    int64_t value = static_cast<int64_t>((rng >> 40) % 5);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (auto& s : tiers.sides) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    tiers.CheckStats("round");
  }
}

// Global (sharded) storage exercises the batch/lock paths around the
// kernels; batch ingestion exercises the stats-frame flush.
TEST(StepTier, GlobalContextBatchAgrees) {
  TierSet tiers("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))");

  uint64_t rng = 2025;
  std::vector<runtime::Event> batch;
  for (int round = 0; round < 120; round++) {
    batch.clear();
    for (int i = 0; i < 8; i++) {
      rng = rng * 6364136223846793005ull + 1;
      int action = static_cast<int>((rng >> 33) % 4);
      int64_t value = static_cast<int64_t>((rng >> 40) % 4);
      int64_t args[] = {value};
      Binding site[] = {{0, value}};
      switch (action) {
        case 0:
          batch.push_back(runtime::Event::Call(S("syscall"), {}));
          break;
        case 1:
          batch.push_back(runtime::Event::Return(S("check"), args, 0));
          break;
        case 2:
          batch.push_back(runtime::Event::Site(tiers.sides[0]->id, site));
          break;
        case 3:
          batch.push_back(runtime::Event::Return(S("syscall"), {}, 0));
          break;
      }
    }
    for (auto& s : tiers.sides) {
      s->rt.OnEvents(*s->ctx, batch);
    }
    tiers.CheckStats("batch");
  }
  tiers.CheckCoverage("final");
  ASSERT_GT(tiers.sides[0]->rt.stats().transitions, 0u);
}

}  // namespace
}  // namespace tesla

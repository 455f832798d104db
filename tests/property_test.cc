// Property-style tests: randomised event schedules checked against
// independent oracles, and cross-mode equivalence sweeps (eager vs lazy
// initialisation, NFA state-set vs DFA stepping).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "parser/parser.h"
#include "support/hash.h"
#include "support/pool.h"
#include "runtime/runtime.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;

RuntimeOptions TestOptions(bool lazy = true, bool use_dfa = false) {
  RuntimeOptions options;
  options.fail_stop = false;
  options.lazy_init = lazy;
  options.use_dfa = use_dfa;
  return options;
}

Symbol S(const char* name) { return InternString(name); }

// A deterministic PRNG so failures reproduce.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

// ---------------------------------------------------------------------------
// Oracle 1: previously(check(x) == 0).
// A bound's site event with binding v is satisfied iff check(v) returned 0
// earlier within the same bound.
// ---------------------------------------------------------------------------

struct PreviouslyOracle {
  std::set<int64_t> checked;
  uint64_t violations = 0;

  void OnBoundStart() { checked.clear(); }
  void OnCheck(int64_t value, int64_t result) {
    if (result == 0) {
      checked.insert(value);
    }
  }
  void OnSite(int64_t value) {
    if (checked.count(value) == 0) {
      violations++;
    }
  }
};

class ModeSweep : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(ModeSweep, PreviouslyMatchesOracleOnRandomSchedules) {
  auto [lazy, use_dfa, seed] = GetParam();
  Runtime rt(TestOptions(lazy, use_dfa));
  auto automaton = CompileAssertion("TESLA_WITHIN(syscall, previously(check(x) == 0))", {},
                                    "prop");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);
  uint32_t id = static_cast<uint32_t>(rt.FindAutomaton("prop"));

  PreviouslyOracle oracle;
  Rng rng(static_cast<uint64_t>(seed));
  for (int bound = 0; bound < 300; bound++) {
    rt.OnFunctionCall(ctx, S("syscall"), {});
    oracle.OnBoundStart();
    int actions = rng.Below(6);
    for (int a = 0; a < actions; a++) {
      int64_t value = rng.Below(4);
      switch (rng.Below(3)) {
        case 0: {  // successful check
          int64_t args[] = {value};
          rt.OnFunctionReturn(ctx, S("check"), args, 0);
          oracle.OnCheck(value, 0);
          break;
        }
        case 1: {  // failed check — must not satisfy the assertion
          int64_t args[] = {value};
          rt.OnFunctionReturn(ctx, S("check"), args, -1);
          oracle.OnCheck(value, -1);
          break;
        }
        case 2: {  // assertion site
          Binding site[] = {{0, value}};
          rt.OnAssertionSite(ctx, id, site);
          oracle.OnSite(value);
          break;
        }
      }
    }
    rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  }
  EXPECT_EQ(rt.stats().violations, oracle.violations)
      << "lazy=" << lazy << " dfa=" << use_dfa << " seed=" << seed;
}

// ---------------------------------------------------------------------------
// Oracle 2: eventually(audit(x) == 0).
// A bound is violated once per site-bound value v that is never audited
// before the bound closes.
// ---------------------------------------------------------------------------

TEST_P(ModeSweep, EventuallyMatchesOracleOnRandomSchedules) {
  auto [lazy, use_dfa, seed] = GetParam();
  Runtime rt(TestOptions(lazy, use_dfa));
  auto automaton = CompileAssertion("TESLA_WITHIN(syscall, eventually(audit(x) == 0))", {},
                                    "prop");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);
  uint32_t id = static_cast<uint32_t>(rt.FindAutomaton("prop"));

  uint64_t expected_violations = 0;
  Rng rng(static_cast<uint64_t>(seed) ^ 0xabcdef);
  for (int bound = 0; bound < 300; bound++) {
    rt.OnFunctionCall(ctx, S("syscall"), {});
    std::set<int64_t> pending;  // site reached, audit still owed
    int actions = rng.Below(6);
    for (int a = 0; a < actions; a++) {
      int64_t value = rng.Below(3);
      if (rng.Below(2) == 0) {
        Binding site[] = {{0, value}};
        rt.OnAssertionSite(ctx, id, site);
        pending.insert(value);
      } else {
        int64_t args[] = {value};
        rt.OnFunctionReturn(ctx, S("audit"), args, 0);
        pending.erase(value);
      }
    }
    rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    expected_violations += pending.size();
  }
  EXPECT_EQ(rt.stats().violations, expected_violations)
      << "lazy=" << lazy << " dfa=" << use_dfa << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModeSweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 3, 17, 99)),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "lazy" : "eager") +
             (std::get<1>(info.param) ? "Dfa" : "Nfa") + "Seed" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// NFA/DFA agreement on arbitrary symbol strings, over a family of assertions.
// ---------------------------------------------------------------------------

class NfaDfaAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(NfaDfaAgreement, SubsetConstructionIsExact) {
  auto automaton = CompileAssertion(GetParam());
  ASSERT_TRUE(automaton.ok()) << GetParam() << ": " << automaton.error().ToString();
  automata::Dfa dfa = automata::Determinize(*automaton);

  const size_t symbols = automaton->alphabet.size();
  Rng rng(FnvHashString(GetParam()));
  for (int trial = 0; trial < 300; trial++) {
    automata::StateSet nfa = automata::StateBit(automaton->initial_state);
    uint32_t state = 0;
    for (int step = 0; step < 16; step++) {
      uint16_t symbol = static_cast<uint16_t>(rng.Below(static_cast<int>(symbols)));
      automata::StateSet nfa_next = automaton->Step(nfa, symbol);
      uint32_t dfa_next = dfa.Step(state, symbol);
      ASSERT_EQ(nfa_next == 0, dfa_next == automata::Dfa::kNoTarget)
          << GetParam() << " trial " << trial;
      if (nfa_next == 0) {
        break;
      }
      ASSERT_EQ(dfa.states[dfa_next].nfa_states, nfa_next);
      nfa = nfa_next;
      state = dfa_next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AssertionFamily, NfaDfaAgreement,
    ::testing::Values(
        "TESLA_WITHIN(f, previously(a(x) == 0))",
        "TESLA_WITHIN(f, eventually(b(x) == 1))",
        "TESLA_WITHIN(f, TSEQUENCE(a(), b(), c()))",
        "TESLA_WITHIN(f, previously(a(x) == 0 || b(x) == 0))",
        "TESLA_WITHIN(f, previously(a(x) == 0 ^ b(x) == 0))",
        "TESLA_WITHIN(f, TSEQUENCE(a(), optional(b()), c()))",
        "TESLA_WITHIN(f, previously(ATLEAST(0, p(), q())))",
        "TESLA_WITHIN(f, TSEQUENCE(ATLEAST(2, t()), d()))",
        "TESLA_WITHIN(f, incallstack(g) || previously(a(x) == 0))",
        "TESLA_WITHIN(f, previously(TSEQUENCE(a(), b()) || c(x) == 0))",
        "TESLA_GLOBAL(call(f), returnfrom(g), eventually(h(x) == 0))",
        "TESLA_WITHIN(f, s.field = 3)",
        "TESLA_WITHIN(f, TSEQUENCE(s.n++, s.n--))"));

// ---------------------------------------------------------------------------
// Manifest round-trips for generated assertions.
// ---------------------------------------------------------------------------

class ManifestRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ManifestRoundTrip, GeneratedAssertionsSurviveSerialisation) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  automata::LowerOptions lower;
  lower.flags["F_A"] = 0x1;
  lower.flags["F_B"] = 0x2;
  lower.constants["K"] = 42;

  automata::Manifest manifest;
  for (int i = 0; i < 10; i++) {
    // Compose a random assertion from grammar fragments.
    const char* values[] = {"ANY(int)", "x", "7", "flags(F_A | F_B)", "bitmask(F_A)", "K", "&p"};
    const char* shapes[] = {
        "previously(fn%d(%s) == 0)",
        "eventually(fn%d(%s) == 1)",
        "TSEQUENCE(fn%d(%s), other%d())",
        "previously(fn%d(%s) == 0 || alt%d(x) == 0)",
        "optional(fn%d(%s))",
    };
    char expr[256];
    std::snprintf(expr, sizeof(expr), shapes[rng.Below(5)], i, values[rng.Below(7)], i);
    std::string source = "TESLA_WITHIN(bound" + std::to_string(rng.Below(3)) + ", " + expr + ")";
    auto automaton = CompileAssertion(source, lower, "gen" + std::to_string(i));
    ASSERT_TRUE(automaton.ok()) << source << ": " << automaton.error().ToString();
    manifest.Add(std::move(automaton.value()));
  }

  std::string text = manifest.Serialize();
  auto parsed = automata::Manifest::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed->automata.size(), manifest.automata.size());
  for (size_t i = 0; i < manifest.automata.size(); i++) {
    EXPECT_EQ(parsed->automata[i].alphabet, manifest.automata[i].alphabet) << i;
    EXPECT_EQ(parsed->automata[i].transitions, manifest.automata[i].transitions) << i;
    EXPECT_EQ(parsed->automata[i].variables, manifest.automata[i].variables) << i;
  }
  EXPECT_EQ(parsed->Serialize(), text) << "serialisation must be a fixpoint";

  // A freshly-registered runtime must accept the round-tripped manifest.
  Runtime rt(TestOptions());
  EXPECT_TRUE(rt.Register(*parsed).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifestRoundTrip, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Parser robustness: mutated inputs must error, never crash.
// ---------------------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, MutatedAssertionsFailGracefully) {
  const std::string base =
      "TESLA_WITHIN(enclosing_fn, previously(security_check(ANY(ptr), o, op) == 0))";
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  for (int trial = 0; trial < 200; trial++) {
    std::string mutated = base;
    int mutations = 1 + rng.Below(3);
    for (int m = 0; m < mutations; m++) {
      int position = rng.Below(static_cast<int>(mutated.size()));
      switch (rng.Below(3)) {
        case 0:
          mutated.erase(position, 1);
          break;
        case 1:
          mutated.insert(position, 1, "(),=|^&.x0"[rng.Below(10)]);
          break;
        case 2:
          mutated[position] = "(),=|^&.x0"[rng.Below(10)];
          break;
      }
    }
    // Must either parse (some mutations are harmless) or produce a located
    // diagnostic — never crash or hang.
    auto result = parser::ParseAssertion(mutated);
    if (!result.ok()) {
      EXPECT_GE(result.error().line, 0);
    } else {
      // Anything that parses must also lower (or fail cleanly).
      auto lowered = automata::Lower(result.value());
      (void)lowered;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Pool invariants under random alloc/free interleavings.
// ---------------------------------------------------------------------------

class PoolSweep : public ::testing::TestWithParam<int> {};

TEST_P(PoolSweep, NeverExceedsCapacityAndRecyclesEverything) {
  const size_t capacity = 1 + static_cast<size_t>(GetParam()) % 13;
  FixedPool<int64_t> pool(capacity);
  std::vector<int64_t*> live;
  Rng rng(static_cast<uint64_t>(GetParam()));
  uint64_t expected_overflows = 0;
  uint64_t failed_allocations = 0;
  for (int step = 0; step < 2000; step++) {
    if (rng.Below(2) == 0) {
      int64_t* object = pool.Allocate(step);
      failed_allocations += object == nullptr ? 1 : 0;
      if (live.size() >= capacity) {
        EXPECT_EQ(object, nullptr);
        expected_overflows++;
      } else {
        ASSERT_NE(object, nullptr);
        EXPECT_EQ(*object, step);
        live.push_back(object);
      }
    } else if (!live.empty()) {
      size_t index = static_cast<size_t>(rng.Below(static_cast<int>(live.size())));
      pool.Free(live[index]);
      live.erase(live.begin() + static_cast<long>(index));
    }
    EXPECT_LE(pool.live(), capacity);
  }
  EXPECT_EQ(failed_allocations, expected_overflows);
  for (int64_t* object : live) {
    pool.Free(object);
  }
  EXPECT_EQ(pool.live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, PoolSweep, ::testing::Range(1, 10));

}  // namespace
}  // namespace tesla

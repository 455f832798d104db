// Differential coverage for the binding-keyed instance index: the indexed
// fast path (RuntimeOptions::instance_index, default on) must agree
// event-for-event with the naive two-pass scan it replaces. Both modes are
// driven through identical pseudo-random schedules and compared on every
// semantically observable quantity after every event; index_probes and
// index_scans are excluded (they intentionally differ between modes). The
// schedules run at index gates 0, 1, 3 and 8, so the lazily built index is
// checked when it is built mid-bound and rebuilt bound after bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "profile/hints.h"
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
using runtime::ThreadContext;
using runtime::Violation;

Symbol S(const char* name) { return InternString(name); }

RuntimeOptions TestOptions() {
  RuntimeOptions options;
  options.fail_stop = false;
  // The directed checks keep only a handful of instances live; pin the probe
  // threshold to zero so they take the probe path they check. The
  // randomized schedules run at several gates (IndexGate), and the default
  // threshold is covered by ProbeDecisionIsMonotoneInPopulation below.
  options.index_min_population = 0;
  return options;
}

// One runtime + handler, compiled from `source` with the given options.
struct Side {
  Side(const std::string& source, RuntimeOptions options) : rt(options) {
    auto automaton = CompileAssertion(source, {}, "diff");
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    EXPECT_TRUE(rt.Register(manifest).ok());
    id = static_cast<uint32_t>(rt.FindAutomaton("diff"));
    rt.AddHandler(&handler);
    ctx = std::make_unique<ThreadContext>(rt);
  }
  Runtime rt;
  CountingHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  uint32_t id = 0;
};

// Indexed and naive runtimes built from the same source; Check() compares
// all semantic stats fields plus the violation-kind sequence.
struct Pair {
  explicit Pair(const std::string& source, RuntimeOptions options = TestOptions())
      : indexed(source, WithIndex(options, true)), naive(source, WithIndex(options, false)) {}

  static RuntimeOptions WithIndex(RuntimeOptions options, bool on) {
    options.instance_index = on;
    return options;
  }

  void Check(const char* where) {
    const RuntimeStats& a = indexed.rt.stats();
    const RuntimeStats& b = naive.rt.stats();
    ASSERT_EQ(a.events, b.events) << where;
    ASSERT_EQ(a.bound_entries, b.bound_entries) << where;
    ASSERT_EQ(a.bound_exits, b.bound_exits) << where;
    ASSERT_EQ(a.instances_created, b.instances_created) << where;
    ASSERT_EQ(a.instances_cloned, b.instances_cloned) << where;
    ASSERT_EQ(a.transitions, b.transitions) << where;
    ASSERT_EQ(a.accepts, b.accepts) << where;
    ASSERT_EQ(a.violations, b.violations) << where;
    ASSERT_EQ(a.overflows, b.overflows) << where;
    ASSERT_EQ(a.ignored_events, b.ignored_events) << where;
    ASSERT_EQ(a.arg_truncations, b.arg_truncations) << where;
    // index_probes / index_scans are deliberately NOT compared: the naive
    // side never touches the index, so they differ by construction.

    const std::vector<Violation>& va = indexed.handler.violations();
    const std::vector<Violation>& vb = naive.handler.violations();
    ASSERT_EQ(va.size(), vb.size()) << where;
    for (size_t i = 0; i < va.size(); i++) {
      ASSERT_EQ(va[i].kind, vb[i].kind) << where << " violation " << i;
      ASSERT_EQ(va[i].automaton, vb[i].automaton) << where << " violation " << i;
    }
  }

  Side indexed;
  Side naive;
};

// ---------------------------------------------------------------------------
// Randomized differential schedules, run at several index gates.
//
// The index is built lazily: nothing is filed until a class's live
// population reaches index_min_population, and then the whole population is
// filed at once. Gate 0 (and 1) builds it with the (∗) wildcard, as eager
// filing did; gates 3 and 8 build it mid-bound, from a clone event, and
// rebuild it in every later bound that grows past the gate. The schedules
// lean on clone events so a bound's population crosses every gate under
// test before the bound closes.

class IndexGate : public ::testing::TestWithParam<size_t> {
 protected:
  RuntimeOptions GateOptions() const {
    RuntimeOptions options = TestOptions();
    options.index_min_population = GetParam();
    return options;
  }
  // At a gate above the wildcard the schedule must have scanned below it
  // and probed past it; every gate must have probed.
  void ExpectBothRoutes(const Pair& p) const {
    EXPECT_GT(p.indexed.rt.stats().index_probes, 0u);
    if (GetParam() > 1) {
      EXPECT_GT(p.indexed.rt.stats().index_scans, 0u);
    }
    EXPECT_EQ(p.naive.rt.stats().index_probes, 0u);
  }
};

// Draws the next action: 0 = enter the bound, 1 = leave it, otherwise
// 2 + the index of the body action picked by `body_weights`.
int NextAction(uint64_t& rng, std::initializer_list<int> body_weights) {
  rng = rng * 6364136223846793005ull + 1;
  int total = 2;
  for (int w : body_weights) total += w;
  int roll = static_cast<int>((rng >> 33) % static_cast<uint64_t>(total));
  if (roll < 2) return roll;
  roll -= 2;
  int action = 2;
  for (int w : body_weights) {
    if (roll < w) return action;
    roll -= w;
    action++;
  }
  return action;
}

TEST_P(IndexGate, RandomizedOneVariableAgrees) {
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))", GateOptions());

  uint64_t rng = 7;
  for (int round = 0; round < 600; round++) {
    const int action = NextAction(rng, {10, 4});
    int64_t value = static_cast<int64_t>((rng >> 40) % 12);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
}

TEST_P(IndexGate, RandomizedTwoVariableWithPartialBindingsAgrees) {
  // pair(x, y) binds both variables on clone events, but assertion sites
  // sometimes supply only x: those dispatches cannot use the index and must
  // take the fall-back scan, which has to agree with the naive mode too.
  Pair p("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", GateOptions());

  uint64_t rng = 12345;
  for (int round = 0; round < 600; round++) {
    const int action = NextAction(rng, {8, 3, 2});
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding partial[] = {{0, x}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("pair"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, full);
          break;
        case 4:
          s->rt.OnAssertionSite(*s->ctx, s->id, partial);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
  EXPECT_GT(p.indexed.rt.stats().index_scans, 0u);  // partially-bound sites
}

TEST_P(IndexGate, RandomizedPrefixHintBuiltLateAgrees) {
  // A profile-hinted prefix index on x, under the global gate: the prefix
  // chains are built with the key index when the population crosses the
  // gate, so x-only sites switch from the scan to the prefix probe
  // mid-bound. y-only sites always scan.
  RuntimeOptions options = GateOptions();
  profile::ClassHint hint;
  hint.name = "diff";
  hint.prefix_key_pos = 0;
  options.plan_hints.classes.push_back(hint);
  Pair p("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", options);

  uint64_t rng = 2718;
  for (int round = 0; round < 600; round++) {
    const int action = NextAction(rng, {8, 2, 3, 1});
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding only_x[] = {{0, x}};
    Binding only_y[] = {{1, y}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("pair"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, full);
          break;
        case 4:
          s->rt.OnAssertionSite(*s->ctx, s->id, only_x);
          break;
        case 5:
          s->rt.OnAssertionSite(*s->ctx, s->id, only_y);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
}

TEST_P(IndexGate, RandomizedGlobalAutomatonAgrees) {
  Pair p("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
         GateOptions());

  uint64_t rng = 4242;
  for (int round = 0; round < 600; round++) {
    const int action = NextAction(rng, {10, 4});
    int64_t value = static_cast<int64_t>((rng >> 40) % 12);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
}

TEST_P(IndexGate, RandomizedDfaModeAgrees) {
  RuntimeOptions options = GateOptions();
  options.use_dfa = true;
  Pair p("TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))", options);

  uint64_t rng = 555;
  for (int round = 0; round < 600; round++) {
    const int action = NextAction(rng, {5, 5, 4});
    int64_t value = static_cast<int64_t>((rng >> 40) % 12);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("ca"), args, 0);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("cb"), args, 0);
          break;
        case 4:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
}

TEST_P(IndexGate, RandomizedOverflowPressureAgrees) {
  // A tiny pool: both modes must report the same kOverflow violations and
  // the same overflow counts even when most clones are dropped. The pool
  // caps the population at 3, so gate 8 is never reached and that run
  // never builds the index at all.
  RuntimeOptions options = GateOptions();
  options.instances_per_context = 3;
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  uint64_t rng = 31337;
  for (int round = 0; round < 300; round++) {
    const int action = NextAction(rng, {5, 1});
    int64_t value = static_cast<int64_t>((rng >> 40) % 16);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
      }
    }
    p.Check("round");
  }
  EXPECT_GT(p.indexed.rt.stats().overflows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Gates, IndexGate, ::testing::Values(0, 1, 3, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "gate" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Directed checks on index engagement and fall-back routing.

TEST(InstanceIndex, FastPathEngagesForFullyBoundDispatch) {
  RuntimeOptions options = TestOptions();
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {42};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  EXPECT_GT(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);

  Binding site[] = {{0, 42}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, PartialBindingFallsBackToScan) {
  Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", TestOptions());

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {1, 2};
  s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
  uint64_t scans_before = s.rt.stats().index_scans;

  // Only x bound at the site: mask mismatch, must take the scan path.
  Binding partial[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, partial);
  EXPECT_GT(s.rt.stats().index_scans, scans_before);
}

TEST(InstanceIndex, IndexDisabledNeverProbes) {
  RuntimeOptions options = TestOptions();
  options.instance_index = false;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {1};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  Binding site[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, ProbeDecisionIsMonotoneInPopulation) {
  // With the default index_min_population, a fully-bound dispatch must scan
  // below the threshold, probe at or above it, and never flip back to
  // scanning as the population grows (the decision is monotone in the live
  // count). The live population at the site is the wildcard plus one clone
  // per bound value.
  const size_t threshold = RuntimeOptions{}.index_min_population;
  ASSERT_GT(threshold, 1u);  // the small-population fallthrough is on by default
  bool probed_before = false;
  for (size_t clones = 1; clones <= 2 * threshold; clones++) {
    RuntimeOptions options;
    options.fail_stop = false;
    Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
    for (size_t v = 0; v < clones; v++) {
      int64_t args[] = {static_cast<int64_t>(v)};
      s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
    }
    s.rt.ResetStats();
    Binding site[] = {{0, 0}};
    s.rt.OnAssertionSite(*s.ctx, s.id, site);
    const bool probed = s.rt.stats().index_probes > 0;
    const bool scanned = s.rt.stats().index_scans > 0;
    ASSERT_NE(probed, scanned) << "clones=" << clones;  // exactly one path taken
    ASSERT_EQ(probed, clones + 1 >= threshold) << "clones=" << clones;
    ASSERT_TRUE(probed || !probed_before) << "clones=" << clones;  // monotone
    probed_before = probed;
    s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
    EXPECT_EQ(s.rt.stats().violations, 0u) << "clones=" << clones;
  }

  // Threshold zero probes unconditionally, even for the first dispatch.
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", TestOptions());
  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {7};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  EXPECT_GT(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);
}

// Logs every instance callback in order, naming the instance by its
// bindings: a probe reports instances in the order it walks a chain.
class CallbackLog : public runtime::EventHandler {
 public:
  void OnClone(const runtime::ClassInfo&, const runtime::Instance& parent,
               const runtime::Instance& clone) override {
    log.push_back("clone " + Name(parent) + " -> " + Name(clone));
  }
  void OnTransition(const runtime::ClassInfo&, const runtime::Instance& instance,
                    automata::StateSet from, uint16_t, automata::StateSet to) override {
    log.push_back("step " + Name(instance) + " " + std::to_string(from) + "->" +
                  std::to_string(to));
  }
  void OnAccept(const runtime::ClassInfo&, const runtime::Instance& instance) override {
    log.push_back("accept " + Name(instance));
  }
  std::vector<std::string> log;

 private:
  static std::string Name(const runtime::Instance& instance) {
    std::string name = "(";
    for (uint16_t var = 0; var < 2; var++) {
      name += instance.IsBound(var) ? std::to_string(instance.values[var]) : "*";
      name += var == 0 ? "," : ")";
    }
    return name;
  }
};

TEST(InstanceIndex, LateBuildWalksChainsLikeEagerFiling) {
  // Six instances share the hinted prefix x = 1, so an x-only site walks one
  // prefix chain of them. Built at the gate from the whole population, that
  // chain must list them in the order filing each clone as it was created
  // (gate 0) does: the same callbacks, in the same order. The bound repeats,
  // so the index is also rebuilt.
  auto run = [](size_t gate) {
    RuntimeOptions options = TestOptions();
    options.index_min_population = gate;
    profile::ClassHint hint;
    hint.name = "diff";
    hint.prefix_key_pos = 0;
    options.plan_hints.classes.push_back(hint);
    Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", options);
    CallbackLog callbacks;
    s.rt.AddHandler(&callbacks);
    for (int bound = 0; bound < 2; bound++) {
      s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
      for (int64_t y = 0; y < 6; y++) {
        int64_t args[] = {1, y};
        s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
      }
      Binding only_x[] = {{0, 1}};
      s.rt.OnAssertionSite(*s.ctx, s.id, only_x);
      s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
    }
    EXPECT_GT(s.rt.stats().index_probes, 0u);
    EXPECT_EQ(s.rt.stats().violations, 0u);
    return callbacks.log;
  };
  const std::vector<std::string> eager = run(0);
  ASSERT_FALSE(eager.empty());
  EXPECT_EQ(run(4), eager);
}

TEST(InstanceIndex, ManyDistinctKeysStayIndependent) {
  // Grow the index through several rehashes and verify per-key isolation:
  // each bound value must only satisfy its own assertion site.
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 512;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  for (int64_t v = 0; v < 200; v += 2) {  // bind even values only
    int64_t args[] = {v};
    s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  }
  uint64_t violations = 0;
  for (int64_t v = 0; v < 200; v++) {
    Binding site[] = {{0, v}};
    s.rt.OnAssertionSite(*s.ctx, s.id, site);
    if (v % 2 != 0) violations++;  // odd values were never bound
    ASSERT_EQ(s.rt.stats().violations, violations) << "v=" << v;
  }
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
}

}  // namespace
}  // namespace tesla

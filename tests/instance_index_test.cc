// Differential coverage for the binding-keyed instance index: the indexed
// fast path (RuntimeOptions::instance_index, default on) must agree
// event-for-event with the naive two-pass scan it replaces. Both modes are
// driven through identical pseudo-random schedules and compared on every
// semantically observable quantity after every event; index_probes and
// index_scans are excluded (they intentionally differ between modes). The
// schedules keep bounds open long enough that their populations cross
// kIndexMinPopulation, so the lazily built index is checked when it is
// built mid-bound and rebuilt bound after bound — keyed on the full key set
// and, under a plan hint, on one variable.
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
#include "runtime/instance_store.h"
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
// Randomized differential schedules, with and without an index-key hint.
//
// The index is built lazily: nothing is filed until a class's live
// population reaches kIndexMinPopulation, and then the whole population is
// filed at once. The schedules weight clone events far above bound entry and
// exit, so most bounds grow past the gate: each run scans below it, builds
// the index from a clone event and probes past it, bound after bound. The
// parameter is the hinted prefix_key_pos: -1 (no hint: the full key set),
// 0 (x only) or 1 (y only; out of range for one-variable classes, which
// ignore it and keep the full key).

// TestOptions() plus, for prefix_key_pos >= 0, a hint keying the "diff"
// class's index on that one key variable.
RuntimeOptions KeyedOptions(int prefix_key_pos) {
  RuntimeOptions options = TestOptions();
  if (prefix_key_pos >= 0) {
    profile::ClassHint hint;
    hint.name = "diff";
    hint.prefix_key_pos = prefix_key_pos;
    options.plan_hints.classes.push_back(hint);
  }
  return options;
}

class IndexKey : public ::testing::TestWithParam<int> {
 protected:
  RuntimeOptions KeyOptions() const { return KeyedOptions(GetParam()); }
};

// Every schedule must have scanned below the gate and probed past it.
void ExpectBothRoutes(const Pair& p) {
  EXPECT_GT(p.indexed.rt.stats().index_probes, 0u);
  EXPECT_GT(p.indexed.rt.stats().index_scans, 0u);
  EXPECT_EQ(p.naive.rt.stats().index_probes, 0u);
}

// Draws the next action: 0 = enter the bound, 1 = leave it, otherwise
// 2 + the index of the body action picked by `body_weights`.
int NextAction(uint64_t& rng, std::initializer_list<int> body_weights) {
  rng = rng * 6364136223846793005ull + 1;
  int total = 2;  // bound entry and exit weigh 1 each
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

TEST_P(IndexKey, RandomizedOneVariableAgrees) {
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))", KeyOptions());

  uint64_t rng = 7;
  for (int round = 0; round < 1200; round++) {
    const int action = NextAction(rng, {40, 16});
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

TEST_P(IndexKey, RandomizedTwoVariableWithPartialBindingsAgrees) {
  // pair(x, y) binds both variables on clone events, but assertion sites
  // sometimes supply only x or only y: a site missing an index variable
  // takes the fall-back scan, one binding every index variable probes —
  // under an x hint, x-only sites probe the x bucket. Sites that also bind
  // a variable outside the key (z, never declared by the class) probe the
  // full-key bucket and clone instances that carry z. All of it must agree
  // with the naive mode.
  Pair p("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", KeyOptions());

  uint64_t rng = 12345;
  for (int round = 0; round < 1200; round++) {
    const int action = NextAction(rng, {32, 12, 8, 8, 4});
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t z = static_cast<int64_t>((rng >> 50) % 2);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding only_x[] = {{0, x}};
    Binding only_y[] = {{1, y}};
    Binding with_z[] = {{0, x}, {1, y}, {2, z}};

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
        case 6:
          s->rt.OnAssertionSite(*s->ctx, s->id, with_z);
          break;
      }
    }
    p.Check("round");
  }
  ExpectBothRoutes(p);
}

// Two branches that clone on different subsets of the key {x, y}: f(x)
// leaves y unbound, g(x, y) binds both. Under an x hint an f clone sits in
// its x bucket, so a g event that matches nothing exactly finds consistent
// parents in the bucket and in the tail at once, and several of them clone
// to the same bindings. Dedup keeps the first parent whose clone steps, so
// the probe must take parents in creation order, as the scan does, or the
// surviving clone (and the site's verdict) differs.
const char* const kSubsetCloneSource =
    "TESLA_WITHIN(syscall, previously(TSEQUENCE(f(x) == 0, g(x, y) == 0) || "
    "TSEQUENCE(g(x, y) == 0, h(x, y) == 0)))";

TEST_P(IndexKey, RandomizedSubsetCloneAgrees) {
  Pair p(kSubsetCloneSource, KeyOptions());

  uint64_t rng = 2718;
  for (int round = 0; round < 1500; round++) {
    const int action = NextAction(rng, {16, 16, 12, 10, 4});
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t only_x_args[] = {x};
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding only_x[] = {{0, x}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("f"), only_x_args, 0);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("g"), args, 0);
          break;
        case 4:
          s->rt.OnFunctionReturn(*s->ctx, S("h"), args, 0);
          break;
        case 5:
          s->rt.OnAssertionSite(*s->ctx, s->id, full);
          break;
        case 6:
          s->rt.OnAssertionSite(*s->ctx, s->id, only_x);
          break;
      }
    }
    p.Check("round");
  }
  EXPECT_GT(p.naive.rt.stats().violations, 0u);
  ExpectBothRoutes(p);
}

TEST_P(IndexKey, RandomizedGlobalAutomatonAgrees) {
  Pair p("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
         KeyOptions());

  uint64_t rng = 4242;
  for (int round = 0; round < 1200; round++) {
    const int action = NextAction(rng, {40, 16});
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

TEST_P(IndexKey, RandomizedDfaModeAgrees) {
  RuntimeOptions options = KeyOptions();
  options.use_dfa = true;
  Pair p("TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))", options);

  uint64_t rng = 555;
  for (int round = 0; round < 1200; round++) {
    const int action = NextAction(rng, {20, 20, 16});
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

TEST(InstanceIndex, RandomizedOverflowPressureAgrees) {
  // A pool just past the gate: the index is built, then most clones are
  // dropped. Both modes must report the same kOverflow violations and the
  // same overflow counts. (No hint: hints size the pool themselves.)
  RuntimeOptions options = TestOptions();
  options.instances_per_context = runtime::kIndexMinPopulation + 2;
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  uint64_t rng = 31337;
  for (int round = 0; round < 1200; round++) {
    const int action = NextAction(rng, {40, 8});
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
  ExpectBothRoutes(p);
}

INSTANTIATE_TEST_SUITE_P(Keys, IndexKey, ::testing::Values(-1, 0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param < 0 ? std::string("full_key")
                                                 : "prefix" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Directed checks on index engagement and fall-back routing. Each opens a
// bound and clones until the population reaches the gate, so the dispatch
// under test is past it.

// Clones one check(x) instance per value in [first, first + count).
void CloneChecks(Side& s, int64_t first, size_t count) {
  for (size_t i = 0; i < count; i++) {
    int64_t args[] = {first + static_cast<int64_t>(i)};
    s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  }
}

TEST(InstanceIndex, FastPathEngagesForFullyBoundDispatch) {
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", TestOptions());

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  CloneChecks(s, 0, runtime::kIndexMinPopulation - 1);  // + (∗) reaches the gate
  s.rt.ResetStats();
  CloneChecks(s, 42, 1);
  EXPECT_EQ(s.rt.stats().index_probes, 1u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);

  Binding site[] = {{0, 42}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  EXPECT_EQ(s.rt.stats().index_probes, 2u);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, PartialBindingFallsBackToScan) {
  Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", TestOptions());

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  for (int64_t y = 0; y < static_cast<int64_t>(runtime::kIndexMinPopulation); y++) {
    int64_t args[] = {1, y};
    s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
  }
  s.rt.ResetStats();

  // Only x bound at the site: y is an index variable, so it must scan.
  Binding partial[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, partial);
  EXPECT_EQ(s.rt.stats().index_scans, 1u);
  EXPECT_EQ(s.rt.stats().index_probes, 0u);
}

TEST(InstanceIndex, BindingBeyondTheKeyProbes) {
  // A site binding the whole key plus a variable outside it (z, which the
  // class never declares) probes: its exact matches and every consistent
  // parent carrying the key sit in the key's bucket. Its clones carry z,
  // and both modes must still agree.
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  for (Side* s : {&p.indexed, &p.naive}) {
    s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
    CloneChecks(*s, 0, runtime::kIndexMinPopulation);
    s->rt.ResetStats();
    Binding with_z[] = {{0, 3}, {1, 9}};
    s->rt.OnAssertionSite(*s->ctx, s->id, with_z);
    Binding again[] = {{0, 3}, {1, 9}};
    s->rt.OnAssertionSite(*s->ctx, s->id, again);
    Binding other_z[] = {{0, 3}, {1, 8}};
    s->rt.OnAssertionSite(*s->ctx, s->id, other_z);
    s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
  }
  p.Check("bound");
  EXPECT_EQ(p.indexed.rt.stats().index_probes, 3u);
  EXPECT_EQ(p.indexed.rt.stats().index_scans, 0u);
  EXPECT_EQ(p.indexed.rt.stats().violations, 0u);
}

TEST(InstanceIndex, IndexDisabledNeverProbes) {
  RuntimeOptions options = TestOptions();
  options.instance_index = false;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  CloneChecks(s, 0, 2 * runtime::kIndexMinPopulation);
  Binding site[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, ProbeDecisionIsMonotoneInPopulation) {
  // A fully-bound dispatch must scan below kIndexMinPopulation, probe at or
  // above it, and never flip back to scanning as the population grows (the
  // decision is monotone in the live count). The live population at the
  // site is the wildcard plus one clone per bound value.
  const size_t threshold = runtime::kIndexMinPopulation;
  ASSERT_GT(threshold, 1u);
  bool probed_before = false;
  for (size_t clones = 1; clones <= 2 * threshold; clones++) {
    Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", TestOptions());
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
    CloneChecks(s, 0, clones);
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
}

TEST(InstanceIndex, ProbeTakesCloneParentsInCreationOrder) {
  // Past the gate, f(1) clones A = (1,*) from the wildcard W. g(1, 2) then
  // matches nothing exactly, and both W (older) and A can step on it, to the
  // same bindings (1,2). The scan clones W's first, which still needs h, and
  // drops A's as a duplicate, so the site fails. Under an x hint A sits in
  // the x = 1 bucket and W in the tail; the probe must still clone W's
  // first, whatever the key.
  for (int key : {-1, 0, 1}) {
    Pair p(kSubsetCloneSource, KeyedOptions(key));
    for (Side* s : {&p.indexed, &p.naive}) {
      s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
      for (int64_t v = 0; v < static_cast<int64_t>(runtime::kIndexMinPopulation); v++) {
        int64_t args[] = {100 + v};
        s->rt.OnFunctionReturn(*s->ctx, S("f"), args, 0);
      }
      int64_t x_args[] = {1};
      s->rt.OnFunctionReturn(*s->ctx, S("f"), x_args, 0);
      s->rt.ResetStats();
      int64_t xy_args[] = {1, 2};
      s->rt.OnFunctionReturn(*s->ctx, S("g"), xy_args, 0);
      Binding site[] = {{0, 1}, {1, 2}};
      s->rt.OnAssertionSite(*s->ctx, s->id, site);
      s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
    }
    p.Check("bound");
    EXPECT_EQ(p.naive.rt.stats().violations, 1u) << "key " << key;
    EXPECT_GT(p.indexed.rt.stats().index_probes, 0u) << "key " << key;
  }
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
  // Nine clones share the hinted index key x = 1. The index is built from
  // the whole population when the seventh clone brings it (with the (∗)
  // wildcard) to the gate; the last two clones are filed as they are
  // created. Either way the x = 1 chain must list the clones newest first,
  // as filing each one at its creation would: an x-only site steps y = 8
  // down to y = 0. The bound repeats, so the index is also rebuilt.
  RuntimeOptions options = TestOptions();
  profile::ClassHint hint;
  hint.name = "diff";
  hint.prefix_key_pos = 0;
  options.plan_hints.classes.push_back(hint);
  Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", options);
  CallbackLog callbacks;
  s.rt.AddHandler(&callbacks);
  const int64_t clones = static_cast<int64_t>(runtime::kIndexMinPopulation) + 1;
  for (int bound = 0; bound < 2; bound++) {
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
    for (int64_t y = 0; y < clones; y++) {
      int64_t args[] = {1, y};
      s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
    }
    callbacks.log.clear();
    s.rt.ResetStats();
    Binding only_x[] = {{0, 1}};
    s.rt.OnAssertionSite(*s.ctx, s.id, only_x);
    EXPECT_EQ(s.rt.stats().index_probes, 1u) << "bound " << bound;
    ASSERT_EQ(callbacks.log.size(), static_cast<size_t>(clones)) << "bound " << bound;
    for (int64_t i = 0; i < clones; i++) {
      const std::string name = "step (1," + std::to_string(clones - 1 - i) + ") ";
      EXPECT_EQ(callbacks.log[static_cast<size_t>(i)].rfind(name, 0), 0u)
          << "bound " << bound << ": " << callbacks.log[static_cast<size_t>(i)];
    }
    s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  }
  EXPECT_EQ(s.rt.stats().violations, 0u);
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

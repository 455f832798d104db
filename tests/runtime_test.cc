#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "runtime/scope.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::CountingHandler;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;
using runtime::ViolationKind;

RuntimeOptions TestOptions() {
  RuntimeOptions options;
  options.fail_stop = false;  // tests observe violations instead of aborting
  return options;
}

// Builds a runtime around a single assertion; returns the automaton id.
struct Fixture {
  explicit Fixture(const std::string& source, RuntimeOptions options = TestOptions(),
                   const automata::LowerOptions& lower = {})
      : rt(options) {
    auto automaton = CompileAssertion(source, lower, "test");
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    auto status = rt.Register(manifest);
    EXPECT_TRUE(status.ok()) << status.error().ToString();
    id = static_cast<uint32_t>(rt.FindAutomaton("test"));
    handler = std::make_unique<CountingHandler>();
    rt.AddHandler(handler.get());
  }

  Runtime rt;
  uint32_t id = 0;
  std::unique_ptr<CountingHandler> handler;
};

Symbol S(const char* name) { return InternString(name); }

TEST(Runtime, PreviouslySatisfied) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{7}, 0);
  Binding site[] = {{0, 7}};  // x = 7
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_EQ(f.rt.stats().accepts, 2u);  // the (*) instance and the (x=7) clone
  EXPECT_EQ(f.rt.stats().instances_cloned, 1u);
}

TEST(Runtime, PreviouslyViolatedWhenCheckMissing) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 7}};
  f.rt.OnAssertionSite(ctx, f.id, site);

  ASSERT_EQ(f.rt.stats().violations, 1u);
  EXPECT_EQ(f.handler->violations()[0].kind, ViolationKind::kBadSite);
}

TEST(Runtime, PreviouslyViolatedOnWrongBinding) {
  // The paper's (vp3) case: the check ran for vp1/vp2 but the site sees vp3.
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{1}, 0);
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{2}, 0);
  EXPECT_EQ(f.rt.stats().instances_cloned, 2u);  // (x=1) and (x=2)

  Binding site[] = {{0, 3}};  // x = 3: never checked
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, CheckWithWrongReturnValueDoesNotSatisfy) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{7}, -1);  // failed check
  Binding site[] = {{0, 7}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, EventuallyViolatedAtCleanup) {
  Fixture f("TESLA_WITHIN(syscall, eventually(audit(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 5}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 0u);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);  // audit never happened

  ASSERT_GE(f.rt.stats().violations, 1u);
  EXPECT_EQ(f.handler->violations()[0].kind, ViolationKind::kBadCleanup);
}

TEST(Runtime, EventuallySatisfied) {
  Fixture f("TESLA_WITHIN(syscall, eventually(audit(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 5}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("audit"), std::vector<int64_t>{5}, 0);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, SiteNeverReachedIsBypassed) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{1}, 0);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);  // no site this path
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, EventsOutsideBoundAreIgnored) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  // No syscall entry: everything is out of bound.
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{1}, 0);
  Binding site[] = {{0, 1}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_EQ(f.rt.stats().instances_created, 0u);
}

TEST(Runtime, BoundResetBetweenSyscalls) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  // First syscall performs the check.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{9}, 0);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  // Second syscall must not inherit the first one's check.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 9}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, RepeatedIdenticalCheckIsIgnoredNotViolated) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{4}, 0);
  f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{4}, 0);  // repeat
  Binding site[] = {{0, 4}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_GE(f.rt.stats().ignored_events, 1u);
}

TEST(Runtime, StrictAutomatonRejectsUnconsumableEvents) {
  Fixture f("TESLA_WITHIN(syscall, strict(TSEQUENCE(a(), b())))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionCall(ctx, S("b"), {});  // b before a
  ASSERT_GE(f.rt.stats().violations, 1u);
  EXPECT_EQ(f.handler->violations()[0].kind, ViolationKind::kStrictEvent);
}

TEST(Runtime, OrAcceptsEitherOrBoth) {
  const char* source = "TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))";
  for (auto events : {std::vector<const char*>{"ca"}, std::vector<const char*>{"cb"},
                      std::vector<const char*>{"ca", "cb"}}) {
    Fixture f(source);
    ThreadContext ctx(f.rt);
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    for (const char* fn : events) {
      f.rt.OnFunctionReturn(ctx, S(fn), std::vector<int64_t>{2}, 0);
    }
    Binding site[] = {{0, 2}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    EXPECT_EQ(f.rt.stats().violations, 0u) << events.size() << " branches fired";
  }
}

TEST(Runtime, InCallStackSatisfiesSite) {
  Fixture f(
      "TESLA_WITHIN(syscall, incallstack(inner) || previously(check(x) == 0))");
  {
    // Path 1: site reached while `inner` is on the stack — no check needed.
    ThreadContext ctx(f.rt);
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    f.rt.OnFunctionCall(ctx, S("inner"), {});
    Binding site[] = {{0, 1}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("inner"), {}, 0);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    EXPECT_EQ(f.rt.stats().violations, 0u);
  }
  {
    // Path 2: site reached outside `inner` and without the check — violation.
    ThreadContext ctx(f.rt);
    f.rt.ResetStats();
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    Binding site[] = {{0, 1}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    EXPECT_EQ(f.rt.stats().violations, 1u);
  }
}

TEST(Runtime, FieldAssignEvents) {
  automata::LowerOptions lower;
  lower.constants["NEXT_STATE"] = 3;
  Fixture f("TESLA_WITHIN(syscall, previously(s.state = NEXT_STATE))", TestOptions(), lower);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("state"), /*object=*/100, /*old=*/0, /*new=*/3);
  Binding site[] = {{0, 100}};  // s = object 100
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);

  // Wrong value assigned: the site must fail for that object.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("state"), 100, 0, 2);
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, CompoundFieldAssign) {
  Fixture f("TESLA_WITHIN(syscall, previously(s.count += 1))");
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("count"), 200, 5, 6);  // += 1
  Binding site[] = {{0, 200}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("count"), 200, 5, 9);  // += 4: no match
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, IndirectArgumentBinding) {
  int64_t error_slot = 0;
  RuntimeOptions options = TestOptions();
  options.memory_reader = [&](int64_t address, int64_t* value) {
    if (address != reinterpret_cast<int64_t>(&error_slot)) {
      return false;
    }
    *value = error_slot;
    return true;
  };
  Fixture f("TESLA_WITHIN(syscall, previously(fetch(&err) == 1))", options);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  error_slot = 42;
  f.rt.OnFunctionReturn(ctx, S("fetch"),
                        std::vector<int64_t>{reinterpret_cast<int64_t>(&error_slot)}, 1);
  Binding site[] = {{0, 42}};  // err = 42, read through the pointer
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, LazyAndEagerModesAgree) {
  // Drive an identical pseudo-random event schedule through both modes and
  // compare observable outcomes.
  for (bool lazy : {false, true}) {
    RuntimeOptions options = TestOptions();
    options.lazy_init = lazy;
    Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
    ThreadContext ctx(f.rt);

    uint64_t rng = 99;
    uint64_t violations = 0;
    for (int round = 0; round < 200; round++) {
      rng = rng * 6364136223846793005ull + 1;
      bool do_check = (rng >> 33) % 2 == 0;
      bool do_site = (rng >> 34) % 2 == 0;
      int64_t value = static_cast<int64_t>((rng >> 35) % 3);

      f.rt.OnFunctionCall(ctx, S("syscall"), {});
      if (do_check) {
        f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{value}, 0);
      }
      if (do_site) {
        Binding site[] = {{0, value}};
        f.rt.OnAssertionSite(ctx, f.id, site);
        if (!do_check) {
          violations++;
        }
      }
      f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    }
    EXPECT_EQ(f.rt.stats().violations, violations) << "lazy=" << lazy;
  }
}

TEST(Runtime, DfaModeMatchesNfaMode) {
  for (bool use_dfa : {false, true}) {
    RuntimeOptions options = TestOptions();
    options.use_dfa = use_dfa;
    Fixture f("TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))", options);
    ThreadContext ctx(f.rt);

    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    f.rt.OnFunctionReturn(ctx, S("ca"), std::vector<int64_t>{1}, 0);
    f.rt.OnFunctionReturn(ctx, S("cb"), std::vector<int64_t>{1}, 0);
    Binding site[] = {{0, 1}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    EXPECT_EQ(f.rt.stats().violations, 0u) << "use_dfa=" << use_dfa;

    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    f.rt.OnAssertionSite(ctx, f.id, site);
    EXPECT_EQ(f.rt.stats().violations, 1u) << "use_dfa=" << use_dfa;
  }
}

TEST(Runtime, GlobalContextSharedAcrossThreadContexts) {
  Fixture f("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))");
  ThreadContext t1(f.rt);
  ThreadContext t2(f.rt);

  // The check happens on thread 1, the assertion site on thread 2: the global
  // store must connect them.
  f.rt.OnFunctionCall(t1, S("syscall"), {});
  f.rt.OnFunctionReturn(t1, S("check"), std::vector<int64_t>{8}, 0);
  Binding site[] = {{0, 8}};
  f.rt.OnAssertionSite(t2, f.id, site);
  f.rt.OnFunctionReturn(t2, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, PerThreadContextsAreIsolated) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext t1(f.rt);
  ThreadContext t2(f.rt);

  f.rt.OnFunctionCall(t1, S("syscall"), {});
  f.rt.OnFunctionReturn(t1, S("check"), std::vector<int64_t>{8}, 0);

  // Thread 2 has its own bound and has not performed the check.
  f.rt.OnFunctionCall(t2, S("syscall"), {});
  Binding site[] = {{0, 8}};
  f.rt.OnAssertionSite(t2, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(Runtime, PoolOverflowIsReportedNotFatal) {
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 2;  // wildcard + one clone
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t value = 0; value < 5; value++) {
    f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{value}, 0);
  }
  EXPECT_GE(f.rt.stats().overflows, 1u);
  EXPECT_EQ(f.rt.stats().instances_cloned, 1u);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(ctx.pool_overflows(), f.rt.stats().overflows);
}

TEST(Runtime, CountingHandlerAggregatesTransitions) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  for (int round = 0; round < 10; round++) {
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    f.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{round}, 0);
    Binding site[] = {{0, round}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  }
  uint64_t total = 0;
  for (const auto& [key, count] : f.handler->CountsFor(f.id)) {
    total += count;
  }
  EXPECT_EQ(total, f.rt.stats().transitions);
  EXPECT_GT(total, 0u);
}

TEST(Runtime, FunctionScopeGuardsEmitCallAndReturn) {
  Fixture f("TESLA_WITHIN(outer, previously(helper(x) == 7))");
  ThreadContext ctx(f.rt);
  {
    runtime::FunctionScope outer(&f.rt, &ctx, S("outer"), {});
    {
      runtime::FunctionScope helper(&f.rt, &ctx, S("helper"), {11});
      helper.Return(7);
    }
    Binding site[] = {{0, 11}};
    f.rt.OnAssertionSite(ctx, f.id, site);
  }
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, StoreFieldHelperFiresEvent) {
  Fixture f("TESLA_WITHIN(outer, previously(s.flags = 4))");
  ThreadContext ctx(f.rt);
  int64_t flags = 0;
  {
    runtime::FunctionScope outer(&f.rt, &ctx, S("outer"), {});
    runtime::StoreField(&f.rt, &ctx, S("flags"), /*object=*/55, &flags, int64_t{4});
    EXPECT_EQ(flags, 4);
    Binding site[] = {{0, 55}};
    f.rt.OnAssertionSite(ctx, f.id, site);
  }
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(Runtime, MultipleAutomataShareBound) {
  automata::Manifest manifest;
  for (int i = 0; i < 10; i++) {
    auto automaton = CompileAssertion(
        "TESLA_WITHIN(syscall, previously(check" + std::to_string(i) + "(x) == 0))", {},
        "auto" + std::to_string(i));
    ASSERT_TRUE(automaton.ok());
    manifest.Add(std::move(automaton.value()));
  }
  Runtime rt(TestOptions());
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);

  rt.OnFunctionCall(ctx, S("syscall"), {});
  rt.OnFunctionReturn(ctx, S("check3"), std::vector<int64_t>{1}, 0);
  Binding site[] = {{0, 1}};
  rt.OnAssertionSite(ctx, static_cast<uint32_t>(rt.FindAutomaton("auto3")), site);
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(rt.stats().violations, 0u);

  // Only the automaton that saw events was instantiated in lazy mode.
  EXPECT_EQ(rt.stats().instances_created, 1u);
}

// A global shard gets a context (instance pool, class table, obs shard,
// trace ring) only when a global class maps to it: with none registered the
// runtime's live contexts are the callers' alone, and a single global class
// adds exactly one. The shard count itself is unchanged.
TEST(Runtime, ShardContextsOnlyWhereAGlobalClassLives) {
  RuntimeOptions options = TestOptions();
  options.global_shards = 8;
  options.trace_mode = trace::TraceMode::kFlightRecorder;
  Fixture local("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
  EXPECT_EQ(local.rt.shard_count(), 8u);
  EXPECT_EQ(local.rt.context_count(), 0u);
  {
    ThreadContext a(local.rt);
    ThreadContext b(local.rt);
    EXPECT_EQ(local.rt.context_count(), 2u);
    local.rt.OnFunctionCall(a, S("syscall"), {});
    local.rt.OnFunctionReturn(a, S("syscall"), {}, 0);
    EXPECT_EQ(local.rt.shard_pool_overflows(), 0u);
    EXPECT_EQ(local.rt.shard_pool_high_water(), 0u);
    local.rt.ResetStats();
  }
  EXPECT_EQ(local.rt.context_count(), 0u);

  Fixture global("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
                 options);
  EXPECT_EQ(global.rt.shard_count(), 8u);
  EXPECT_EQ(global.rt.context_count(), 1u);
  ThreadContext ctx(global.rt);
  EXPECT_EQ(global.rt.context_count(), 2u);
  global.rt.OnFunctionCall(ctx, S("syscall"), {});
  global.rt.OnFunctionReturn(ctx, S("check"), std::vector<int64_t>{0}, 0);
  Binding site[] = {{0, 0}};
  global.rt.OnAssertionSite(ctx, global.id, site);
  global.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(global.rt.stats().violations, 0u);
  EXPECT_EQ(global.rt.stats().accepts, 2u);
}

}  // namespace
}  // namespace tesla

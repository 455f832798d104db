// Edge-case coverage for libtesla semantics beyond the core lifecycle tests:
// XOR exclusivity, ATLEAST counting, asymmetric bounds, strict automata,
// overflow recovery, multi-threaded global stores, and handler plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "runtime/runtime.h"
#include "runtime/scope.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;
using runtime::ViolationKind;

RuntimeOptions TestOptions() {
  RuntimeOptions options;
  options.fail_stop = false;
  return options;
}

Symbol S(const char* name) { return InternString(name); }

struct Fixture {
  explicit Fixture(const std::string& source, RuntimeOptions options = TestOptions(),
                   const automata::LowerOptions& lower = {})
      : rt(options) {
    auto automaton = CompileAssertion(source, lower, "edge");
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    EXPECT_TRUE(rt.Register(manifest).ok());
    id = static_cast<uint32_t>(rt.FindAutomaton("edge"));
  }
  Runtime rt;
  uint32_t id = 0;
};

TEST(RuntimeEdge, XorForbidsMixingBranchesUnderStrict) {
  Fixture f("TESLA_WITHIN(syscall, strict(previously(ca(x) == 0 ^ cb(x) == 0)))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {1};
  f.rt.OnFunctionReturn(ctx, S("ca"), args, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
  // The other branch fires: under strict ^ this is a violation.
  f.rt.OnFunctionReturn(ctx, S("cb"), args, 0);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(RuntimeEdge, XorEitherBranchAloneSatisfies) {
  for (const char* branch : {"ca", "cb"}) {
    Fixture f("TESLA_WITHIN(syscall, previously(ca(x) == 0 ^ cb(x) == 0))");
    ThreadContext ctx(f.rt);
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    int64_t args[] = {1};
    f.rt.OnFunctionReturn(ctx, S(branch), args, 0);
    Binding site[] = {{0, 1}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    EXPECT_EQ(f.rt.stats().violations, 0u) << branch;
  }
}

TEST(RuntimeEdge, AtLeastCountsAtRuntime) {
  // Two ticks required before the site.
  Fixture f("TESLA_WITHIN(syscall, previously(ATLEAST(2, tick())))");
  for (int ticks = 0; ticks <= 3; ticks++) {
    ThreadContext ctx(f.rt);
    f.rt.ResetStats();
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    for (int i = 0; i < ticks; i++) {
      f.rt.OnFunctionCall(ctx, S("tick"), {});
    }
    f.rt.OnAssertionSite(ctx, f.id, {});
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
    if (ticks >= 2) {
      EXPECT_EQ(f.rt.stats().violations, 0u) << ticks << " ticks";
    } else {
      EXPECT_EQ(f.rt.stats().violations, 1u) << ticks << " ticks";
    }
  }
}

TEST(RuntimeEdge, AsymmetricBounds) {
  // Bound opens at returnfrom(setup) and closes at call(teardown).
  Fixture f("TESLA_PERTHREAD(returnfrom(setup), call(teardown),"
            " previously(work(x) == 0))");
  ThreadContext ctx(f.rt);

  // Events before the bound opens are ignored.
  Binding site[] = {{0, 9}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 0u);

  f.rt.OnFunctionReturn(ctx, S("setup"), {}, 0);  // «init»
  int64_t args[] = {9};
  f.rt.OnFunctionReturn(ctx, S("work"), args, 0);
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionCall(ctx, S("teardown"), {});  // «cleanup»
  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_GE(f.rt.stats().accepts, 1u);

  // After cleanup, the site is out of bound again.
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, EventuallyRearmedByRepeatedSiteVisits) {
  // After the obligation is met, reaching the site again re-arms it.
  Fixture f("TESLA_WITHIN(syscall, eventually(audit(x) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 4}};
  int64_t args[] = {4};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("audit"), args, 0);  // satisfied
  f.rt.OnAssertionSite(ctx, f.id, site);            // re-armed
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);  // second audit never came
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(RuntimeEdge, PreviouslySatisfiedSurvivesRepeatedSites) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {4};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  Binding site[] = {{0, 4}};
  for (int i = 0; i < 5; i++) {
    f.rt.OnAssertionSite(ctx, f.id, site);
  }
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, OverflowRecoversOnNextBound) {
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 3;
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
  ThreadContext ctx(f.rt);

  // Exhaust the pool in one bound.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 6; v++) {
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  EXPECT_GT(f.rt.stats().overflows, 0u);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  // The pool drains at cleanup; the next bound works normally.
  uint64_t violations_before = f.rt.stats().violations;
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {7};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  Binding site[] = {{0, 7}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, violations_before);
}

TEST(RuntimeEdge, OverflowReportsViolationKind) {
  // When the per-thread pool is exhausted, dropped clones must surface as
  // kOverflow violations through handlers, one per RuntimeStats::overflows.
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 2;
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
  runtime::CountingHandler handler;
  f.rt.AddHandler(&handler);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 8; v++) {
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  EXPECT_GT(f.rt.stats().overflows, 0u);
  EXPECT_EQ(ctx.pool_high_water(), ctx.pool_capacity());
  // Every overflow was reported as a violation of kind kOverflow.
  size_t overflow_violations = 0;
  for (const runtime::Violation& v : handler.violations()) {
    if (v.kind == ViolationKind::kOverflow) overflow_violations++;
  }
  EXPECT_EQ(overflow_violations, f.rt.stats().overflows);

  // Instances that DID fit keep working: value 0 was admitted before the
  // pool filled, so its assertion site must not raise a violation.
  uint64_t violations_before = f.rt.stats().violations;
  Binding site[] = {{0, 0}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, violations_before);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
}

TEST(RuntimeEdge, GlobalShardOverflowReportsAndRecovers) {
  // Global automata store instances in runtime-owned shard contexts, not the
  // caller's ThreadContext: overflow accounting and recovery must work there
  // too. The shard pool drains at bound exit like the per-thread one.
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 2;
  Fixture f("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
            options);
  runtime::CountingHandler handler;
  f.rt.AddHandler(&handler);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 8; v++) {
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  EXPECT_GT(f.rt.stats().overflows, 0u);
  EXPECT_EQ(ctx.pool_high_water(), 0u);  // the thread-local pool was untouched
  size_t overflow_violations = 0;
  for (const runtime::Violation& v : handler.violations()) {
    if (v.kind == ViolationKind::kOverflow) overflow_violations++;
  }
  EXPECT_EQ(overflow_violations, f.rt.stats().overflows);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  // The shard drains at cleanup; the next bound binds and checks normally.
  uint64_t violations_before = f.rt.stats().violations;
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {42};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  Binding site[] = {{0, 42}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, violations_before);
}

TEST(RuntimeEdge, TwoVariableBindingRequiresBothToMatch) {
  Fixture f("TESLA_WITHIN(syscall, previously(grant(subject, object) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {10, 20};
  f.rt.OnFunctionReturn(ctx, S("grant"), args, 0);

  // Same subject, different object: the instance must not match.
  Binding wrong[] = {{0, 10}, {1, 99}};
  f.rt.OnAssertionSite(ctx, f.id, wrong);
  EXPECT_EQ(f.rt.stats().violations, 1u);

  Binding right[] = {{0, 10}, {1, 20}};
  f.rt.OnAssertionSite(ctx, f.id, right);
  EXPECT_EQ(f.rt.stats().violations, 1u);  // no new violation
}

TEST(RuntimeEdge, RepeatedArgumentVariableMustAgree) {
  // f(x, x): both positions bind the same variable.
  Fixture f("TESLA_WITHIN(syscall, previously(pair(x, x) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t unequal[] = {1, 2};
  f.rt.OnFunctionReturn(ctx, S("pair"), unequal, 0);  // does not match the pattern
  Binding site[] = {{0, 1}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t equal[] = {3, 3};
  f.rt.OnFunctionReturn(ctx, S("pair"), equal, 0);
  Binding site3[] = {{0, 3}};
  f.rt.OnAssertionSite(ctx, f.id, site3);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 1u);  // unchanged
}

TEST(RuntimeEdge, FlagsAndBitmaskMatching) {
  automata::LowerOptions lower;
  lower.flags["F_READ"] = 0x1;
  lower.flags["F_WRITE"] = 0x2;
  Fixture f("TESLA_WITHIN(syscall, previously(open_file(x, flags(F_READ)) == 0))", TestOptions(),
            lower);
  ThreadContext ctx(f.rt);

  // F_READ|F_WRITE satisfies flags(F_READ) (minimal bitfield).
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {5, 0x3};
  f.rt.OnFunctionReturn(ctx, S("open_file"), args, 0);
  Binding site[] = {{0, 5}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);

  // Write-only does not include F_READ: pattern does not match, site fails.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t wronly[] = {5, 0x2};
  f.rt.OnFunctionReturn(ctx, S("open_file"), wronly, 0);
  f.rt.OnAssertionSite(ctx, f.id, site);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(RuntimeEdge, BareCallPatternIgnoresArguments) {
  Fixture f("TESLA_WITHIN(syscall, previously(called(prepare)))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {1, 2, 3};
  f.rt.OnFunctionCall(ctx, S("prepare"), args);
  f.rt.OnAssertionSite(ctx, f.id, {});
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, PatternWithFewerArgsThanEventMatchesPrefix) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {8, 123, 456};  // extra trailing arguments
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  Binding site[] = {{0, 8}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, GlobalContextUnderRealThreads) {
  Fixture f("TESLA_GLOBAL(call(begin_txn), returnfrom(end_txn), previously(lock(x) == 0))");
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::atomic<int> ready{0};

  // Thread 0 opens/closes bounds and performs checks + sites; others hammer
  // unrelated events through the same global store. No violations expected
  // and — crucially under TSan-less CI — no crashes or lost instances.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&f, t] {
      ThreadContext ctx(f.rt);
      for (int round = 0; round < kRounds; round++) {
        if (t == 0) {
          f.rt.OnFunctionCall(ctx, S("begin_txn"), {});
          int64_t args[] = {round % 3};
          f.rt.OnFunctionReturn(ctx, S("lock"), args, 0);
          Binding site[] = {{0, round % 3}};
          f.rt.OnAssertionSite(ctx, f.id, site);
          f.rt.OnFunctionReturn(ctx, S("end_txn"), {}, 0);
        } else {
          int64_t args[] = {t};
          f.rt.OnFunctionCall(ctx, S("unrelated"), args);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  (void)ready;
  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_EQ(f.rt.stats().bound_entries, static_cast<uint64_t>(kRounds));
}

TEST(RuntimeEdge, HandlersSeeLifecycleInOrder) {
  struct Recorder : runtime::EventHandler {
    std::vector<std::string> events;
    void OnInstanceNew(const runtime::ClassInfo&, const runtime::Instance&) override {
      events.push_back("new");
    }
    void OnClone(const runtime::ClassInfo&, const runtime::Instance&,
                 const runtime::Instance&) override {
      events.push_back("clone");
    }
    void OnTransition(const runtime::ClassInfo&, const runtime::Instance&, automata::StateSet,
                      uint16_t, automata::StateSet) override {
      events.push_back("step");
    }
    void OnAccept(const runtime::ClassInfo&, const runtime::Instance&) override {
      events.push_back("accept");
    }
    void OnViolation(const runtime::ClassInfo&, const runtime::Violation&) override {
      events.push_back("violation");
    }
  };
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  Recorder recorder;
  f.rt.AddHandler(&recorder);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {2};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  Binding site[] = {{0, 2}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  // Lazy init: the first real event triggers «new» (+init step), then the
  // clone for (x=2), the site step, and two accepts at cleanup.
  std::vector<std::string> expected = {"new", "step", "step", "clone", "step",
                                       "step", "accept", "step", "accept"};
  EXPECT_EQ(recorder.events, expected);
}

TEST(RuntimeEdge, MultipleRuntimesAreIndependent) {
  Fixture a("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  Fixture b("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx_a(a.rt);
  ThreadContext ctx_b(b.rt);

  a.rt.OnFunctionCall(ctx_a, S("syscall"), {});
  Binding site[] = {{0, 1}};
  a.rt.OnAssertionSite(ctx_a, a.id, site);
  EXPECT_EQ(a.rt.stats().violations, 1u);
  EXPECT_EQ(b.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, UnknownAutomatonIdIsIgnored) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);
  f.rt.OnAssertionSite(ctx, 12345, {});
  EXPECT_EQ(f.rt.stats().violations, 0u);
}

TEST(RuntimeEdge, FieldIncrementAndDecrementPatterns) {
  Fixture f("TESLA_WITHIN(syscall, TSEQUENCE(s.refs++, s.refs--))");
  ThreadContext ctx(f.rt);
  // Balanced ref-count: ++ then -- completes the sequence.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("refs"), 500, 1, 2);  // ++
  f.rt.OnFieldStore(ctx, S("refs"), 500, 2, 1);  // --
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 0u);

  // Unbalanced: ++ without -- leaves the sequence incomplete at cleanup.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFieldStore(ctx, S("refs"), 501, 0, 1);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  EXPECT_EQ(f.rt.stats().violations, 1u);
}

TEST(RuntimeEdge, FunctionScopeCountsArgumentTruncation) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))");
  ThreadContext ctx(f.rt);
  {
    runtime::FunctionScope wide(&f.rt, &ctx, S("wide_fn"),
                                {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  }
  // A truncated scope fires two truncated events: its call and its return.
  EXPECT_EQ(f.rt.stats().arg_truncations, 2u);
  {
    runtime::FunctionScope narrow(&f.rt, &ctx, S("narrow_fn"), {1, 2, 3});
  }
  EXPECT_EQ(f.rt.stats().arg_truncations, 2u);
  {
    runtime::FunctionScope exact(&f.rt, &ctx, S("exact_fn"),
                                 {1, 2, 3, 4, 5, 6, 7, 8});
  }
  EXPECT_EQ(f.rt.stats().arg_truncations, 2u);
}

TEST(RuntimeEdge, ThrowingViolationHandlerReleasesBatchShardLocks) {
  // Regression: OnEvents' global-batch path takes every shard lock and marks
  // the thread as batch owner before dispatching. It used to unlock with
  // straight-line code, so a violation handler throwing out of the batch
  // leaked all shard locks and the stale owner — and the next global
  // dispatch on any other thread deadlocked on the first shard's spinlock.
  struct ThrowingHandler : runtime::EventHandler {
    void OnViolation(const runtime::ClassInfo&, const runtime::Violation&) override {
      throw std::runtime_error("violation handler bailed");
    }
  };
  Fixture f("TESLA_GLOBAL(call(begin_txn), returnfrom(end_txn), previously(lock(x) == 0))");
  ThrowingHandler handler;
  f.rt.AddHandler(&handler);
  ThreadContext ctx(f.rt);

  // A batch whose site violates mid-way: the handler's exception unwinds
  // out of OnEvents while the batch still holds every shard lock.
  std::vector<runtime::Event> bad;
  bad.push_back(runtime::Event::Call(S("begin_txn"), {}));
  Binding site[] = {{0, 1}};
  bad.push_back(runtime::Event::Site(f.id, site));
  EXPECT_THROW(f.rt.OnEvents(ctx, bad), std::runtime_error);
  EXPECT_EQ(f.rt.stats().violations, 1u);

  // A second batch on another thread must make progress (pre-fix: deadlock
  // here, with the test hanging on the shard spinlock).
  std::atomic<bool> completed{false};
  std::thread other([&f, &completed] {
    ThreadContext ctx2(f.rt);
    std::vector<runtime::Event> good;
    good.push_back(runtime::Event::Call(S("begin_txn"), {}));
    int64_t args[] = {2};
    good.push_back(runtime::Event::Return(S("lock"), args, 0));
    Binding site2[] = {{0, 2}};
    good.push_back(runtime::Event::Site(f.id, site2));
    good.push_back(runtime::Event::Return(S("end_txn"), {}, 0));
    f.rt.OnEvents(ctx2, good);
    completed.store(true);
  });
  other.join();
  EXPECT_TRUE(completed.load());
  EXPECT_EQ(f.rt.stats().violations, 1u);  // the good batch was clean
}

TEST(RuntimeEdge, UnmatchedReturnClampsStackDepth) {
  // Regression: a kFunctionReturn with no tracked call drove stack_depth_
  // negative, and every later incallstack() check on that slot was poisoned
  // (depth 1 read as 0). A replayed flight-recorder capture whose ring
  // wrapped mid-call starts with exactly this shape — the batch below is
  // that capture's event stream.
  Fixture f("TESLA_WITHIN(syscall, incallstack(inner) || previously(check(x) == 0))");
  ThreadContext ctx(f.rt);

  std::vector<runtime::Event> stream;
  // The wrap point: `inner`'s return survives, its call did not.
  stream.push_back(runtime::Event::Return(S("inner"), {}, 0));
  // A normal bound afterwards, with the site reached under incallstack(inner).
  stream.push_back(runtime::Event::Call(S("syscall"), {}));
  stream.push_back(runtime::Event::Call(S("inner"), {}));
  Binding site[] = {{0, 1}};
  stream.push_back(runtime::Event::Site(f.id, site));
  stream.push_back(runtime::Event::Return(S("inner"), {}, 0));
  stream.push_back(runtime::Event::Return(S("syscall"), {}, 0));
  f.rt.OnEvents(ctx, stream);

  // Pre-fix: depth went -1, the later call only restored it to 0, the site
  // saw incallstack(inner) == false and reported a bogus violation.
  EXPECT_EQ(f.rt.stats().violations, 0u);
  EXPECT_EQ(f.rt.stats().unmatched_returns, 1u);

  // Balanced streams never touch the counter.
  f.rt.OnFunctionCall(ctx, S("inner"), {});
  f.rt.OnFunctionReturn(ctx, S("inner"), {}, 0);
  EXPECT_EQ(f.rt.stats().unmatched_returns, 1u);
}

void FailStopScenario() {
  RuntimeOptions options;
  options.fail_stop = true;  // paper default
  Runtime rt(options);
  auto automaton =
      CompileAssertion("TESLA_WITHIN(syscall, previously(check(x) == 0))", {}, "edge");
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  (void)rt.Register(manifest);
  ThreadContext ctx(rt);
  rt.OnFunctionCall(ctx, S("syscall"), {});
  Binding site[] = {{0, 1}};
  rt.OnAssertionSite(ctx, 0, site);
}

TEST(RuntimeEdgeDeathTest, FailStopAborts) {
  ASSERT_DEATH(FailStopScenario(), "fail-stop");
}

}  // namespace
}  // namespace tesla

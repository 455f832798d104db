// Multithreaded stress test for the sharded global-context store.
//
// N real threads each drive their own global automaton class (disjoint
// function alphabets), so every per-class outcome is deterministic even
// though the threads hammer the runtime — and the shard locks — in parallel.
// The aggregate statistics must therefore be identical to a single-threaded
// replay of the same per-class event streams. Run under -fsanitize=thread in
// CI, this doubles as the data-race check for the dispatch plan and the
// shard locking protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "runtime/runtime.h"

namespace tesla {
namespace {

constexpr int kClasses = 8;
constexpr int kIterations = 2000;

struct ClassSymbols {
  Symbol enter;
  Symbol check;
  Symbol exit;
  uint32_t id;
};

automata::Manifest MakeManifest() {
  automata::Manifest manifest;
  for (int g = 0; g < kClasses; g++) {
    const std::string n = std::to_string(g);
    const std::string source = "TESLA_GLOBAL(call(enter" + n + "), returnfrom(exit" + n +
                               "), previously(check" + n + "(x) == 0))";
    auto automaton = automata::CompileAssertion(source, {}, "conc-" + n);
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    manifest.Add(std::move(automaton.value()));
  }
  return manifest;
}

// Interned up front on the main thread: the global interner is not
// synchronised, and worker threads must only read symbols.
std::vector<ClassSymbols> ResolveSymbols(runtime::Runtime& rt) {
  std::vector<ClassSymbols> symbols;
  for (int g = 0; g < kClasses; g++) {
    const std::string n = std::to_string(g);
    ClassSymbols s;
    s.enter = InternString("enter" + n);
    s.check = InternString("check" + n);
    s.exit = InternString("exit" + n);
    s.id = static_cast<uint32_t>(rt.FindAutomaton("conc-" + n));
    EXPECT_GE(rt.FindAutomaton("conc-" + n), 0);
    symbols.push_back(s);
  }
  return symbols;
}

// One class's full event stream: every 5th bound skips the check, so the
// site deterministically fires a violation; all others accept.
void DriveClass(runtime::Runtime& rt, runtime::ThreadContext& ctx, const ClassSymbols& s) {
  for (int i = 0; i < kIterations; i++) {
    rt.OnFunctionCall(ctx, s.enter, {});
    if (i % 5 != 4) {
      int64_t args[] = {i % 7};
      rt.OnFunctionReturn(ctx, s.check, args, 0);
    }
    runtime::Binding site[] = {{0, i % 7}};
    rt.OnAssertionSite(ctx, s.id, site);
    rt.OnFunctionReturn(ctx, s.exit, {}, 0);
  }
}

struct Totals {
  uint64_t accepts;
  uint64_t violations;
  uint64_t instances_created;
  uint64_t bound_entries;
  uint64_t bound_exits;
};

Totals RunWorkload(size_t shards, bool threaded) {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.global_shards = shards;
  runtime::Runtime rt(options);
  automata::Manifest manifest = MakeManifest();
  EXPECT_TRUE(rt.Register(manifest).ok());
  std::vector<ClassSymbols> symbols = ResolveSymbols(rt);

  if (threaded) {
    std::vector<std::thread> workers;
    for (int g = 0; g < kClasses; g++) {
      workers.emplace_back([&rt, &symbols, g] {
        runtime::ThreadContext ctx(rt);
        DriveClass(rt, ctx, symbols[g]);
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  } else {
    runtime::ThreadContext ctx(rt);
    for (int g = 0; g < kClasses; g++) {
      DriveClass(rt, ctx, symbols[g]);
    }
  }

  const runtime::RuntimeStats& stats = rt.stats();
  return Totals{stats.accepts, stats.violations, stats.instances_created,
                stats.bound_entries, stats.bound_exits};
}

class ConcurrencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ConcurrencyTest, ThreadedCountsMatchSingleThreadedReplay) {
  const size_t shards = GetParam();
  Totals threaded = RunWorkload(shards, /*threaded=*/true);
  Totals replay = RunWorkload(shards, /*threaded=*/false);

  // Sanity: the workload produced real activity on both sides.
  EXPECT_GT(threaded.accepts, 0u);
  EXPECT_GT(threaded.violations, 0u);

  EXPECT_EQ(threaded.accepts, replay.accepts);
  EXPECT_EQ(threaded.violations, replay.violations);
  EXPECT_EQ(threaded.instances_created, replay.instances_created);
  EXPECT_EQ(threaded.bound_entries, replay.bound_entries);
  EXPECT_EQ(threaded.bound_exits, replay.bound_exits);
}

INSTANTIATE_TEST_SUITE_P(Shards, ConcurrencyTest,
                         ::testing::Values(size_t{1}, size_t{4}, size_t{8}));

// --- per-context stats cells ---
//
// RuntimeStats lives in one single-writer block per ThreadContext (shard
// contexts included) plus a runtime-level block, summed by stats(). These
// tests drive per-thread and global classes from several threads, inline
// (OnEvent) and batched (OnEvents), and check the sum against single-
// threaded reference runs of each thread's stream, field by field.

constexpr int kStreams = 4;
constexpr int kRounds = 300;

void ExpectStatsEqual(const runtime::RuntimeStats& got, const runtime::RuntimeStats& want) {
#define TESLA_EXPECT_FIELD(name, desc, replay) EXPECT_EQ(got.name, want.name) << #name;
  TESLA_RUNTIME_STATS(TESLA_EXPECT_FIELD)
#undef TESLA_EXPECT_FIELD
}

runtime::RuntimeStats SumStats(const runtime::RuntimeStats& a, const runtime::RuntimeStats& b) {
  runtime::RuntimeStats sum;
#define TESLA_SUM_FIELD(name, desc, replay) sum.name = a.name + b.name;
  TESLA_RUNTIME_STATS(TESLA_SUM_FIELD)
#undef TESLA_SUM_FIELD
  return sum;
}

// The global classes of MakeManifest() plus one per-thread class.
automata::Manifest MakeMixedManifest() {
  automata::Manifest manifest = MakeManifest();
  auto local = automata::CompileAssertion(
      "TESLA_WITHIN(syscall, previously(pcheck(x) == 0))", {}, "conc-local");
  EXPECT_TRUE(local.ok()) << local.error().ToString();
  manifest.Add(std::move(local.value()));
  return manifest;
}

std::unique_ptr<runtime::Runtime> MakeMixedRuntime(size_t shards) {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.global_shards = shards;
  auto rt = std::make_unique<runtime::Runtime>(options);
  EXPECT_TRUE(rt->Register(MakeMixedManifest()).ok());
  return rt;
}

// Stream `t`: each round is one bound of global class t and one bound of the
// per-thread class, plus an unmatched event with a truncated argument list
// and, every 4th round, both sites again after their bounds closed.
// Every 5th global and every 3rd per-thread bound skips its check, so both
// kinds report violations.
std::vector<std::vector<runtime::Event>> MakeStream(runtime::Runtime& rt, int t, int rounds) {
  const std::string n = std::to_string(t);
  const Symbol enter = InternString("enter" + n);
  const Symbol check = InternString("check" + n);
  const Symbol exit = InternString("exit" + n);
  const Symbol syscall = InternString("syscall");
  const Symbol pcheck = InternString("pcheck");
  const Symbol noise = InternString("noise");
  const uint32_t global_id = static_cast<uint32_t>(rt.FindAutomaton("conc-" + n));
  const uint32_t local_id = static_cast<uint32_t>(rt.FindAutomaton("conc-local"));
  const int64_t wide[runtime::kMaxEventArgs + 1] = {};
  std::vector<std::vector<runtime::Event>> stream;
  for (int i = 0; i < rounds; i++) {
    const int64_t x[] = {i % 7};
    const runtime::Binding site[] = {{0, i % 7}};
    std::vector<runtime::Event>& round = stream.emplace_back();
    round.push_back(runtime::Event::Call(enter, {}));
    if (i % 5 != 4) {
      round.push_back(runtime::Event::Return(check, x, 0));
    }
    round.push_back(runtime::Event::Site(global_id, site));
    round.push_back(runtime::Event::Return(exit, {}, 0));
    round.push_back(runtime::Event::Call(syscall, {}));
    if (i % 3 != 2) {
      round.push_back(runtime::Event::Return(pcheck, x, 0));
    }
    round.push_back(runtime::Event::Site(local_id, site));
    round.push_back(runtime::Event::Return(syscall, {}, 0));
    round.push_back(runtime::Event::Call(noise, wide));
    if (i % 4 == 0) {
      // Sites outside their bounds: ignored, not violations.
      round.push_back(runtime::Event::Site(global_id, site));
      round.push_back(runtime::Event::Site(local_id, site));
    }
  }
  return stream;
}

// Even rounds go through OnEvent one event at a time, odd rounds through
// one OnEvents batch.
void DriveStream(runtime::Runtime& rt, runtime::ThreadContext& ctx,
                 const std::vector<std::vector<runtime::Event>>& stream) {
  for (size_t i = 0; i < stream.size(); i++) {
    if (i % 2 == 0) {
      for (const runtime::Event& event : stream[i]) {
        rt.OnEvent(ctx, event);
      }
    } else {
      rt.OnEvents(ctx, stream[i]);
    }
  }
}

// The field-by-field sum of single-threaded runs of streams 0..kStreams-1,
// stream t cut to rounds(t), each in a fresh runtime.
template <typename Rounds>
runtime::RuntimeStats ReferenceSum(size_t shards, Rounds rounds) {
  runtime::RuntimeStats sum;
  for (int t = 0; t < kStreams; t++) {
    auto rt = MakeMixedRuntime(shards);
    runtime::ThreadContext ctx(*rt);
    DriveStream(*rt, ctx, MakeStream(*rt, t, rounds(t)));
    sum = SumStats(sum, rt->stats());
  }
  return sum;
}

class StatsCellsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StatsCellsTest, ThreadedDispatchEqualsSumOfReferenceRuns) {
  const size_t shards = GetParam();
  auto rt = MakeMixedRuntime(shards);
  std::vector<std::vector<std::vector<runtime::Event>>> streams;
  std::vector<std::unique_ptr<runtime::ThreadContext>> contexts;
  for (int t = 0; t < kStreams; t++) {
    streams.push_back(MakeStream(*rt, t, kRounds));
    contexts.push_back(std::make_unique<runtime::ThreadContext>(*rt));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kStreams; t++) {
    workers.emplace_back([&, t] { DriveStream(*rt, *contexts[t], streams[t]); });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const runtime::RuntimeStats want = ReferenceSum(shards, [](int) { return kRounds; });
  EXPECT_GT(want.violations, 0u);
  EXPECT_GT(want.arg_truncations, 0u);
  EXPECT_GT(want.ignored_events, 0u);
  ExpectStatsEqual(rt->stats(), want);
}

// Each worker owns its context and finishes after a different number of
// rounds, so contexts are destroyed while the others still dispatch; a
// second Register() then replaces the shard contexts. Neither loses a count.
TEST_P(StatsCellsTest, CountsSurviveContextTeardownAndReRegister) {
  const size_t shards = GetParam();
  auto rounds = [](int t) { return kRounds * (t + 1) / kStreams; };
  auto rt = MakeMixedRuntime(shards);
  std::vector<std::vector<std::vector<runtime::Event>>> streams;
  for (int t = 0; t < kStreams; t++) {
    streams.push_back(MakeStream(*rt, t, rounds(t)));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kStreams; t++) {
    workers.emplace_back([&, t] {
      runtime::ThreadContext ctx(*rt);
      DriveStream(*rt, ctx, streams[t]);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const runtime::RuntimeStats want = ReferenceSum(shards, rounds);
  ExpectStatsEqual(rt->stats(), want);

  const size_t before = rt->context_count();
  auto extra = automata::CompileAssertion(
      "TESLA_GLOBAL(call(enter_extra), returnfrom(exit_extra), previously(check_extra(x) == 0))",
      {}, "conc-extra");
  ASSERT_TRUE(extra.ok()) << extra.error().ToString();
  automata::Manifest manifest;
  manifest.Add(std::move(extra.value()));
  ASSERT_TRUE(rt->Register(manifest).ok());
  EXPECT_GE(rt->context_count(), before);  // the shard contexts were rebuilt
  ExpectStatsEqual(rt->stats(), want);
}

TEST_P(StatsCellsTest, ResetZeroesEveryBlock) {
  const size_t shards = GetParam();
  auto rt = MakeMixedRuntime(shards);
  runtime::ThreadContext live(*rt);
  {
    runtime::ThreadContext retired(*rt);
    DriveStream(*rt, retired, MakeStream(*rt, 1, kRounds));
  }
  DriveStream(*rt, live, MakeStream(*rt, 0, kRounds));
  ASSERT_GT(rt->stats().transitions, 0u);

  rt->ResetStats();
  ExpectStatsEqual(rt->stats(), runtime::RuntimeStats{});

  // After the reset, the live context's and the shards' cells count from
  // zero: one more stream reads exactly like a fresh runtime's.
  DriveStream(*rt, live, MakeStream(*rt, 2, kRounds));
  auto reference = MakeMixedRuntime(shards);
  runtime::ThreadContext ctx(*reference);
  DriveStream(*reference, ctx, MakeStream(*reference, 2, kRounds));
  ExpectStatsEqual(rt->stats(), reference->stats());
}

// A reader polls stats() while the workers dispatch: the sum is read cell by
// cell with relaxed loads, so a snapshot may be a moment stale but never
// goes backwards.
TEST_P(StatsCellsTest, ConcurrentReaderSeesMonotoneCounts) {
  const size_t shards = GetParam();
  auto rt = MakeMixedRuntime(shards);
  std::vector<std::vector<std::vector<runtime::Event>>> streams;
  for (int t = 0; t < kStreams; t++) {
    streams.push_back(MakeStream(*rt, t, kRounds));
  }
  std::atomic<bool> done{false};
  uint64_t reads = 0;
  bool monotone = true;
  std::thread reader([&] {
    runtime::RuntimeStats last;
    while (!done.load(std::memory_order_acquire)) {
      const runtime::RuntimeStats now = rt->stats();
      monotone = monotone && now.events >= last.events && now.transitions >= last.transitions &&
                 now.violations >= last.violations;
      last = now;
      reads++;
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kStreams; t++) {
    workers.emplace_back([&, t] {
      runtime::ThreadContext ctx(*rt);
      DriveStream(*rt, ctx, streams[t]);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(rt->stats().events, ReferenceSum(shards, [](int) { return kRounds; }).events);
}

INSTANTIATE_TEST_SUITE_P(Shards, StatsCellsTest, ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace tesla

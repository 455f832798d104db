// tesla::profile — workload profiling and profile-guided plan compilation.
//
// Covers: profile determinism across sync / async-queue / multi-consumer
// dispatch (the same differential discipline as queue_mc_test, extended to
// the profile's deterministic cells, partial-binding attribution and
// sketches); the index key a plan hint picks (differential against the
// naive scan); how scans below the index population gate show in the
// profile; strict hints text parsing (round-trip, directed malformed lines
// and a byte-mutation sweep); sketch estimate accuracy; the capture
// round-trip; and ResetStats rewinding SlotPool high-water marks
// (regression, alongside the shard-pool reset test in metrics_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "metrics/collector.h"
#include "profile/hints.h"
#include "profile/snapshot.h"
#include "queue/queue.h"
#include "runtime/handler.h"
#include "runtime/instance_store.h"
#include "runtime/runtime.h"
#include "support/hash.h"
#include "support/log.h"
#include "trace/format.h"
#include "trace/replay.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;

Symbol S(const char* name) { return InternString(name); }

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name;
}

// Deterministic-profile equality: every cell the schema marks deterministic,
// the partial-binding attribution and the sketches must agree; latency cells
// are wall-clock and excluded by the same schema bit the replay comparator
// uses.
void ExpectSameDeterministicProfile(const profile::Snapshot& a, const profile::Snapshot& b,
                                    const char* where) {
  ASSERT_EQ(a.classes.size(), b.classes.size()) << where;
  for (size_t c = 0; c < a.classes.size(); c++) {
    const profile::ClassProfile& pa = a.classes[c];
    const profile::ClassProfile& pb = b.classes[c];
    ASSERT_EQ(pa.name, pb.name) << where;
    EXPECT_EQ(pa.key_vars, pb.key_vars) << where << " " << pa.name;
    for (size_t i = 0; i < profile::kCellCount; i++) {
      if (!profile::kCellDeterministic[i]) {
        continue;
      }
      EXPECT_EQ(pa.cells[i], pb.cells[i])
          << where << " " << pa.name << "." << profile::kCellNames[i];
    }
    for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
      EXPECT_EQ(pa.var_partial[p], pb.var_partial[p])
          << where << " " << pa.name << " partial[" << p << "]";
      for (size_t w = 0; w < profile::kSketchWords; w++) {
        EXPECT_EQ(pa.sketch[p][w], pb.sketch[p][w])
            << where << " " << pa.name << " sketch[" << p << "][" << w << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism differential: the same per-class event streams, dispatched
// inline, through one drain thread, and through four shard-owning consumers,
// must produce identical profile snapshots.

constexpr int kClasses = 4;
constexpr int kIterations = 300;

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
    const std::string source = "TESLA_GLOBAL(call(pfenter" + n + "), returnfrom(pfexit" + n +
                               "), previously(pfcheck" + n + "(x) == 0))";
    auto automaton = CompileAssertion(source, {}, "profile-" + n);
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    manifest.Add(std::move(automaton.value()));
  }
  return manifest;
}

profile::Snapshot RunWorkload(size_t consumers) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.global_shards = 8;
  options.profile = true;
  Runtime rt(options);
  automata::Manifest manifest = MakeManifest();
  EXPECT_TRUE(rt.Register(manifest).ok());

  std::vector<ClassSymbols> symbols;
  for (int g = 0; g < kClasses; g++) {
    const std::string n = std::to_string(g);
    symbols.push_back({InternString("pfenter" + n), InternString("pfcheck" + n),
                       InternString("pfexit" + n),
                       static_cast<uint32_t>(rt.FindAutomaton("profile-" + n))});
  }
  std::vector<std::unique_ptr<ThreadContext>> contexts;
  for (int g = 0; g < kClasses; g++) {
    contexts.push_back(std::make_unique<ThreadContext>(rt));
  }
  std::unique_ptr<queue::EventQueue> q;
  if (consumers > 0) {
    queue::QueueOptions queue_options;
    queue_options.consumers = consumers;
    q = std::make_unique<queue::EventQueue>(rt, queue_options);
    q->Start();
  }

  std::vector<std::thread> workers;
  for (int g = 0; g < kClasses; g++) {
    workers.emplace_back([&rt, &symbols, &contexts, g] {
      const ClassSymbols& s = symbols[g];
      ThreadContext& ctx = *contexts[g];
      for (int i = 0; i < kIterations; i++) {
        rt.OnFunctionCall(ctx, s.enter, {});
        if (i % 5 != 4) {
          int64_t args[] = {i % 7};
          rt.OnFunctionReturn(ctx, s.check, args, 0);
        }
        Binding site[] = {{0, i % 7}};
        rt.OnAssertionSite(ctx, s.id, site);
        rt.OnFunctionReturn(ctx, s.exit, {}, 0);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (q != nullptr) {
    q->Stop();
  }
  return rt.CollectProfile();
}

TEST(ProfileDifferential, AsyncAndMultiConsumerMatchSync) {
  const profile::Snapshot sync = RunWorkload(0);
  const profile::Snapshot async_one = RunWorkload(1);
  const profile::Snapshot mc = RunWorkload(4);

  // Sanity: the workload really dispatched and really profiled.
  ASSERT_EQ(sync.classes.size(), static_cast<size_t>(kClasses));
  uint64_t dispatches = 0;
  for (const profile::ClassProfile& cls : sync.classes) {
    dispatches += cls.cell(profile::Cell::dispatches);
    EXPECT_GT(cls.cell(profile::Cell::fanout_peak), 0u) << cls.name;
  }
  EXPECT_GT(dispatches, 0u);

  ExpectSameDeterministicProfile(sync, async_one, "async-queue");
  ExpectSameDeterministicProfile(sync, mc, "multi-consumer");
}

// ---------------------------------------------------------------------------
// The secondary prefix index: a plan hint naming a key position must change
// *where* partially-bound dispatch looks, never *what* it computes.

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
  runtime::CountingHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  uint32_t id = 0;
};

TEST(ProfileHints, PrefixIndexedDispatchAgreesWithNaiveScan) {
  SetLogLevel(LogLevel::kSilent);
  const std::string source = "TESLA_WITHIN(syscall, previously(pair(x, y) == 0))";

  RuntimeOptions hinted_options;
  hinted_options.fail_stop = false;
  hinted_options.profile = true;
  {
    profile::ClassHint hint;
    hint.name = "diff";
    hint.prefix_key_pos = 0;  // key the instance index on x
    hinted_options.plan_hints.classes.push_back(hint);
  }
  RuntimeOptions naive_options;
  naive_options.fail_stop = false;
  naive_options.instance_index = false;
  Side hinted(source, hinted_options);
  Side naive(source, naive_options);

  // Clone events outweigh bound entry and exit 8:1, so most bounds grow
  // past the index population gate and the x-only sites there probe.
  uint64_t rng = 12345;
  for (int round = 0; round < 800; round++) {
    rng = rng * 6364136223846793005ull + 1;
    const int roll = static_cast<int>((rng >> 33) % 16);
    const int action = roll == 0 ? 0 : roll == 15 ? 4 : roll < 9 ? 1 : roll < 12 ? 2 : 3;
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding partial[] = {{0, x}};

    for (Side* s : {&hinted, &naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("pair"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, full);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, partial);
          break;
        case 4:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    const runtime::RuntimeStats& a = hinted.rt.stats();
    const runtime::RuntimeStats& b = naive.rt.stats();
    ASSERT_EQ(a.instances_created, b.instances_created) << "round " << round;
    ASSERT_EQ(a.instances_cloned, b.instances_cloned) << "round " << round;
    ASSERT_EQ(a.transitions, b.transitions) << "round " << round;
    ASSERT_EQ(a.accepts, b.accepts) << "round " << round;
    ASSERT_EQ(a.violations, b.violations) << "round " << round;
  }
  const std::vector<runtime::Violation>& va = hinted.handler.violations();
  const std::vector<runtime::Violation>& vb = naive.handler.violations();
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); i++) {
    EXPECT_EQ(va[i].kind, vb[i].kind) << "violation " << i;
  }

  // The hint keyed the index on x: every dispatch binds x, so past the gate
  // each one probed (none is partially bound), and below it each scanned.
  const profile::Snapshot snapshot = hinted.rt.CollectProfile();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  EXPECT_GT(snapshot.classes[0].cell(profile::Cell::index_probes), 0u);
  EXPECT_GT(snapshot.classes[0].cell(profile::Cell::scan_fallbacks), 0u);
  EXPECT_EQ(snapshot.classes[0].cell(profile::Cell::partial_bound), 0u);
}

TEST(ProfileHints, GatedScansAreFallbacksLessPartialBound) {
  // Below kIndexMinPopulation every dispatch of an indexed class scans and
  // counts as a scan fallback only; at or above it, a dispatch missing a key
  // variable is a partial-bound fallback. The report's "under the
  // population gate" figure is the difference.
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", options);
  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  Binding partial[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, partial);  // gated: population 1
  for (int64_t y = 0; y < static_cast<int64_t>(runtime::kIndexMinPopulation); y++) {
    int64_t args[] = {1, y};
    s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);  // all but the last gated
  }
  s.rt.OnAssertionSite(*s.ctx, s.id, partial);  // partial-bound: past the gate
  Binding full[] = {{0, 1}, {1, 2}};
  s.rt.OnAssertionSite(*s.ctx, s.id, full);  // probe

  const profile::Snapshot snapshot = s.rt.CollectProfile();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  const profile::ClassProfile& cls = snapshot.classes[0];
  const uint64_t gated = runtime::kIndexMinPopulation;  // 1 site + 7 clone events
  EXPECT_EQ(cls.cell(profile::Cell::partial_bound), 1u);
  EXPECT_EQ(cls.cell(profile::Cell::scan_fallbacks), gated + 1);
  EXPECT_EQ(cls.cell(profile::Cell::index_probes), 2u);  // 1 clone event + 1 site
  EXPECT_NE(profile::RenderReport(snapshot).find(
                "1 partial-bound, " + std::to_string(gated) + " under the population gate"),
            std::string::npos)
      << profile::RenderReport(snapshot);
}

// ---------------------------------------------------------------------------
// Satellite: ResetStats() rewinds SlotPool high-water marks.

TEST(ProfileReset, ResetStatsRewindsPoolHighWater) {
  // A global automaton stores instances in runtime-owned shard contexts.
  // Clone a burst of instances, retire them (returnfrom deactivates the
  // class and frees its instances), and verify the recorded peak survives —
  // then that ResetStats() rewinds it to the *live* population rather than
  // leaving the stale peak behind to pollute the next profile window.
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  Runtime rt(options);
  auto automaton = CompileAssertion(
      "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))", {}, "m");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);

  rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 8; v++) {
    int64_t args[] = {v};
    rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);  // deactivates; instances freed

  const uint64_t peak = rt.shard_pool_high_water();
  EXPECT_GE(peak, 8u);  // wildcard + clones were simultaneously live
  EXPECT_EQ(rt.CollectProfile().pool_high_water, peak);

  rt.ResetStats();

  // The peak rewound to the (now empty) live population.
  EXPECT_LT(rt.shard_pool_high_water(), peak);
  EXPECT_EQ(rt.CollectProfile().pool_high_water, rt.shard_pool_high_water());

  // And the mark still tracks new activity after the reset.
  rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {1};
  rt.OnFunctionReturn(ctx, S("check"), args, 0);
  EXPECT_GT(rt.shard_pool_high_water(), 0u);
}

// ---------------------------------------------------------------------------
// Hints text round-trip and hint-derived plan behaviour.

TEST(ProfileHints, TextRoundTrip) {
  profile::PlanHints hints;
  hints.classes.push_back({"mac.fs open", 128, 1});  // space in the name
  hints.classes.push_back({"proc.setuid", 16, -1});
  const std::string text = profile::HintsToText(hints);
  EXPECT_NE(text.find("# tesla plan hints v2"), std::string::npos);
  auto parsed = profile::ParseHints(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed.value().classes.size(), 2u);
  EXPECT_EQ(parsed.value().classes[0].name, "mac.fs open");
  EXPECT_EQ(parsed.value().classes[0].capacity, 128u);
  EXPECT_EQ(parsed.value().classes[0].prefix_key_pos, 1);
  EXPECT_EQ(parsed.value().classes[1].name, "proc.setuid");
  EXPECT_EQ(parsed.value().classes[1].prefix_key_pos, -1);
  EXPECT_EQ(profile::HintsToText(parsed.value()), text);

  EXPECT_FALSE(profile::ParseHints("class nonsense").ok());
  EXPECT_TRUE(profile::ParseHints("# comment only\n\n").ok());
}

TEST(ProfileHints, MalformedLinesAreErrorsWithTheirLine) {
  const std::string good = "class 1:a capacity=16 prefix_key_pos=-1\n";
  ASSERT_TRUE(profile::ParseHints(good).ok());
  const char* bad[] = {
      // A negative or wrapping name length.
      "class -1:a capacity=16 prefix_key_pos=-1",
      "class 18446744073709551615:a capacity=16 prefix_key_pos=-1",
      "class 99999999:a capacity=16 prefix_key_pos=-1",
      "class +1:a capacity=16 prefix_key_pos=-1",
      "class :a capacity=16 prefix_key_pos=-1",
      "class 5:a capacity=16 prefix_key_pos=-1",
      // prefix_key_pos below -1 or past the tracked key variables.
      "class 1:a capacity=16 prefix_key_pos=-2",
      "class 1:a capacity=16 prefix_key_pos=4",
      "class 1:a capacity=16 prefix_key_pos=--1",
      "class 1:a capacity=16 prefix_key_pos=",
      // capacity negative, signed, spaced or too large.
      "class 1:a capacity=-1 prefix_key_pos=-1",
      "class 1:a capacity=+16 prefix_key_pos=-1",
      "class 1:a capacity= 16 prefix_key_pos=-1",
      "class 1:a capacity=1048577 prefix_key_pos=-1",
      "class 1:a capacity=99999999999999999999 prefix_key_pos=-1",
      // Fields out of order, missing, or followed by anything.
      "class 1:a prefix_key_pos=-1 capacity=16",
      "class 1:a capacity=16",
      "class 1:a capacity=16 prefix_key_pos=-1 ",
      "class 1:a capacity=16 prefix_key_pos=-1 extra=1",
      "class 1:a capacity=16 prefix_key_pos=-1\r",
  };
  for (const char* line : bad) {
    auto parsed = profile::ParseHints(good + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().line, 2) << line;
    EXPECT_GE(parsed.error().column, 1) << line;
  }

  // A v1 line names the retired population-gate field: a clear error, not a
  // misparse of its remaining fields.
  auto v1 = profile::ParseHints(
      "# tesla plan hints v1\nclass 1:a capacity=16 min_population=0 prefix_key_pos=-1\n");
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.error().line, 2);
  EXPECT_NE(v1.error().message.find("min_population"), std::string::npos);
}

TEST(ProfileHints, MutatedHintsTextNeverMisbehaves) {
  // Byte mutations of a multi-class hints file: every mutant either parses
  // into in-range hints that re-emit and re-parse to the same hints, or is
  // an Error naming a line of the mutant. Clean under ASan/UBSan.
  profile::PlanHints hints;
  hints.classes.push_back({"mac.fs open", 128, 1});
  hints.classes.push_back({"proc.setuid", 16, -1});
  hints.classes.push_back({"x", 1048576, 3});
  const std::string seed = profile::HintsToText(hints);
  const std::string splices[] = {"-", "+", ":", " ", "=", "\n", "#", "0", "9", "-1",
                                 "18446744073709551616", "4294967295", "class "};
  size_t accepted = 0;
  for (uint64_t round = 0; round < 20000; round++) {
    uint64_t rng = HashU64(round + 1);
    std::string text = seed;
    const int edits = 1 + static_cast<int>(rng % 3);
    for (int e = 0; e < edits; e++) {
      rng = HashU64(rng);
      const size_t pos = text.empty() ? 0 : static_cast<size_t>(rng >> 8) % text.size();
      switch (rng % 4) {
        case 0:  // overwrite a byte
          if (!text.empty()) text[pos] = static_cast<char>(rng >> 40);
          break;
        case 1:  // splice a digit or separator
          text.insert(pos, splices[(rng >> 40) % std::size(splices)]);
          break;
        case 2:  // erase a run
          text.erase(pos, static_cast<size_t>(rng >> 50) % 8);
          break;
        case 3:  // insert a number
          text.insert(pos, std::to_string(static_cast<int64_t>(rng) >> (rng % 64)));
          break;
      }
    }
    auto parsed = profile::ParseHints(text);
    if (!parsed.ok()) {
      const int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n')) + 1;
      ASSERT_GE(parsed.error().line, 1) << text;
      ASSERT_LE(parsed.error().line, lines) << text;
      continue;
    }
    accepted++;
    for (const profile::ClassHint& hint : parsed.value().classes) {
      ASSERT_LE(hint.capacity, 1u << 20) << text;
      ASSERT_GE(hint.prefix_key_pos, -1) << text;
      ASSERT_LT(hint.prefix_key_pos, static_cast<int32_t>(profile::kMaxKeyVars)) << text;
    }
    auto again = profile::ParseHints(profile::HintsToText(parsed.value()));
    ASSERT_TRUE(again.ok()) << text;
    ASSERT_EQ(profile::HintsToText(again.value()), profile::HintsToText(parsed.value())) << text;
  }
  EXPECT_GT(accepted, 0u);  // some mutants (comment edits, digit swaps) stay valid
}

TEST(ProfileHints, SnapshotDistillsHints) {
  // Scans under the population gate teach nothing about the key: only the
  // capacity hint comes out.
  profile::Snapshot snapshot;
  profile::ClassProfile gated;
  gated.name = "gated";
  gated.key_vars = {0};
  gated.cells[static_cast<size_t>(profile::Cell::dispatches)] = 1000;
  gated.cells[static_cast<size_t>(profile::Cell::scan_fallbacks)] = 900;
  gated.cells[static_cast<size_t>(profile::Cell::fanout_peak)] = 24;
  snapshot.classes.push_back(gated);
  // Scans dominated by partially-bound dispatches that bind the second key
  // variable: key the index on it.
  profile::ClassProfile partial;
  partial.name = "partial";
  partial.key_vars = {0, 1};
  partial.cells[static_cast<size_t>(profile::Cell::dispatches)] = 1000;
  partial.cells[static_cast<size_t>(profile::Cell::scan_fallbacks)] = 900;
  partial.cells[static_cast<size_t>(profile::Cell::partial_bound)] = 800;
  partial.cells[static_cast<size_t>(profile::Cell::fanout_peak)] = 100;
  partial.var_partial[0] = 10;
  partial.var_partial[1] = 700;
  snapshot.classes.push_back(partial);

  const profile::PlanHints hints = profile::HintsFromSnapshot(snapshot);
  ASSERT_EQ(hints.classes.size(), 2u);
  EXPECT_GE(hints.classes[0].capacity, 48u);       // ≥ 2× the observed peak
  EXPECT_EQ(hints.classes[0].prefix_key_pos, -1);  // scans weren't partial-bound
  EXPECT_EQ(hints.classes[1].prefix_key_pos, 1);
}

// ---------------------------------------------------------------------------
// Sketch accuracy: linear counting is exact for small n and within its
// documented error for n ≈ m/2.

TEST(ProfileSketch, EstimatesDistinctValues) {
  metrics::Collector collector(metrics::MetricsMode::kOff, /*profiling=*/true);
  collector.EnsureClassCapacity(2);
  metrics::Shard* shard = collector.RegisterShard();
  for (uint64_t v = 0; v < 10; v++) {
    metrics::Shard::SketchAt(shard->ClassCells(0), 0, HashU64(v));
    metrics::Shard::SketchAt(shard->ClassCells(0), 0, HashU64(v));  // duplicates must not inflate
  }
  for (uint64_t v = 0; v < 120; v++) {
    metrics::Shard::SketchAt(shard->ClassCells(1), 0, HashU64(v * 7919 + 3));
  }

  std::vector<uint64_t> merged(2 * metrics::kClassStride);
  collector.Merge(2, merged.data());
  profile::ClassProfile small;
  profile::ClassProfile large;
  small.key_vars = {0};
  large.key_vars = {0};
  std::copy_n(merged.data() + metrics::kSketchOffset, profile::kSketchWords,
              small.sketch[0]);
  std::copy_n(merged.data() + metrics::kClassStride + metrics::kSketchOffset,
              profile::kSketchWords, large.sketch[0]);

  EXPECT_NEAR(small.EstimatedDistinct(0), 10.0, 2.0);
  EXPECT_NEAR(large.EstimatedDistinct(0), 120.0, 30.0);
}

// ---------------------------------------------------------------------------
// The capture round-trip: the profile section survives write → read and
// merges into fleet reports.

TEST(ProfileCapture, SurvivesCaptureRoundTrip) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  options.trace_mode = trace::TraceMode::kFullCapture;
  Runtime rt(options);
  auto automaton =
      CompileAssertion("TESLA_WITHIN(syscall, previously(check(x) == 0))", {}, "m");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);
  rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 5; v++) {
    int64_t args[] = {v};
    rt.OnFunctionReturn(ctx, S("check"), args, 0);
    Binding site[] = {{0, v}};
    rt.OnAssertionSite(ctx, rt.FindAutomaton("m"), site);
  }
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  const std::string path = TempPath("profile_roundtrip.trc");
  ASSERT_TRUE(trace::WriteCapture(path, "file:none", rt).ok());
  auto read = trace::TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  ASSERT_TRUE(read.value().summary.has_profile);

  const profile::Snapshot want = rt.CollectProfile();
  ExpectSameDeterministicProfile(want, read.value().summary.profile, "capture");
  EXPECT_EQ(read.value().summary.profile.pool_high_water, want.pool_high_water);
  EXPECT_EQ(read.value().summary.profile.pool_capacity, want.pool_capacity);

  // Self-merge doubles the sums and keeps the peaks — the fleet rule.
  profile::Snapshot doubled = want;
  profile::MergeInto(&doubled, want);
  ASSERT_EQ(doubled.classes.size(), want.classes.size());
  EXPECT_EQ(doubled.classes[0].cell(profile::Cell::dispatches),
            2 * want.classes[0].cell(profile::Cell::dispatches));
  EXPECT_EQ(doubled.classes[0].cell(profile::Cell::fanout_peak),
            want.classes[0].cell(profile::Cell::fanout_peak));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tesla

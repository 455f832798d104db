// tesla::metrics: per-class counters, transition coverage, histograms,
// exposition formats, the capture round trip, and ResetStats hygiene.
#include "metrics/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "metrics/collector.h"
#include "metrics/metrics.h"
#include "profile/snapshot.h"
#include "runtime/runtime.h"
#include "support/log.h"
#include "trace/format.h"
#include "trace/replay.h"

namespace tesla {
namespace {

using metrics::ClassCounter;
using metrics::MetricsMode;
using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;

Symbol S(const char* name) { return InternString(name); }

RuntimeOptions TestOptions(MetricsMode mode) {
  RuntimeOptions options;
  options.fail_stop = false;
  options.metrics_mode = mode;
  return options;
}

struct Fixture {
  explicit Fixture(const char* source, RuntimeOptions options) : rt(options) {
    auto automaton = automata::CompileAssertion(source, {}, "m");
    EXPECT_TRUE(automaton.ok());
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    EXPECT_TRUE(rt.Register(manifest).ok());
    id = static_cast<uint32_t>(rt.FindAutomaton("m"));
  }
  Runtime rt;
  uint32_t id = 0;
};

uint64_t Counter(const metrics::ClassSnapshot& cls, ClassCounter kind) {
  return cls.counters[static_cast<size_t>(kind)];
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name;
}

TEST(Metrics, BucketMath) {
  EXPECT_EQ(metrics::BucketFor(0), 0u);
  EXPECT_EQ(metrics::BucketFor(1), 0u);
  EXPECT_EQ(metrics::BucketFor(2), 1u);
  EXPECT_EQ(metrics::BucketFor(3), 1u);
  EXPECT_EQ(metrics::BucketFor(1024), 10u);
  EXPECT_EQ(metrics::BucketFor(UINT64_MAX), 63u);
  EXPECT_EQ(metrics::BucketUpperNs(0), 1u);
  EXPECT_EQ(metrics::BucketUpperNs(1), 3u);
  EXPECT_EQ(metrics::BucketUpperNs(10), 2047u);
  EXPECT_EQ(metrics::BucketUpperNs(63), UINT64_MAX);
  // Every sample lands in a bucket whose range contains it.
  for (uint64_t ns : {0ull, 1ull, 7ull, 100ull, 65536ull, 123456789ull}) {
    size_t bucket = metrics::BucketFor(ns);
    EXPECT_LE(ns, metrics::BucketUpperNs(bucket));
    if (bucket > 0) {
      EXPECT_GT(ns, metrics::BucketUpperNs(bucket - 1));
    }
  }
}

TEST(Metrics, OffModeHasNoCollector) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))",
            TestOptions(MetricsMode::kOff));
  EXPECT_EQ(f.rt.collector(), nullptr);
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  // CollectMetrics still reports global stats; classes stay empty.
  metrics::Snapshot snapshot = f.rt.CollectMetrics();
  EXPECT_EQ(snapshot.mode, MetricsMode::kOff);
  EXPECT_GT(snapshot.stats.events, 0u);
  EXPECT_TRUE(snapshot.classes.empty());
}

TEST(Metrics, CountersTrackInstanceLifecycle) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))",
            TestOptions(MetricsMode::kCounters));
  ASSERT_NE(f.rt.collector(), nullptr);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 3; v++) {
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  Binding site[] = {{0, 1}};
  f.rt.OnAssertionSite(ctx, f.id, site);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  metrics::Snapshot snapshot = f.rt.CollectMetrics();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  const metrics::ClassSnapshot& cls = snapshot.classes[0];
  EXPECT_EQ(cls.name, "m");
  EXPECT_GE(Counter(cls, ClassCounter::instances_created), 1u);
  EXPECT_GE(Counter(cls, ClassCounter::instances_cloned), 3u);
  EXPECT_GT(Counter(cls, ClassCounter::transitions), 0u);
  EXPECT_GE(Counter(cls, ClassCounter::accepts), 1u);
  EXPECT_EQ(Counter(cls, ClassCounter::violations), 0u);
  // Per-class transitions also feed the global stat; the per-class view can
  // never exceed what the runtime counted overall.
  EXPECT_LE(Counter(cls, ClassCounter::transitions), snapshot.stats.transitions);
}

TEST(Metrics, DeadOrAlternativeIsListedUncovered) {
  // Only the a() arm of the disjunction is ever driven; every transition
  // mentioning b() must be reported never-fired — the paper's "logical
  // coverage" signal that an alternative is dead in practice.
  Fixture f("TESLA_WITHIN(syscall, previously(a(x) == 0 || b(x) == 0))",
            TestOptions(MetricsMode::kCounters));
  ThreadContext ctx(f.rt);
  for (int64_t v = 0; v < 4; v++) {
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("a"), args, 0);
    Binding site[] = {{0, v}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  }
  EXPECT_EQ(f.rt.stats().violations, 0u);

  metrics::Snapshot snapshot = f.rt.CollectMetrics();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  const metrics::ClassSnapshot& cls = snapshot.classes[0];
  EXPECT_GT(cls.CoveredTransitions(), 0u);
  EXPECT_LT(cls.CoveredTransitions(), cls.transitions.size());

  bool saw_fired_a = false;
  bool saw_dead_b = false;
  for (const metrics::TransitionCoverage& t : cls.transitions) {
    if (t.description.find("a(") != std::string::npos && t.fired) {
      saw_fired_a = true;
    }
    if (t.description.find("b(") != std::string::npos) {
      EXPECT_FALSE(t.fired) << "dead alternative fired: " << t.description;
      saw_dead_b = true;
    }
  }
  EXPECT_TRUE(saw_fired_a);
  EXPECT_TRUE(saw_dead_b);

  // The dead-clause report names the class and at least one b() transition.
  const std::string uncovered = metrics::RenderUncovered(snapshot);
  EXPECT_NE(uncovered.find("m"), std::string::npos);
  EXPECT_NE(uncovered.find("b("), std::string::npos);
}

TEST(Metrics, FullyExercisedAutomatonReportsFullCoverage) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))",
            TestOptions(MetricsMode::kCounters));
  ThreadContext ctx(f.rt);

  // Drive every statically-valid path: the bypass bound (no check), the
  // checked bound with a site visit, repeated checks (self-loops), and a
  // checked bound that exits without a site.
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  for (int round = 0; round < 2; round++) {
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    for (int64_t v = 0; v < 3; v++) {
      int64_t args[] = {v};
      f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
      f.rt.OnFunctionReturn(ctx, S("check"), args, 0);  // repeat: self-loop
    }
    Binding site[] = {{0, 1}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnAssertionSite(ctx, f.id, site);  // repeat: post-site self-loop
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  }

  metrics::Snapshot snapshot = f.rt.CollectMetrics();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  const metrics::ClassSnapshot& cls = snapshot.classes[0];
  for (const metrics::TransitionCoverage& t : cls.transitions) {
    EXPECT_TRUE(t.fired) << "never fired: " << t.description;
  }
  EXPECT_EQ(cls.CoveredTransitions(), cls.transitions.size());
  EXPECT_DOUBLE_EQ(cls.CoverageRatio(), 1.0);
  // Nothing to report: the dead-clause listing is empty.
  EXPECT_TRUE(metrics::RenderUncovered(snapshot).empty());
}

TEST(Metrics, HistogramsRecordDispatchLatency) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))",
            TestOptions(MetricsMode::kFull));
  ThreadContext ctx(f.rt);
  for (int64_t v = 0; v < 32; v++) {
    f.rt.OnFunctionCall(ctx, S("syscall"), {});
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
    Binding site[] = {{0, v}};
    f.rt.OnAssertionSite(ctx, f.id, site);
    f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  }

  metrics::Snapshot snapshot = f.rt.CollectMetrics();
  // EventKind order: call, return, field_store, assertion_site.
  const metrics::HistogramData& calls = snapshot.histograms[0];
  const metrics::HistogramData& returns = snapshot.histograms[1];
  const metrics::HistogramData& sites = snapshot.histograms[3];
  EXPECT_EQ(calls.count, 32u);
  EXPECT_EQ(returns.count, 64u);  // one check + one syscall return per round
  EXPECT_EQ(sites.count, 32u);
  uint64_t total = 0;
  for (size_t kind = 0; kind < metrics::kEventKinds; kind++) {
    total += snapshot.histograms[kind].count;
  }
  EXPECT_EQ(total, f.rt.stats().events);
  // Quantiles are ordered and bounded by the maximum.
  EXPECT_LE(sites.QuantileNs(0.50), sites.QuantileNs(0.99));
  EXPECT_LE(sites.QuantileNs(0.99), sites.MaxNs());
}

TEST(Metrics, ResetStatsClearsShardPoolsAndCollector) {
  // A global automaton stores instances in runtime-owned shard contexts.
  // Overflow the shard pool, then verify ResetStats rewinds the shard
  // context's overflow cell and the metrics collector along with the rest
  // of RuntimeStats — a reset that left them behind would double-report on
  // the next snapshot.
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options = TestOptions(MetricsMode::kCounters);
  options.instances_per_context = 2;
  Fixture f("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
            options);
  ThreadContext ctx(f.rt);

  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 8; v++) {
    int64_t args[] = {v};
    f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  EXPECT_GT(f.rt.stats().overflows, 0u);
  EXPECT_EQ(f.rt.shard_pool_high_water(), options.instances_per_context);
  metrics::Snapshot before = f.rt.CollectMetrics();
  ASSERT_EQ(before.classes.size(), 1u);
  EXPECT_GT(Counter(before.classes[0], ClassCounter::transitions), 0u);
  EXPECT_GT(before.classes[0].CoveredTransitions(), 0u);

  f.rt.ResetStats();

  EXPECT_EQ(f.rt.stats().events, 0u);
  EXPECT_EQ(f.rt.stats().overflows, 0u);
  metrics::Snapshot after = f.rt.CollectMetrics();
  ASSERT_EQ(after.classes.size(), 1u);
  for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
    EXPECT_EQ(after.classes[0].counters[k], 0u) << metrics::kClassCounterNames[k];
  }
  EXPECT_EQ(after.classes[0].CoveredTransitions(), 0u);

  // The runtime keeps working after the reset and the counters start fresh.
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {42};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  metrics::Snapshot fresh = f.rt.CollectMetrics();
  EXPECT_GT(Counter(fresh.classes[0], ClassCounter::transitions), 0u);
  EXPECT_LT(Counter(fresh.classes[0], ClassCounter::transitions),
            Counter(before.classes[0], ClassCounter::transitions));
}

TEST(Metrics, ExpositionFormatsAreWellFormed) {
  Fixture f("TESLA_WITHIN(syscall, previously(check(x) == 0))",
            TestOptions(MetricsMode::kFull));
  ThreadContext ctx(f.rt);
  f.rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {7};
  f.rt.OnFunctionReturn(ctx, S("check"), args, 0);
  f.rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
  metrics::Snapshot snapshot = f.rt.CollectMetrics();

  const std::string json = metrics::ToJson(snapshot);
  EXPECT_NE(json.find("\"mode\": \"counters+histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"m\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  const std::string prom = metrics::ToPrometheus(snapshot);
  EXPECT_NE(prom.find("# TYPE tesla_events_total counter"), std::string::npos);
  EXPECT_NE(prom.find("tesla_events_total 3"), std::string::npos);
  EXPECT_NE(prom.find("tesla_class_transitions_total{automaton=\"m\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE tesla_coverage_transitions gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tesla_dispatch_latency_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string text = metrics::RenderText(snapshot);
  EXPECT_NE(text.find("metrics mode: counters+histograms"), std::string::npos);
  EXPECT_NE(text.find("per-class counters:"), std::string::npos);
  EXPECT_NE(text.find("transition coverage:"), std::string::npos);
}

TEST(Metrics, JsonEscapesHostileAutomatonNames) {
  metrics::Snapshot snapshot;
  snapshot.mode = MetricsMode::kCounters;
  metrics::ClassSnapshot cls;
  cls.name = "quote\" backslash\\ newline\n";
  for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
    cls.counters[k] = 0;
  }
  snapshot.classes.push_back(cls);
  const std::string json = metrics::ToJson(snapshot);
  EXPECT_NE(json.find("quote\\\" backslash\\\\ newline\\n"), std::string::npos);
  const std::string prom = metrics::ToPrometheus(snapshot);
  EXPECT_NE(prom.find("quote\\\" backslash\\\\ newline\\n"), std::string::npos);
}

TEST(Metrics, CaptureFooterRoundTripsAndReplayMatches) {
  // Record a kernelsim run with counters on; the capture must carry
  // the exact snapshot, and a replay must reproduce it byte-for-byte (the
  // acceptance bar: counters and coverage are deterministic functions of the
  // event sequence).
  SetLogLevel(LogLevel::kSilent);
  const std::string path = TempPath("tesla_metrics_roundtrip.trace");
  RuntimeOptions options = TestOptions(MetricsMode::kCounters);
  options.trace_mode = trace::TraceMode::kFullCapture;
  Runtime rt(options);
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());

  kernelsim::KernelConfig config;
  config.tesla = &rt;
  config.bugs.kqueue_missing_mac_check = true;
  kernelsim::Kernel kernel(config);
  kernelsim::Proc* proc = kernel.NewProcess(0);
  kernelsim::KThread td = kernel.NewThread(proc);
  kernelsim::OpenCloseLoop(kernel, td, 10);
  int64_t sock = kernel.SysSocket(td);
  kernel.SysConnect(td, sock);
  kernel.SysPoll(td, sock, 1);
  kernel.SysKevent(td, sock, 1);  // bug: poll without MAC check
  ASSERT_GE(rt.stats().violations, 1u);

  ASSERT_TRUE(trace::WriteCapture(path, "kernelsim:all", rt).ok());
  const std::string recorded = metrics::ToJson(rt.CollectMetrics());

  // The metrics section deserialises to the identical snapshot.
  auto read = trace::TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  ASSERT_TRUE(read.value().summary.has_metrics);
  EXPECT_EQ(metrics::ToJson(read.value().summary.metrics), recorded);

  // Replaying reproduces counters and coverage exactly.
  auto replayed = trace::ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  EXPECT_TRUE(replayed.value().matched) << replayed.value().divergence;
  EXPECT_EQ(metrics::ToJson(replayed.value().metrics), recorded);
  std::remove(path.c_str());
}


// ---------------------------------------------------------------------------
// Cross-mode differential for the one cell block: the metrics counters and
// the workload profile are two views of the same per-class cells, so running
// one stream with counters only, profiling only, and both on must give each
// view the same numbers whichever other view shares the block — and the
// metrics view's index counters must be exactly the profile's route cells.

struct ModeRun {
  metrics::Snapshot metrics;
  profile::Snapshot profile;
  runtime::RuntimeStats stats;
};

automata::Manifest OneClass(const char* source, const char* name) {
  auto automaton = automata::CompileAssertion(source, {}, name);
  EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  return manifest;
}

ModeRun RunCrossMode(MetricsMode mode, bool profile) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options = TestOptions(mode);
  options.profile = profile;
  options.global_shards = 2;
  // The keyed per-thread class has its index keyed on x by a plan hint; the
  // global classes keep the full key. All scan while small and probe once
  // grown past the index population gate.
  profile::ClassHint hint;
  hint.name = "keyed";
  hint.prefix_key_pos = 0;
  options.plan_hints.classes.push_back(hint);
  Runtime rt(options);
  EXPECT_TRUE(
      rt.Register(OneClass("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", "keyed")).ok());
  EXPECT_TRUE(rt.Register(OneClass("TESLA_GLOBAL(call(genter), returnfrom(gexit), "
                                   "previously(gcheck(x) == 0))",
                                   "global"))
                  .ok());
  const uint32_t keyed = static_cast<uint32_t>(rt.FindAutomaton("keyed"));
  ThreadContext ctx(rt);

  // Action weights, by the cases below: clone events dominate, so many
  // bounds grow past the index population gate and every route shows.
  static constexpr int kWeights[] = {1, 16, 4, 4, 4, 1, 1, 1, 16, 1, 1, 16};
  uint64_t rng = 2024;
  auto drive = [&](int rounds, bool late) {
    int total = 0;
    for (int a = 0; a < (late ? 12 : 10); a++) {
      total += kWeights[a];
    }
    for (int round = 0; round < rounds; round++) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      int roll = static_cast<int>((rng >> 33) % static_cast<uint64_t>(total));
      int action = 0;
      while (roll >= kWeights[action]) {
        roll -= kWeights[action++];
      }
      const int64_t x = static_cast<int64_t>((rng >> 40) % 12);
      const int64_t y = static_cast<int64_t>((rng >> 48) % 3);
      int64_t pair_args[] = {x, y};
      int64_t one_arg[] = {x};
      Binding full[] = {{0, x}, {1, y}};
      Binding only_x[] = {{0, x}};
      Binding only_y[] = {{1, y}};
      switch (action) {
        case 0:
          rt.OnFunctionCall(ctx, S("syscall"), {});
          break;
        case 1:
          rt.OnFunctionReturn(ctx, S("pair"), pair_args, 0);
          break;
        case 2:
          rt.OnAssertionSite(ctx, keyed, full);  // probe of the x bucket
          break;
        case 3:
          rt.OnAssertionSite(ctx, keyed, only_x);  // probe of the x bucket
          break;
        case 4:
          rt.OnAssertionSite(ctx, keyed, only_y);  // partially bound: scan
          break;
        case 5:
          rt.OnAssertionSite(ctx, keyed, {});  // the flattened unbound-site path
          break;
        case 6:
          rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
          break;
        case 7:
          rt.OnFunctionCall(ctx, S("genter"), {});
          break;
        case 8:
          rt.OnFunctionReturn(ctx, S("gcheck"), one_arg, 0);
          break;
        case 9:
          rt.OnFunctionReturn(ctx, S("gexit"), {}, 0);
          break;
        case 10:
          rt.OnFunctionCall(ctx, S("lenter"), {});
          break;
        case 11:
          rt.OnFunctionReturn(ctx, S("lcheck"), one_arg, 0);
          break;
      }
    }
  };
  drive(1200, false);
  // A Register() after the context exists: its shard (and the global shard
  // contexts') predate the new class.
  EXPECT_TRUE(rt.Register(OneClass("TESLA_GLOBAL(call(lenter), returnfrom(lexit), "
                                   "previously(lcheck(x) == 0))",
                                   "late"))
                  .ok());
  drive(1200, true);
  return {rt.CollectMetrics(), rt.CollectProfile(), rt.stats()};
}

TEST(Metrics, CrossModeViewsOfOneCellBlock) {
  const ModeRun counters = RunCrossMode(MetricsMode::kCounters, false);
  const ModeRun profiled = RunCrossMode(MetricsMode::kOff, true);
  const ModeRun both = RunCrossMode(MetricsMode::kCounters, true);

  // Each view is present exactly when its option is on.
  EXPECT_TRUE(profiled.metrics.classes.empty());
  EXPECT_TRUE(counters.profile.classes.empty());
  ASSERT_EQ(both.metrics.classes.size(), 3u);
  ASSERT_EQ(both.profile.classes.size(), 3u);

  // Counters: identical between counters-only and both on.
  ASSERT_EQ(counters.metrics.classes.size(), both.metrics.classes.size());
  for (size_t c = 0; c < both.metrics.classes.size(); c++) {
    const metrics::ClassSnapshot& a = counters.metrics.classes[c];
    const metrics::ClassSnapshot& b = both.metrics.classes[c];
    ASSERT_EQ(a.name, b.name);
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      EXPECT_EQ(a.counters[k], b.counters[k]) << a.name << "." << metrics::kClassCounterNames[k];
    }
    ASSERT_EQ(a.transitions.size(), b.transitions.size()) << a.name;
    for (size_t t = 0; t < a.transitions.size(); t++) {
      EXPECT_EQ(a.transitions[t].fired, b.transitions[t].fired) << a.transitions[t].description;
    }
  }

  // Profile: deterministic cells, partials and sketches identical between
  // profile-only and both on.
  ASSERT_EQ(profiled.profile.classes.size(), both.profile.classes.size());
  for (size_t c = 0; c < both.profile.classes.size(); c++) {
    const profile::ClassProfile& a = profiled.profile.classes[c];
    const profile::ClassProfile& b = both.profile.classes[c];
    ASSERT_EQ(a.name, b.name);
    for (size_t i = 0; i < profile::kCellCount; i++) {
      if (profile::kCellDeterministic[i]) {
        EXPECT_EQ(a.cells[i], b.cells[i]) << a.name << "." << profile::kCellNames[i];
      }
    }
    for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
      EXPECT_EQ(a.var_partial[p], b.var_partial[p]) << a.name << " partial[" << p << "]";
      for (size_t w = 0; w < profile::kSketchWords; w++) {
        EXPECT_EQ(a.sketch[p][w], b.sketch[p][w]) << a.name << " sketch[" << p << "]";
      }
    }
  }

  // One route, two views: per class, index_probes = probes and index_scans
  // = scan fallbacks; summed over classes, the global stats.
  for (const ModeRun* run : {&counters, &profiled, &both}) {
    EXPECT_EQ(run->stats.index_probes, both.stats.index_probes);
    EXPECT_EQ(run->stats.index_scans, both.stats.index_scans);
  }
  uint64_t probes = 0;
  uint64_t scans = 0;

  for (size_t c = 0; c < both.metrics.classes.size(); c++) {
    const metrics::ClassSnapshot& m = both.metrics.classes[c];
    const profile::ClassProfile& p = both.profile.classes[c];
    EXPECT_EQ(Counter(m, ClassCounter::index_probes), p.cell(profile::Cell::index_probes))
        << m.name;
    EXPECT_EQ(Counter(m, ClassCounter::index_scans), p.cell(profile::Cell::scan_fallbacks))
        << m.name;
    probes += Counter(m, ClassCounter::index_probes);
    scans += Counter(m, ClassCounter::index_scans);
  }
  EXPECT_EQ(probes, both.stats.index_probes);
  EXPECT_EQ(scans, both.stats.index_scans);
  // The stream exercised every route in every class: probes, scans below
  // the gate (fallbacks not partially bound) and, for the keyed class's
  // y-only sites, partial-bound scans.
  for (const profile::ClassProfile& p : both.profile.classes) {
    EXPECT_GT(p.cell(profile::Cell::index_probes), 0u) << p.name;
    EXPECT_GT(p.cell(profile::Cell::scan_fallbacks), p.cell(profile::Cell::partial_bound))
        << p.name;
  }
  EXPECT_GT(both.profile.classes[0].cell(profile::Cell::partial_bound), 0u);
}

}  // namespace
}  // namespace tesla

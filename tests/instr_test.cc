#include <gtest/gtest.h>

#include <algorithm>

#include "buildsim/buildsim.h"
#include "cfront/cfront.h"
#include "instr/bridge.h"
#include "instr/instrument.h"
#include "ir/interp.h"
#include "runtime/runtime.h"

namespace tesla::instr {
namespace {

runtime::RuntimeOptions TestRuntimeOptions() {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  return options;
}

struct Pipeline {
  explicit Pipeline(const std::string& source) {
    cfront::Compiler compiler;
    auto status = compiler.AddUnit(source, "test.c");
    EXPECT_TRUE(status.ok()) << status.error().ToString();
    manifest = compiler.manifest();
    auto instrumented = Instrument(std::move(compiler.module()), manifest,
                                   std::vector<cfront::SiteInfo>(compiler.sites()));
    EXPECT_TRUE(instrumented.ok()) << instrumented.error().ToString();
    program = std::move(instrumented.value());
    auto verify = ir::Verify(program.module);
    EXPECT_TRUE(verify.ok()) << verify.error().ToString();
  }

  // Runs `entry` with instrumentation live; returns runtime stats.
  runtime::RuntimeStats Run(const std::string& entry, std::vector<int64_t> args = {}) {
    runtime::Runtime rt(TestRuntimeOptions());
    EXPECT_TRUE(rt.Register(manifest).ok());
    runtime::ThreadContext ctx(rt);
    ir::Interpreter interp(program.module);
    RuntimeBridge bridge(program, rt, ctx);
    interp.SetDispatcher(&bridge);
    auto result = interp.Call(entry, std::move(args));
    EXPECT_TRUE(result.ok()) << result.error().ToString();
    return rt.stats();
  }

  automata::Manifest manifest;
  InstrumentedProgram program;
};

// The paper's fig. 1 shape, end-to-end through the full compiler pipeline.
TEST(EndToEnd, PreviouslySatisfiedAndViolated) {
  const char* source =
      "int security_check(int o, int op) { return 0; }\n"
      "int do_work(int o, int op, int skip_check) {\n"
      "  if (!skip_check) { int r = security_check(o, op); r = r; }\n"
      "  TESLA_WITHIN(do_work, previously(security_check(o, op) == 0));\n"
      "  return 1;\n"
      "}";
  Pipeline pipeline(source);
  EXPECT_GT(pipeline.program.hooks_inserted, 0u);

  // Check performed: no violation.
  auto good = pipeline.Run("do_work", {7, 2, 0});
  EXPECT_EQ(good.violations, 0u);
  EXPECT_GT(good.transitions, 0u);

  // Check skipped: the assertion site fires a violation.
  auto bad = pipeline.Run("do_work", {7, 2, 1});
  EXPECT_EQ(bad.violations, 1u);
}

TEST(EndToEnd, SiteBindingDistinguishesValues) {
  const char* source =
      "int check(int x) { return 0; }\n"
      "int f(int checked, int asserted) {\n"
      "  int r = check(checked); r = r;\n"
      "  int o = asserted;\n"
      "  TESLA_WITHIN(f, previously(check(o) == 0));\n"
      "  return 0;\n"
      "}";
  Pipeline pipeline(source);
  EXPECT_EQ(pipeline.Run("f", {5, 5}).violations, 0u);
  EXPECT_EQ(pipeline.Run("f", {5, 6}).violations, 1u);  // the paper's vp3 case
}

TEST(EndToEnd, EventuallyThroughPipeline) {
  const char* source =
      "int audit(int x) { return 0; }\n"
      "int f(int x, int do_audit) {\n"
      "  TESLA_WITHIN(f, eventually(audit(x) == 0));\n"
      "  if (do_audit) { int r = audit(x); r = r; }\n"
      "  return 0;\n"
      "}";
  Pipeline pipeline(source);
  EXPECT_EQ(pipeline.Run("f", {3, 1}).violations, 0u);
  EXPECT_EQ(pipeline.Run("f", {3, 0}).violations, 1u);
}

TEST(EndToEnd, FieldAssignmentThroughPipeline) {
  const char* source =
      "struct sock { int state; };\n"
      "int f(int value) {\n"
      "  struct sock *s = alloc(sock);\n"
      "  s->state = value;\n"
      "  TESLA_WITHIN(f, previously(s.state = 3));\n"
      "  return 0;\n"
      "}";
  Pipeline pipeline(source);
  EXPECT_EQ(pipeline.Run("f", {3}).violations, 0u);
  EXPECT_EQ(pipeline.Run("f", {4}).violations, 1u);
}

TEST(EndToEnd, CompoundFieldAssignmentThroughPipeline) {
  const char* source =
      "struct counter { int n; };\n"
      "int f(int bump) {\n"
      "  struct counter *c = alloc(counter);\n"
      "  c->n = 10;\n"
      "  if (bump) { c->n++; } else { c->n += 5; }\n"
      "  TESLA_WITHIN(f, previously(c.n++))\n;"
      "  return 0;\n"
      "}";
  Pipeline pipeline(source);
  EXPECT_EQ(pipeline.Run("f", {1}).violations, 0u);
  EXPECT_EQ(pipeline.Run("f", {0}).violations, 1u);
}

TEST(EndToEnd, CrossUnitAssertion) {
  // §5.1's shape: the assertion lives in the client unit and references a
  // function defined in the library unit.
  cfront::Compiler compiler;
  ASSERT_TRUE(compiler
                  .AddUnit("int EVP_VerifyFinal(int sig) { if (sig == 13) { return -1; } "
                           "return 1; }",
                           "crypto.c")
                  .ok());
  ASSERT_TRUE(compiler
                  .AddUnit("int fetch(int sig) {\n"
                           "  int v = EVP_VerifyFinal(sig); v = v;\n"
                           "  TESLA_WITHIN(fetch, previously(EVP_VerifyFinal(ANY(int)) == 1));\n"
                           "  return 0;\n"
                           "}",
                           "fetch.c")
                  .ok());
  auto instrumented = Instrument(std::move(compiler.module()), compiler.manifest(),
                                 std::vector<cfront::SiteInfo>(compiler.sites()));
  ASSERT_TRUE(instrumented.ok()) << instrumented.error().ToString();

  runtime::Runtime rt(TestRuntimeOptions());
  ASSERT_TRUE(rt.Register(compiler.manifest()).ok());
  auto good = RunInstrumented(*instrumented, "fetch", rt);
  // First call: honest signature (1) — no violation.
  {
    runtime::ThreadContext ctx(rt);
    ir::Interpreter interp(instrumented->module);
    RuntimeBridge bridge(*instrumented, rt, ctx);
    interp.SetDispatcher(&bridge);
    ASSERT_TRUE(interp.Call("fetch", {7}).ok());
    EXPECT_EQ(rt.stats().violations, 0u);
    // Second call: the forged signature (13 → −1) — violation.
    ASSERT_TRUE(interp.Call("fetch", {13}).ok());
    EXPECT_EQ(rt.stats().violations, 1u);
  }
  (void)good;
}

TEST(Instrumenter, HooksOnlyWhatTheManifestNeeds) {
  const char* source =
      "int hooked(int x) { return 0; }\n"
      "int unhooked(int x) { return x; }\n"
      "int f(int x) {\n"
      "  int a = unhooked(x); a = a;\n"
      "  int b = hooked(x); b = b;\n"
      "  TESLA_WITHIN(f, previously(hooked(x) == 0));\n"
      "  return 0;\n"
      "}";
  Pipeline pipeline(source);
  // Hooks: f entry+exit (bound), hooked entry/exit (callee side), 1 site.
  // `unhooked` must not be instrumented.
  uint64_t hook_count = 0;
  bool unhooked_instrumented = false;
  Symbol unhooked = GlobalInterner().Lookup("unhooked");
  for (const auto& function : pipeline.program.module.functions()) {
    for (const auto& block : function.blocks) {
      for (const auto& instr : block.instrs) {
        if (instr.op == ir::Opcode::kHook) {
          hook_count++;
          if (function.name == unhooked) {
            unhooked_instrumented = true;
          }
        }
      }
    }
  }
  EXPECT_EQ(hook_count, pipeline.program.hooks_inserted);
  EXPECT_FALSE(unhooked_instrumented);
}

TEST(Instrumenter, CallerSideForExternalFunctions) {
  // `external` has no body in the module: instrumentation must fall back to
  // caller-side hooks around the call site (§4.2).
  cfront::Compiler compiler;
  ASSERT_TRUE(compiler
                  .AddUnit("int f(int x) {\n"
                           "  int r = external(x); r = r;\n"
                           "  TESLA_WITHIN(f, previously(external(x) == 0));\n"
                           "  return 0;\n"
                           "}",
                           "f.c")
                  .ok());
  auto instrumented = Instrument(std::move(compiler.module()), compiler.manifest(),
                                 std::vector<cfront::SiteInfo>(compiler.sites()));
  ASSERT_TRUE(instrumented.ok());

  bool has_caller_post = false;
  for (const Translator& translator : instrumented->translators) {
    if (translator.kind == Translator::Kind::kCallerPost) {
      has_caller_post = true;
    }
  }
  EXPECT_TRUE(has_caller_post);

  runtime::Runtime rt(TestRuntimeOptions());
  ASSERT_TRUE(rt.Register(compiler.manifest()).ok());
  runtime::ThreadContext ctx(rt);
  ir::Interpreter interp(instrumented->module);
  RuntimeBridge bridge(*instrumented, rt, ctx);
  interp.SetDispatcher(&bridge);
  interp.BindHost("external", [](std::span<const int64_t>) { return 0; });
  ASSERT_TRUE(interp.Call("f", {4}).ok());
  EXPECT_EQ(rt.stats().violations, 0u);
}

// The timing comparisons below take the fastest reading of each section
// over several MeasureBuild calls (each already a minimum over its own
// passes, alternating the default and TESLA sides), alternating the
// configurations being compared, so a loaded spell of a parallel ctest run
// lands on both sides of a comparison instead of inverting it.
constexpr int kTimingRounds = 4;

void KeepFastest(buildsim::BuildTimes& best, const buildsim::BuildTimes& times, int round) {
  if (round == 0) {
    best = times;
    return;
  }
  best.clean_default_s = std::min(best.clean_default_s, times.clean_default_s);
  best.clean_tesla_s = std::min(best.clean_tesla_s, times.clean_tesla_s);
  best.incremental_default_s = std::min(best.incremental_default_s, times.incremental_default_s);
  best.incremental_tesla_s = std::min(best.incremental_tesla_s, times.incremental_tesla_s);
}

TEST(Buildsim, CorpusCompilesAndMeasures) {
  buildsim::CorpusOptions corpus_options;
  corpus_options.units = 6;
  corpus_options.functions_per_unit = 4;
  buildsim::Corpus corpus = buildsim::GenerateCorpus(corpus_options);
  ASSERT_EQ(corpus.unit_sources.size(), 6u);

  buildsim::BuildOptions build_options;
  // Incremental rebuilds are microseconds: min over repeats and rounds.
  build_options.incremental_repeats = 2;
  buildsim::BuildTimes times;
  for (int round = 0; round < kTimingRounds; round++) {
    auto measured = buildsim::MeasureBuild(corpus, build_options);
    ASSERT_TRUE(measured.ok()) << measured.error().ToString();
    // The deterministic fact behind the incremental slowdown: a naive TESLA
    // rebuild re-instruments every unit.
    EXPECT_EQ(measured->incremental_units_reinstrumented, measured->units);
    KeepFastest(times, *measured, round);
  }
  EXPECT_GT(times.clean_default_s, 0.0);
  // The TESLA workflow costs more than the default build, and incremental
  // TESLA rebuilds re-instrument everything (fig. 10's shape).
  EXPECT_GT(times.clean_tesla_s, times.clean_default_s);
  EXPECT_GT(times.IncrementalSlowdown(), times.CleanSlowdown());
  EXPECT_GT(times.instrumented_hooks, 0u);
}

TEST(Buildsim, SmartIncrementalIsCheaper) {
  buildsim::CorpusOptions corpus_options;
  corpus_options.units = 8;
  corpus_options.functions_per_unit = 4;
  // One assertion only: a dense corpus legitimately defeats the smart mode
  // (almost every unit defines a hooked function).
  corpus_options.assertion_every = corpus_options.units * 2;
  buildsim::Corpus corpus = buildsim::GenerateCorpus(corpus_options);

  buildsim::BuildOptions naive;
  naive.incremental_repeats = 2;
  buildsim::BuildOptions smart = naive;
  smart.smart_incremental = true;

  buildsim::BuildTimes naive_times;
  buildsim::BuildTimes smart_times;
  for (int round = 0; round < kTimingRounds; round++) {
    auto naive_round = buildsim::MeasureBuild(corpus, naive);
    auto smart_round = buildsim::MeasureBuild(corpus, smart);
    ASSERT_TRUE(naive_round.ok());
    ASSERT_TRUE(smart_round.ok());
    // The deterministic fact behind the timing: smart mode re-instruments
    // fewer units than naive mode, which re-instruments all of them.
    EXPECT_EQ(naive_round->incremental_units_reinstrumented, naive_round->units);
    EXPECT_LT(smart_round->incremental_units_reinstrumented,
              naive_round->incremental_units_reinstrumented);
    KeepFastest(naive_times, *naive_round, round);
    KeepFastest(smart_times, *smart_round, round);
  }
  EXPECT_LT(smart_times.incremental_tesla_s, naive_times.incremental_tesla_s);
}

}  // namespace
}  // namespace tesla::instr

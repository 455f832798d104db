// Self-describing captures: the manifest serialise → parse → Register()
// round trip must be a fixpoint that compiles an identical dispatch plan
// (checked behaviourally over the kernel workload), a `file:` origin must
// let a capture replay in a process with no built-in knowledge of its
// assertion set, and the embedded manifest must beat an unresolvable
// origin string. The manifest text crosses a trust boundary (capture plan
// sections, shm plan regions, file: origins), so an index out of range is an
// error naming its line, never a crash: directed reproducers and a seeded
// byte-mutation sweep, clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "metrics/snapshot.h"
#include "runtime/runtime.h"
#include "support/hash.h"
#include "support/log.h"
#include "trace/format.h"
#include "trace/origins.h"
#include "trace/replay.h"

namespace tesla {
namespace {

using runtime::Runtime;
using runtime::RuntimeOptions;
using trace::TraceFile;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name + "." +
         std::to_string(::getpid());
}

RuntimeOptions TestOptions(trace::TraceMode mode = trace::TraceMode::kOff) {
  RuntimeOptions options;
  options.fail_stop = false;
  options.trace_mode = mode;
  options.metrics_mode = metrics::MetricsMode::kCounters;
  return options;
}

// The buggy kernel study: deterministic, touches dozens of automata and all
// three violation paths — a strong behavioural fingerprint of the plan.
void DriveKernel(Runtime& rt) {
  kernelsim::KernelConfig config;
  config.tesla = &rt;
  config.bugs.kqueue_missing_mac_check = true;
  config.bugs.poll_uses_file_credential = true;
  config.bugs.setuid_skips_sugid_flag = true;
  kernelsim::Kernel kernel(config);
  kernelsim::Proc* proc = kernel.NewProcess(0);
  kernelsim::KThread td = kernel.NewThread(proc);
  kernelsim::OpenCloseLoop(kernel, td, 30);
  int64_t sock = kernel.SysSocket(td);
  kernel.SysConnect(td, sock);
  kernel.SysPoll(td, sock, 1);
  kernel.SysKevent(td, sock, 1);
  kernel.SysSetuid(td, 0);
  kernel.SysPoll(td, sock, 1);
  kernel.SysSetuid(td, 5);
}

TEST(ManifestRoundTrip, SerialiseParseRegisterIsAFixpoint) {
  SetLogLevel(LogLevel::kSilent);
  Runtime first(TestOptions());
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(first.Register(manifest.value()).ok());
  const std::string text1 = first.ManifestText();
  ASSERT_FALSE(text1.empty());

  auto reparsed = automata::Manifest::Deserialize(text1);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  ASSERT_EQ(reparsed.value().automata.size(), manifest.value().automata.size());
  Runtime second(TestOptions());
  ASSERT_TRUE(second.Register(reparsed.value()).ok());

  // Bit-identical re-serialisation: the registered text is a fixpoint of
  // serialise → parse → Register, so a capture's embedded manifest never
  // drifts however many hops it takes.
  EXPECT_EQ(second.ManifestText(), text1);

  // And the two plans behave identically: same stats, same per-class
  // counters, same coverage over the full kernel study.
  DriveKernel(first);
  DriveKernel(second);
  ASSERT_GE(first.stats().violations, 3u);
  for (const trace::StatsField& field : trace::kStatsFields) {
    EXPECT_EQ(second.stats().*field.field, first.stats().*field.field) << field.name;
  }
  const metrics::Snapshot a = first.CollectMetrics();
  const metrics::Snapshot b = second.CollectMetrics();
  ASSERT_EQ(b.classes.size(), a.classes.size());
  for (size_t c = 0; c < a.classes.size(); c++) {
    EXPECT_EQ(b.classes[c].name, a.classes[c].name);
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      EXPECT_EQ(b.classes[c].counters[k], a.classes[c].counters[k]) << a.classes[c].name;
    }
    ASSERT_EQ(b.classes[c].transitions.size(), a.classes[c].transitions.size());
    for (size_t t = 0; t < a.classes[c].transitions.size(); t++) {
      EXPECT_EQ(b.classes[c].transitions[t].fired, a.classes[c].transitions[t].fired)
          << a.classes[c].name << " transition " << t;
    }
  }
}

// Strips the embedded manifest from a capture, rewriting it with `origin` —
// the shape of a capture written by a minimal producer.
void RewriteWithoutManifest(const TraceFile& file, const std::string& origin,
                            const std::string& path) {
  TraceFile stripped = file;
  stripped.origin = origin;
  stripped.manifest_text.clear();
  ASSERT_TRUE(stripped.Write(path).ok());
}

TEST(ManifestRoundTrip, FileOriginReplaysWithoutBuiltInManifest) {
  SetLogLevel(LogLevel::kSilent);
  const std::string manifest_path = TempPath("tesla_roundtrip_manifest.tesla");
  const std::string capture_path = TempPath("tesla_roundtrip_v4.cap");
  const std::string stripped_path = TempPath("tesla_roundtrip_stripped.cap");

  Runtime rt(TestOptions(trace::TraceMode::kFullCapture));
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());
  DriveKernel(rt);
  {
    std::ofstream out(manifest_path);
    out << rt.ManifestText();  // what `teslac run --emit-manifest` writes
  }
  ASSERT_TRUE(trace::WriteCapture(capture_path, "file:" + manifest_path, rt).ok());

  auto read = TraceFile::Read(capture_path);
  ASSERT_TRUE(read.ok());
  ASSERT_FALSE(read.value().manifest_text.empty());  // WriteCapture always embeds

  // Remove the embedded copy: replay must now resolve the file: origin —
  // the only route a fresh process without this binary's manifests has.
  RewriteWithoutManifest(read.value(), "file:" + manifest_path, stripped_path);
  auto replayed = trace::ReplayFile(stripped_path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  EXPECT_TRUE(replayed.value().matched) << replayed.value().divergence;
  EXPECT_EQ(replayed.value().stats.violations, rt.stats().violations);

  std::remove(manifest_path.c_str());
  std::remove(capture_path.c_str());
  std::remove(stripped_path.c_str());
}

TEST(ManifestRoundTrip, EmbeddedManifestBeatsUnresolvableOrigin) {
  SetLogLevel(LogLevel::kSilent);
  const std::string path = TempPath("tesla_roundtrip_garbage_origin.cap");
  Runtime rt(TestOptions(trace::TraceMode::kFullCapture));
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());
  DriveKernel(rt);
  // The origin names nothing this (or any) binary knows; the embedded
  // manifest alone must carry the replay.
  ASSERT_TRUE(trace::WriteCapture(path, "decommissioned-host:job42", rt).ok());
  auto replayed = trace::ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  EXPECT_TRUE(replayed.value().matched) << replayed.value().divergence;
  std::remove(path.c_str());
}

TEST(ManifestRoundTrip, UnknownOriginErrorIsCodedAndListsAlternatives) {
  SetLogLevel(LogLevel::kSilent);
  const std::string capture_path = TempPath("tesla_roundtrip_unknown.cap");
  const std::string stripped_path = TempPath("tesla_roundtrip_unknown_stripped.cap");
  Runtime rt(TestOptions(trace::TraceMode::kFullCapture));
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());
  DriveKernel(rt);
  ASSERT_TRUE(trace::WriteCapture(capture_path, "kernelsim:all", rt).ok());
  auto read = TraceFile::Read(capture_path);
  ASSERT_TRUE(read.ok());
  RewriteWithoutManifest(read.value(), "decommissioned-host:job42", stripped_path);

  auto replayed = trace::ReplayFile(stripped_path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error().code, trace::kErrUnknownOrigin);
  // The message must teach the fix: the built-in origins and the file: form.
  const std::string message = replayed.error().ToString();
  EXPECT_NE(message.find("kernelsim:all"), std::string::npos);
  EXPECT_NE(message.find("file:"), std::string::npos);

  // A file: origin whose path is unreadable keeps the I/O error class.
  RewriteWithoutManifest(read.value(), "file:/nonexistent/manifest.tesla", stripped_path);
  auto unreadable = trace::ReplayFile(stripped_path);
  ASSERT_FALSE(unreadable.ok());
  EXPECT_EQ(unreadable.error().code, trace::kErrUnreadable);

  std::remove(capture_path.c_str());
  std::remove(stripped_path.c_str());
}

// A hand-written manifest whose line 10 is `bad_line`: two states' worth of
// transitions over a two-symbol alphabet and one variable.
std::string ManifestWith(const std::string& bad_line) {
  return "tesla-manifest 1\n"             // 1
         "automaton r\n"                  // 2
         "  context perthread\n"          // 3
         "  strict 0\n"                   // 4
         "  states 3 accept 2\n"          // 5
         "  bounds 0 1 -1\n"              // 6
         "  var x\n"                      // 7
         "  sym call fn=enter side=0 argspec=1 args=var:0\n"  // 8
         "  sym return fn=leave side=0 argspec=0 args=\n"     // 9
         + bad_line + "\n"                // 10
         "  trans 1 1 2\n"                // 11
         "end\n";                         // 12
}

TEST(ManifestText, OutOfRangeIndicesAreErrorsWithTheirLine) {
  ASSERT_TRUE(automata::Manifest::Deserialize(ManifestWith("  trans 0 0 1")).ok());
  // The two reproducers: a transition from a state past `states` (a heap
  // overflow in Finalize's edge table) and over a symbol past the alphabet
  // (a wild write into symbol_sources).
  for (const char* line : {"  trans 9 0 1", "  trans 0 7 1", "  trans 0 0 3", "  trans -1 0 1",
                           "  trans 0 -1 1", "  trans 0 0 -1",
                           "  timed within 1000 0 1 sym=0,2", "  timed rate 1000 1 1 sym=-1",
                           "  sym call fn=f side=0 argspec=1 args=var:1",
                           "  sym call fn=f side=0 argspec=1 args=any,ind:5",
                           "  sym return fn=f side=0 argspec=0 args= ret=var:1",
                           "  sym field fn=f side=0 argspec=0 args= svar=1 field=g op=0 val=any",
                           "  sym field fn=f side=0 argspec=0 args= svar=0 field=g op=0 val=var:3",
                           "  sym field fn=f side=0 argspec=0 args= svar=0 field=g op=9 val=any",
                           "  sym call fn=f side=7 argspec=0 args=",
                           "  states 65 accept 0", "  states 0 accept 0", "  states 2 accept 2",
                           "  states 3 accept -1"}) {
    auto parsed = automata::Manifest::Deserialize(ManifestWith(line));
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.error().line, 10) << line << ": " << parsed.error().ToString();
  }

  // Bounds precede the sym lines they index, so they are checked at `end`
  // and reported at their own line.
  std::string text = ManifestWith("  trans 0 0 1");
  for (const char* bounds : {"  bounds 0 2 -1", "  bounds 5 1 -1", "  bounds 0 1 2",
                             "  bounds 0 1 -2", "  bounds 70000 1 -1"}) {
    std::string bad = text;
    bad.replace(bad.find("  bounds 0 1 -1"), 15, bounds);
    auto parsed = automata::Manifest::Deserialize(bad);
    ASSERT_FALSE(parsed.ok()) << bounds;
    EXPECT_EQ(parsed.error().line, 6) << bounds << ": " << parsed.error().ToString();
  }
  // An automaton block without a states line has no states to index.
  std::string stateless = text;
  stateless.erase(stateless.find("  states 3 accept 2\n"), 20);
  stateless.erase(stateless.find("  trans 0 0 1\n"), 14);
  stateless.erase(stateless.find("  trans 1 1 2\n"), 14);
  EXPECT_FALSE(automata::Manifest::Deserialize(stateless).ok());
  // Bare keywords carry no text to take a suffix of: an error, not a throw.
  for (const char* bare : {"automaton\nend\n", "automaton r\n  var\n  source\nend\n"}) {
    EXPECT_FALSE(automata::Manifest::Deserialize(bare).ok()) << bare;
  }
}

TEST(ManifestText, ReplayOfACaptureWithABadManifestIsCorrupt) {
  // The capture reader does not parse the plan's manifest text; replay
  // does, and a bad one is a corrupt capture (exit 2), not a crash.
  TraceFile file;
  file.origin = "test:bad-manifest";
  file.manifest_text = ManifestWith("  trans 9 0 1");
  file.symbols.push_back("enter");
  const std::string path = TempPath("tesla_bad_manifest.cap");
  ASSERT_TRUE(file.Write(path).ok());
  auto replayed = trace::ReplayFile(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error().code, trace::kErrCorrupt);
  EXPECT_EQ(replayed.error().line, 10);
  std::remove(path.c_str());
}

// A multi-automaton manifest covering every line kind: a field pattern,
// an incallstack() variant, a global class, and within_ms/rate clauses.
std::string SweepSeedManifest() {
  automata::Manifest manifest;
  const std::pair<const char*, const char*> sources[] = {
      {"TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", "pair"},
      {"TESLA_WITHIN(g, TSEQUENCE(s.state = 1, caller(call(ext))))", "field"},
      {"TESLA_GLOBAL(call(genter), returnfrom(gexit), previously(gcheck(x) == 0))", "global"},
      {"TESLA_WITHIN(svc, within_ms(10, TSEQUENCE(called(arm), called(pat))))", "within"},
      {"TESLA_WITHIN(svc, rate(3, per_ms(10), ATLEAST(1, called(tick))))", "rate"},
  };
  for (const auto& [source, name] : sources) {
    auto automaton = automata::CompileAssertion(source, {}, name);
    EXPECT_TRUE(automaton.ok()) << name << ": " << automaton.error().ToString();
    if (automaton.ok()) {
      manifest.Add(std::move(automaton.value()));
    }
  }
  return manifest.Serialize();
}

TEST(ManifestText, MutatedManifestsNeverCrash) {
  // Byte mutations — overwrites, spliced digits and separators, erased runs
  // and inserted numbers — over three seeds. Every mutant either fails with
  // a line inside the text, or parses into automata whose re-serialisation
  // parses back to the same text and registers (or is refused) without
  // touching memory out of range.
  SetLogLevel(LogLevel::kSilent);
  const std::string seed = SweepSeedManifest();
  ASSERT_TRUE(automata::Manifest::Deserialize(seed).ok());
  const std::string splices[] = {" ", "\n", "-", ",", ":", "=", "0", "1", "9", "-1", "64",
                                 "65", "255", "65535", "65536", "4294967296", "trans 0 0 ",
                                 "var:", "sym="};
  size_t accepted = 0;
  for (uint64_t sweep_seed : {1u, 2u, 3u}) {
    for (uint64_t round = 0; round < 20000; round++) {
      uint64_t rng = HashU64(sweep_seed * 1000003 + round);
      std::string text = seed;
      const int edits = 1 + static_cast<int>(rng % 3);
      for (int e = 0; e < edits; e++) {
        rng = HashU64(rng);
        const size_t pos = static_cast<size_t>(rng >> 8) % text.size();
        switch (rng % 4) {
          case 0:  // overwrite a byte
            text[pos] = static_cast<char>(rng >> 40);
            break;
          case 1:  // splice a digit or separator
            text.insert(pos, splices[(rng >> 40) % std::size(splices)]);
            break;
          case 2:  // erase a run
            text.erase(pos, static_cast<size_t>(rng >> 50) % 16);
            break;
          case 3:  // insert a number
            text.insert(pos, std::to_string(static_cast<int64_t>(rng >> 20) %
                                            (int64_t{1} << (rng % 40))));
            break;
        }
      }
      auto parsed = automata::Manifest::Deserialize(text);
      if (!parsed.ok()) {
        ASSERT_GE(parsed.error().line, 1) << text;
        continue;
      }
      accepted++;
      const std::string again = parsed.value().Serialize();
      auto reparsed = automata::Manifest::Deserialize(again);
      ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString() << "\n" << again;
      ASSERT_EQ(reparsed.value().Serialize(), again);
      Runtime rt(TestOptions());
      (void)rt.Register(parsed.value());
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace tesla

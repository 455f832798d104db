// Self-describing captures: the manifest serialise → parse → Register()
// round trip must be a fixpoint that compiles an identical dispatch plan
// (checked behaviourally over the kernel workload), a `file:` origin must
// let a capture replay in a process with no built-in knowledge of its
// assertion set, and the embedded manifest must beat an unresolvable
// origin string.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "automata/manifest.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "metrics/snapshot.h"
#include "runtime/runtime.h"
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

}  // namespace
}  // namespace tesla

// tesla::trace coverage: ring wrap/drop accounting, harvest-during-write
// races (run under TSan in CI), recorder merging, the binary capture format,
// capture→replay round trips through the simulators, batch ingestion
// equivalence, growable site-variant buffers, and violation forensics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "runtime/runtime.h"
#include "sslsim/fetch.h"
#include "support/log.h"
#include "trace/forensics.h"
#include "trace/format.h"
#include "trace/recorder.h"
#include "trace/replay.h"
#include "trace/ring.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::Event;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;
using trace::TraceRecord;
using trace::TraceRing;

Symbol S(const char* name) { return InternString(name); }

RuntimeOptions TestOptions(trace::TraceMode mode = trace::TraceMode::kOff) {
  RuntimeOptions options;
  options.fail_stop = false;
  options.trace_mode = mode;
  return options;
}

// A record whose every payload word is derived from its sequence number, so
// a torn copy (words from two different writes) is detectable.
TraceRecord SeqRecord(uint64_t seq) {
  TraceRecord record;
  record.seq = seq;
  record.ctx = static_cast<uint32_t>(seq * 3);
  record.target = static_cast<uint32_t>(seq * 5 + 1);
  record.return_value = static_cast<int64_t>(seq * 7);
  for (size_t i = 0; i < runtime::kMaxEventArgs; i++) {
    record.values[i] = static_cast<int64_t>(seq * 11 + i);
  }
  return record;
}

bool ConsistentWithSeq(const TraceRecord& record) {
  if (record.ctx != static_cast<uint32_t>(record.seq * 3)) return false;
  if (record.target != static_cast<uint32_t>(record.seq * 5 + 1)) return false;
  if (record.return_value != static_cast<int64_t>(record.seq * 7)) return false;
  for (size_t i = 0; i < runtime::kMaxEventArgs; i++) {
    if (record.values[i] != static_cast<int64_t>(record.seq * 11 + i)) return false;
  }
  return true;
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name;
}

TEST(TraceRing, WrapOverwritesOldestAndAccounts) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t seq = 0; seq < 20; seq++) {
    ring.Push(SeqRecord(seq));
  }
  std::vector<TraceRecord> out;
  TraceRing::HarvestStats stats = ring.Harvest(out);
  EXPECT_EQ(stats.produced, 20u);
  EXPECT_EQ(stats.overwritten, 12u);  // 20 pushed, window of 8
  // The oldest in-window slot is conservatively discarded once the ring has
  // wrapped: its overwriter (index i+capacity == head) may have started
  // writing words without publishing, and the harvester cannot tell.
  EXPECT_EQ(stats.torn, 1u);
  ASSERT_EQ(out.size(), 7u);
  for (size_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].seq, 13 + i);  // oldest surviving record first
    EXPECT_TRUE(ConsistentWithSeq(out[i]));
  }
}

TEST(TraceRing, PartialFillHarvestsEverything) {
  TraceRing ring(64);
  for (uint64_t seq = 0; seq < 5; seq++) {
    ring.Push(SeqRecord(seq));
  }
  std::vector<TraceRecord> out;
  TraceRing::HarvestStats stats = ring.Harvest(out);
  EXPECT_EQ(stats.produced, 5u);
  EXPECT_EQ(stats.overwritten, 0u);
  EXPECT_EQ(stats.torn, 0u);
  ASSERT_EQ(out.size(), 5u);
}

// The race the tear-detection protocol exists for: a consumer harvesting
// while the producer keeps writing. Every harvested record must be intact
// (no mixed words) and the accounting must cover every produced record.
// CI runs this test under TSan; the ring's loads/stores must all be atomic.
TEST(TraceRing, HarvestDuringConcurrentWritesNeverTears) {
  constexpr uint64_t kPushes = 200000;
  TraceRing ring(64);
  // The producer stalls at the halfway mark until the consumer has harvested
  // at least once: on a loaded machine the producer could otherwise finish
  // before the first harvest, and the test would never observe a harvest
  // racing live writes.
  std::atomic<bool> harvested_once{false};
  std::thread producer([&ring, &harvested_once] {
    for (uint64_t seq = 0; seq < kPushes; seq++) {
      if (seq == kPushes / 2) {
        while (!harvested_once.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      ring.Push(SeqRecord(seq));
    }
  });

  uint64_t harvests = 0;
  uint64_t last_produced = 0;
  while (last_produced < kPushes) {
    std::vector<TraceRecord> out;
    TraceRing::HarvestStats stats = ring.Harvest(out);
    EXPECT_GE(stats.produced, last_produced);
    last_produced = stats.produced;
    EXPECT_EQ(stats.produced, stats.overwritten + stats.torn + out.size());
    uint64_t prev_seq = 0;
    for (const TraceRecord& record : out) {
      EXPECT_TRUE(ConsistentWithSeq(record)) << "torn record at seq " << record.seq;
      if (&record != &out.front()) {
        EXPECT_EQ(record.seq, prev_seq + 1);  // the window is contiguous
      }
      prev_seq = record.seq;
    }
    harvests++;
    harvested_once.store(true, std::memory_order_release);
  }
  producer.join();
  EXPECT_GT(harvests, 1u);

  // Quiescent harvest after the producer finished sees the full tail (minus
  // the oldest slot, conservatively treated as possibly-in-rewrite).
  std::vector<TraceRecord> out;
  TraceRing::HarvestStats stats = ring.Harvest(out);
  EXPECT_EQ(stats.produced, kPushes);
  EXPECT_EQ(stats.torn, 1u);
  EXPECT_EQ(out.size(), ring.capacity() - 1);
}

TEST(Recorder, MergesContextsBySequence) {
  trace::Recorder recorder({trace::TraceMode::kFlightRecorder, 64, 1 << 10});
  trace::ContextLog* a = recorder.RegisterContext();
  trace::ContextLog* b = recorder.RegisterContext();
  for (int i = 0; i < 10; i++) {
    recorder.Record(*a, Event::Call(S("from_a"), {}));
    recorder.Record(*b, Event::Call(S("from_b"), {}));
  }
  trace::Snapshot snapshot = recorder.Harvest();
  EXPECT_EQ(snapshot.produced, 20u);
  EXPECT_EQ(snapshot.dropped, 0u);
  ASSERT_EQ(snapshot.records.size(), 20u);
  for (size_t i = 0; i < snapshot.records.size(); i++) {
    EXPECT_EQ(snapshot.records[i].seq, i);  // global order across both rings
    EXPECT_EQ(snapshot.records[i].ctx, i % 2 == 0 ? a->id() : b->id());
  }
  EXPECT_GT(recorder.Harvest().epoch, snapshot.epoch);
}

TEST(Recorder, FullCaptureCapDropsAreCounted) {
  trace::Recorder recorder({trace::TraceMode::kFullCapture, 64, 4});
  trace::ContextLog* log = recorder.RegisterContext();
  for (int i = 0; i < 10; i++) {
    recorder.Record(*log, Event::Call(S("capped"), {}));
  }
  trace::Snapshot snapshot = recorder.Harvest();
  EXPECT_EQ(snapshot.produced, 10u);
  EXPECT_EQ(snapshot.dropped, 6u);
  EXPECT_EQ(snapshot.records.size(), 4u);
}

TEST(TraceFormat, BinaryRoundTrip) {
  const std::string path = TempPath("tesla_format_roundtrip.trace");
  trace::CaptureOptions options;
  options.lazy_init = false;
  options.use_dfa = true;
  options.instance_index = false;
  options.instances_per_context = 12345;
  options.global_shards = 3;

  std::vector<TraceRecord> records;
  {
    uint64_t seq = 0;
    int64_t args[] = {1, -2, 3};
    records.push_back(trace::MakeRecord(seq++, 0, Event::Call(S("format_fn"), args)));
    records.push_back(trace::MakeRecord(seq++, 1, Event::Return(S("format_fn"), args, -77)));
    records.push_back(
        trace::MakeRecord(seq++, 0, Event::FieldStore(S("format_field"), 10, 20, 30)));
    Binding bindings[] = {{2, -9}, {0, 4}};
    records.push_back(trace::MakeRecord(seq++, 2, Event::Site(7, bindings)));
    int64_t many[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // > kMaxEventArgs: truncated
    records.push_back(trace::MakeRecord(seq++, 0, Event::Call(S("format_fn"), many)));
  }

  trace::SemanticSummary summary;
  summary.dropped = 2;
  uint64_t value = 100;
  for (const trace::StatsField& field : trace::kStatsFields) {
    summary.stats.*field.field = value++;
  }
  summary.violations.emplace_back(runtime::ViolationKind::kBadSite, "format-test");
  summary.violations.emplace_back(runtime::ViolationKind::kStrictEvent, "format-test-2");

  trace::TraceFile written;
  written.origin = "test:format";
  written.options = options;
  written.plan_hints.classes.push_back({"format class", 12, 1});
  written.manifest_text = "format-manifest";
  for (Symbol symbol = 0; symbol < GlobalInterner().size(); symbol++) {
    written.symbols.push_back(GlobalInterner().Spelling(symbol));
  }
  written.records = records;
  written.summary = summary;
  ASSERT_TRUE(written.Write(path).ok());

  auto read = trace::TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  const trace::TraceFile& file = read.value();
  EXPECT_EQ(file.origin, "test:format");
  ASSERT_EQ(file.plan_hints.classes.size(), 1u);
  EXPECT_EQ(file.plan_hints.classes[0].name, "format class");
  EXPECT_EQ(file.plan_hints.classes[0].capacity, 12u);
  EXPECT_EQ(file.plan_hints.classes[0].prefix_key_pos, 1);
  EXPECT_EQ(file.manifest_text, "format-manifest");
  EXPECT_EQ(file.options.lazy_init, options.lazy_init);
  EXPECT_EQ(file.options.use_dfa, options.use_dfa);
  EXPECT_EQ(file.options.instance_index, options.instance_index);
  EXPECT_EQ(file.options.instances_per_context, options.instances_per_context);
  EXPECT_EQ(file.options.global_shards, options.global_shards);
  EXPECT_EQ(file.symbols.size(), GlobalInterner().size());
  EXPECT_EQ(file.symbols[S("format_fn")], "format_fn");

  ASSERT_EQ(file.records.size(), records.size());
  for (size_t i = 0; i < records.size(); i++) {
    EXPECT_EQ(file.records[i].seq, records[i].seq) << i;
    EXPECT_EQ(file.records[i].ctx, records[i].ctx) << i;
    EXPECT_EQ(file.records[i].target, records[i].target) << i;
    EXPECT_EQ(file.records[i].kind, records[i].kind) << i;
    EXPECT_EQ(file.records[i].count, records[i].count) << i;
    EXPECT_EQ(file.records[i].flags, records[i].flags) << i;
    EXPECT_EQ(file.records[i].return_value, records[i].return_value) << i;
    for (size_t j = 0; j < records[i].count; j++) {
      EXPECT_EQ(file.records[i].values[j], records[i].values[j]) << i << "," << j;
    }
  }
  EXPECT_TRUE((file.records[4].flags & trace::kFlagTruncated) != 0);
  for (size_t j = 0; j < 2; j++) {
    EXPECT_EQ(file.records[3].vars[j], records[3].vars[j]);
  }

  EXPECT_EQ(file.summary.dropped, summary.dropped);
  for (const trace::StatsField& field : trace::kStatsFields) {
    EXPECT_EQ(file.summary.stats.*field.field, summary.stats.*field.field) << field.name;
  }
  ASSERT_EQ(file.summary.violations.size(), summary.violations.size());
  EXPECT_EQ(file.summary.violations[0], summary.violations[0]);
  EXPECT_EQ(file.summary.violations[1], summary.violations[1]);
  std::remove(path.c_str());
}

// End-to-end determinism through the kernel simulator: a buggy run is
// captured, then replayed into a fresh Runtime, and the replay must
// reproduce the stats and the violation sequence event for event.
TEST(TraceReplay, KernelsimCaptureRoundTrips) {
  SetLogLevel(LogLevel::kSilent);
  const std::string path = TempPath("tesla_kernelsim_roundtrip.trace");
  Runtime rt(TestOptions(trace::TraceMode::kFullCapture));
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());

  kernelsim::KernelConfig config;
  config.tesla = &rt;
  config.bugs.kqueue_missing_mac_check = true;
  config.bugs.poll_uses_file_credential = true;
  config.bugs.setuid_skips_sugid_flag = true;
  kernelsim::Kernel kernel(config);
  kernelsim::Proc* proc = kernel.NewProcess(0);
  kernelsim::KThread td = kernel.NewThread(proc);

  kernelsim::OpenCloseLoop(kernel, td, 20);
  int64_t sock = kernel.SysSocket(td);
  kernel.SysConnect(td, sock);
  kernel.SysPoll(td, sock, 1);
  kernel.SysKevent(td, sock, 1);  // bug 1
  kernel.SysSetuid(td, 0);
  kernel.SysPoll(td, sock, 1);    // bug 2
  kernel.SysSetuid(td, 5);        // bug 3

  ASSERT_GE(rt.stats().violations, 3u);
  ASSERT_TRUE(trace::WriteCapture(path, "kernelsim:all", rt).ok());

  auto replayed = trace::ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  const trace::ReplayResult& result = replayed.value();
  EXPECT_TRUE(result.matched) << result.divergence;
  EXPECT_EQ(result.events_replayed, rt.stats().events);
  for (const trace::StatsField& field : trace::kStatsFields) {
    EXPECT_EQ(result.stats.*field.field, rt.stats().*field.field) << field.name;
  }
  EXPECT_EQ(result.violations, rt.violation_log());
  std::remove(path.c_str());
}

TEST(TraceReplay, SslsimCaptureRoundTrips) {
  SetLogLevel(LogLevel::kSilent);
  const std::string path = TempPath("tesla_sslsim_roundtrip.trace");
  Runtime rt(TestOptions(trace::TraceMode::kFullCapture));
  auto manifest = sslsim::FetchAssertions();
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(rt.Register(manifest.value()).ok());
  ThreadContext ctx(rt);

  sslsim::SslInstrumentation instr{&rt, &ctx};
  sslsim::FetchClient client(instr, sslsim::SslConfig{});
  client.FetchDocument(sslsim::Server::Honest(0x5eed, "<html>ok</html>"));
  client.FetchDocument(sslsim::Server::Malicious(0x5eed, "<html>evil</html>"));

  ASSERT_GE(rt.stats().violations, 1u);
  ASSERT_TRUE(trace::WriteCapture(path, "sslsim:fetch", rt).ok());

  auto replayed = trace::ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  EXPECT_TRUE(replayed.value().matched) << replayed.value().divergence;
  EXPECT_EQ(replayed.value().violations, rt.violation_log());
  std::remove(path.c_str());
}

// The plan input beyond CaptureOptions — the plan hints — decides index
// probes against scans (the index key) and the pool size, so a hinted
// capture replays exactly only if it carries them.
TEST(TraceReplay, HintedCaptureRoundTrips) {
  SetLogLevel(LogLevel::kSilent);
  const std::string path = TempPath("tesla_hinted_roundtrip.trace");
  RuntimeOptions options = TestOptions(trace::TraceMode::kFullCapture);
  options.profile = true;
  options.plan_hints.classes.push_back({"hinted", 40, 0});
  RuntimeOptions unhinted_options = options;
  unhinted_options.trace_mode = trace::TraceMode::kOff;
  unhinted_options.plan_hints = {};
  Runtime rt(options);
  Runtime unhinted(unhinted_options);
  // "hinted" keys its index on x, so its x-only sites probe once its
  // population passes the gate; "plain" has no hint and keys on x anyway.
  automata::Manifest manifest;
  for (const auto& [name, source] :
       {std::pair{"hinted", "TESLA_WITHIN(syscall, previously(pair(x, y) == 0))"},
        std::pair{"plain", "TESLA_WITHIN(syscall, previously(check(x) == 0))"}}) {
    auto automaton = CompileAssertion(source, {}, name);
    ASSERT_TRUE(automaton.ok());
    manifest.Add(std::move(automaton.value()));
  }
  ASSERT_TRUE(rt.Register(manifest).ok());
  ASSERT_TRUE(unhinted.Register(manifest).ok());
  const uint32_t id = static_cast<uint32_t>(rt.FindAutomaton("hinted"));
  const uint32_t plain = static_cast<uint32_t>(rt.FindAutomaton("plain"));

  // Clone events outweigh bound entry and exit 10:1, so bounds grow past
  // the index population gate.
  std::vector<Event> events;
  uint64_t rng = 12345;
  for (int round = 0; round < 800; round++) {
    rng = rng * 6364136223846793005ull + 1;
    const int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    const int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding partial[] = {{0, x}};
    const uint64_t roll = (rng >> 33) % 48;
    if (roll == 0) {
      events.push_back(Event::Call(S("syscall"), {}));
    } else if (roll < 21) {
      events.push_back(Event::Return(S("pair"), args, 0));
    } else if (roll < 27) {
      events.push_back(Event::Site(id, full));
    } else if (roll < 33) {
      events.push_back(Event::Site(id, partial));
    } else if (roll < 41) {
      events.push_back(Event::Return(S("check"), args, 0));
    } else if (roll < 47) {
      events.push_back(Event::Site(plain, partial));
    } else {
      events.push_back(Event::Return(S("syscall"), {}, 0));
    }
  }
  ThreadContext ctx(rt);
  ThreadContext unhinted_ctx(unhinted);
  for (const Event& event : events) {
    rt.OnEvent(ctx, event);
    unhinted.OnEvent(unhinted_ctx, event);
  }
  // The hint moved x-only sites from scans to probes.
  ASSERT_GT(rt.stats().index_probes, unhinted.stats().index_probes);
  ASSERT_TRUE(trace::WriteCapture(path, "test:hinted", rt).ok());

  auto read = trace::TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  ASSERT_EQ(read.value().plan_hints.classes.size(), 1u);
  EXPECT_EQ(read.value().plan_hints.classes[0].capacity, 40u);
  EXPECT_EQ(read.value().plan_hints.classes[0].prefix_key_pos, 0);

  auto replayed = trace::ReplayFile(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().ToString();
  EXPECT_TRUE(replayed.value().matched) << replayed.value().divergence;
  EXPECT_EQ(replayed.value().stats.index_probes, rt.stats().index_probes);
  std::remove(path.c_str());
}

// A schedule with clean and violating passes over a global automaton, as a
// flat event vector both entry points can consume.
std::vector<Event> GlobalSchedule(uint32_t id) {
  std::vector<Event> events;
  int64_t ok_arg[] = {0};
  Binding site[] = {{0, 0}};
  for (int round = 0; round < 50; round++) {
    events.push_back(Event::Call(S("syscall"), {}));
    if (round % 5 != 4) {  // every fifth bound omits the check: a violation
      events.push_back(Event::Return(S("check"), ok_arg, 0));
    }
    events.push_back(Event::Site(id, site));
    events.push_back(Event::Return(S("syscall"), {}, 0));
  }
  return events;
}

// OnEvents must be semantically identical to per-event OnEvent, including
// for global automata where the batch path holds every shard lock for the
// whole batch (and per-event acquisitions are elided).
TEST(BatchIngestion, OnEventsMatchesOnEventForGlobalAutomata) {
  constexpr const char* kSource =
      "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))";
  auto make = [&](Runtime& rt) {
    auto automaton = CompileAssertion(kSource, {}, "batch");
    ASSERT_TRUE(automaton.ok());
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    ASSERT_TRUE(rt.Register(manifest).ok());
  };
  Runtime single_rt(TestOptions());
  Runtime batch_rt(TestOptions());
  make(single_rt);
  make(batch_rt);

  std::vector<Event> events = GlobalSchedule(0);
  {
    ThreadContext ctx(single_rt);
    for (const Event& event : events) {
      single_rt.OnEvent(ctx, event);
    }
  }
  {
    ThreadContext ctx(batch_rt);
    batch_rt.OnEvents(ctx, events);
  }

  EXPECT_EQ(single_rt.stats().violations, 10u);
  for (const trace::StatsField& field : trace::kStatsFields) {
    EXPECT_EQ(batch_rt.stats().*field.field, single_rt.stats().*field.field) << field.name;
  }
}

// A violation mid-batch triggers forensics (a recorder harvest) while the
// dispatching thread holds every shard lock; the capture locks nest strictly
// inside the shard locks, so this must complete and attach a backtrace.
TEST(BatchIngestion, ForensicsDuringBatchDoesNotDeadlock) {
  constexpr const char* kSource =
      "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))";
  Runtime rt(TestOptions(trace::TraceMode::kFlightRecorder));
  auto automaton = CompileAssertion(kSource, {}, "batch");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  runtime::CountingHandler violations;
  rt.AddHandler(&violations);

  ThreadContext ctx(rt);
  rt.OnEvents(ctx, GlobalSchedule(0));
  ASSERT_EQ(rt.stats().violations, 10u);
  for (const runtime::Violation& violation : violations.violations()) {
    EXPECT_FALSE(violation.backtrace.empty());
  }
}

// Records stats().events at every violation report.
class EventsAtViolation : public runtime::EventHandler {
 public:
  explicit EventsAtViolation(const Runtime& rt) : rt_(rt) {}
  void OnViolation(const runtime::ClassInfo& cls, const runtime::Violation& violation) override {
    seen.push_back(rt_.stats().events);
  }
  std::vector<uint64_t> seen;

 private:
  const Runtime& rt_;
};

// A violation handler reading stats() mid-batch must see what it would see
// under OnEvent: the events up to and including the violating one, not the
// whole batch counted up front. Three bounds of three events, each with a
// violating site (no check before it), so the reports land on events 2, 5
// and 8 — for a per-thread and a global class, with the flight recorder off
// and on.
TEST(BatchIngestion, ViolationHandlerSeesPerEventCounts) {
  for (const char* source :
       {"TESLA_WITHIN(syscall, previously(check(x) == 0))",
        "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))"}) {
    for (trace::TraceMode mode : {trace::TraceMode::kOff, trace::TraceMode::kFlightRecorder}) {
      SCOPED_TRACE(std::string(source) + (mode == trace::TraceMode::kOff ? "" : " (recorder)"));
      std::vector<Event> events;
      Binding site[] = {{0, 0}};
      for (int round = 0; round < 3; round++) {
        events.push_back(Event::Call(S("syscall"), {}));
        events.push_back(Event::Site(0, site));
        events.push_back(Event::Return(S("syscall"), {}, 0));
      }
      auto run = [&](bool batch) {
        Runtime rt(TestOptions(mode));
        auto automaton = CompileAssertion(source, {}, "counted");
        EXPECT_TRUE(automaton.ok());
        automata::Manifest manifest;
        manifest.Add(std::move(automaton.value()));
        EXPECT_TRUE(rt.Register(manifest).ok());
        EventsAtViolation handler(rt);
        rt.AddHandler(&handler);
        ThreadContext ctx(rt);
        if (batch) {
          rt.OnEvents(ctx, events);
        } else {
          for (const Event& event : events) {
            rt.OnEvent(ctx, event);
          }
        }
        return handler.seen;
      };
      const std::vector<uint64_t> expected = {2, 5, 8};
      EXPECT_EQ(run(false), expected);
      EXPECT_EQ(run(true), expected);
    }
  }
}

// More satisfied incallstack() site variants than the (formerly fixed,
// 17-slot) site-symbol buffer holds: the growable buffer must keep every
// variant, so the schema-preserved truncation counter stays zero and no
// satisfied predicate is lost. A TSEQUENCE of 20 incallstack() elements
// needs all 20 variants offered — with the old buffer, elements past 17
// were dropped and the sequence could never complete.
TEST(SiteVariants, ManySatisfiedIncallstackVariantsAreNeverDropped) {
  constexpr int kVariants = 20;
  std::string source = "TESLA_WITHIN(syscall, TSEQUENCE(";
  for (int i = 0; i < kVariants; i++) {
    source += std::string(i == 0 ? "" : ", ") + "incallstack(frame" + std::to_string(i) + ")";
  }
  source += "))";

  Runtime rt(TestOptions());
  auto automaton = CompileAssertion(source, {}, "variants");
  ASSERT_TRUE(automaton.ok()) << automaton.error().ToString();
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());

  ThreadContext ctx(rt);
  for (int i = 0; i < kVariants; i++) {
    rt.OnFunctionCall(ctx, S(("frame" + std::to_string(i)).c_str()), {});
  }
  rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int i = 0; i < kVariants; i++) {
    rt.OnAssertionSite(ctx, 0, {});  // each visit steps one sequence element
  }
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  EXPECT_EQ(rt.stats().violations, 0u);
  EXPECT_GE(rt.stats().accepts, 1u);
}

TEST(Forensics, DescribeFilterAndRender) {
  trace::Recorder recorder({trace::TraceMode::kFlightRecorder, 64, 1 << 10});
  trace::ContextLog* log = recorder.RegisterContext();
  int64_t args[] = {42};
  recorder.Record(*log, Event::Call(S("relevant_fn"), args));
  recorder.Record(*log, Event::Call(S("unrelated_fn"), {}));
  Binding site[] = {{0, 42}};
  recorder.Record(*log, Event::Site(3, site));
  recorder.Record(*log, Event::Site(9, site));  // a different class's site
  trace::Snapshot snapshot = recorder.Harvest();
  ASSERT_EQ(snapshot.records.size(), 4u);

  trace::SymbolResolver resolve = trace::InternerResolver();
  EXPECT_NE(trace::DescribeRecord(snapshot.records[0], resolve).find("relevant_fn"),
            std::string::npos);

  const uint32_t symbols[] = {S("relevant_fn")};
  std::vector<TraceRecord> relevant =
      trace::FilterRelevant(snapshot.records, /*class_id=*/3, symbols, /*max_events=*/16);
  ASSERT_EQ(relevant.size(), 2u);  // the relevant call and class 3's site only
  EXPECT_EQ(relevant[0].seq, 0u);
  EXPECT_EQ(relevant[1].seq, 2u);

  auto automaton = CompileAssertion(
      "TESLA_WITHIN(syscall, previously(relevant_fn(x) == 0))", {}, "forensics");
  ASSERT_TRUE(automaton.ok());
  std::string backtrace = trace::RenderBacktrace(snapshot, automaton.value(), 3, symbols,
                                                 /*max_events=*/16, resolve);
  EXPECT_NE(backtrace.find("relevant_fn"), std::string::npos);
  EXPECT_NE(backtrace.find("2 relevant"), std::string::npos);
}

TEST(Forensics, ViolationCarriesBacktraceAndHighlightedDot) {
  SetLogLevel(LogLevel::kSilent);
  Runtime rt(TestOptions(trace::TraceMode::kFlightRecorder));
  auto automaton = CompileAssertion(
      "TESLA_WITHIN(syscall, previously(audit(x) == 0))", {}, "forensic-violation");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  runtime::CountingHandler handler;
  rt.AddHandler(&handler);

  ThreadContext ctx(rt);
  rt.OnFunctionCall(ctx, S("syscall"), {});
  rt.OnAssertionSite(ctx, 0, {});  // no audit() happened: a violation

  ASSERT_EQ(handler.violations().size(), 1u);
  const std::string& backtrace = handler.violations()[0].backtrace;
  EXPECT_NE(backtrace.find("syscall"), std::string::npos);   // the relevant tail
  EXPECT_NE(backtrace.find("digraph"), std::string::npos);   // the DOT graph
  EXPECT_NE(backtrace.find("fillcolor"), std::string::npos); // live-state highlight
}

}  // namespace
}  // namespace tesla

// tesla::ipc coverage: the event ring and its record format over heap and
// mapped storage, hostile lane images and segment options, the
// publisher/subscriber attach protocol, lane assignment and overflow
// accounting, producer-death salvage, and — the load-bearing property — a
// sidecar drain reaching verdicts, counters and transition coverage
// identical to inline dispatch.
// CI runs this binary under TSan: the cross-process protocol is exercised
// cross-thread here, which checks the same atomics.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "ipc/publisher.h"
#include "ipc/shm.h"
#include "ipc/subscriber.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "metrics/snapshot.h"
#include "profile/hints.h"
#include "queue/ring.h"
#include "runtime/handler.h"
#include "runtime/runtime.h"
#include "support/log.h"
#include "trace/format.h"
#include "trace/wire.h"

namespace tesla {
namespace {

using ipc::PublisherOptions;
using ipc::ShmPublisher;
using ipc::ShmSegment;
using ipc::ShmState;
using ipc::ShmSubscriber;
using runtime::Binding;
using runtime::Event;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;

Symbol S(const char* name) { return InternString(name); }

// Segment names are process-unique: a crashed earlier run's leftover name
// would make Create() fail with EEXIST.
std::string ShmName(const char* tag) {
  return std::string("tesla_test_") + tag + "_" + std::to_string(::getpid());
}

RuntimeOptions TestOptions() {
  RuntimeOptions options;
  options.fail_stop = false;
  return options;
}

bool EventsEqual(const Event& a, const Event& b) {
  if (a.kind != b.kind || a.count != b.count || a.truncated != b.truncated ||
      a.target != b.target || a.return_value != b.return_value) {
    return false;
  }
  for (size_t i = 0; i < a.count; i++) {
    if (a.values[i] != b.values[i] || a.vars[i] != b.vars[i]) {
      return false;
    }
  }
  return true;
}

// One ring over either storage: heap words the ring owns (the queue's
// producer and forward rings) or a lane mapped from a fresh segment (the
// publisher's and subscriber's views, two rings sharing one control block).
class RingStorage {
 public:
  RingStorage(bool mapped, size_t words) {
    if (!mapped) {
      heap_ = std::make_unique<queue::EventRing>(words);
      return;
    }
    name_ = ShmName("ring");
    ShmSegment::Geometry geometry;
    geometry.lane_count = 1;
    geometry.lane_words = words;
    auto created = ShmSegment::Create(name_, geometry);
    EXPECT_TRUE(created.ok()) << created.error().ToString();
    segment_ = std::move(created.value());
    producer_ = std::make_unique<queue::EventRing>(segment_->lane(0));
    consumer_ = std::make_unique<queue::EventRing>(segment_->lane(0));
  }
  ~RingStorage() {
    if (segment_ != nullptr) {
      ShmSegment::Unlink(name_);
    }
  }

  queue::EventRing& producer() { return heap_ != nullptr ? *heap_ : *producer_; }
  queue::EventRing& consumer() { return heap_ != nullptr ? *heap_ : *consumer_; }

 private:
  std::string name_;
  std::unique_ptr<ShmSegment> segment_;
  std::unique_ptr<queue::EventRing> heap_, producer_, consumer_;
};

bool Push(queue::EventRing& ring, const Event& event) {
  const queue::EncodedEvent record = queue::EncodeEvent(event);
  return ring.TryPush(record.words, [&record](auto&& put) { record.Write(put); });
}

size_t Pop(queue::EventRing& ring, std::vector<Event>& out, size_t max,
           uint64_t slip_words = 0) {
  return ring.Pop(
      max,
      [&out](queue::RingWindow& window) {
        Event event;
        if (!queue::DecodeEvent(window, &event)) {
          return false;
        }
        out.push_back(event);
        return true;
      },
      slip_words);
}

// Every published word, read through the consumer side as raw words.
std::vector<uint64_t> RawWords(queue::EventRing& ring) {
  std::vector<uint64_t> words;
  ring.Pop(1, [&words](queue::RingWindow& window) {
    while (window.left() != 0) {
      words.push_back(window.Take());
    }
    return true;
  });
  return words;
}

class EventRingTest : public ::testing::TestWithParam<bool> {};

TEST_P(EventRingTest, PushPopRoundTripsAllEventShapes) {
  RingStorage storage(GetParam(), 256);
  std::vector<Event> pushed;
  pushed.push_back(Event::Call(S("shm_fn"), {}));
  int64_t args[] = {1, -2, 0x7fffffffffffffff, -4};
  pushed.push_back(Event::Call(S("shm_fn"), args));
  pushed.push_back(Event::Return(S("shm_fn"), args, -77));
  pushed.push_back(Event::Return(S("shm_fn"), {}, 0));  // return value zero
  pushed.push_back(Event::FieldStore(S("shm_field"), 10, -20, 30));
  Binding bindings[] = {{2, -9}, {0, 4}, {1, 0}};
  pushed.push_back(Event::Site(7, bindings));
  int64_t many[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};  // > kMaxEventArgs: truncated
  pushed.push_back(Event::Call(S("shm_fn"), many));
  int64_t full[] = {11, 12, 13, 14, 15, 16, 17, 18};  // exactly kMaxEventArgs
  pushed.push_back(Event::Return(S("shm_fn"), full, 99));

  for (const Event& event : pushed) {
    ASSERT_TRUE(Push(storage.producer(), event));
  }
  std::vector<Event> popped;
  EXPECT_EQ(Pop(storage.consumer(), popped, 100), pushed.size());
  ASSERT_EQ(popped.size(), pushed.size());
  for (size_t i = 0; i < pushed.size(); i++) {
    EXPECT_TRUE(EventsEqual(pushed[i], popped[i])) << "event " << i;
  }
  EXPECT_EQ(Pop(storage.consumer(), popped, 100), 0u);
  EXPECT_FALSE(storage.consumer().corrupt());
}

// The shm sidecar's slip: while the head keeps moving between pops, the
// consumer stays `slip` words behind the head's cache line; a pop that sees
// the same head as the previous one drains everything.
TEST_P(EventRingTest, SlipTrailsAMovingProducerThenDrains) {
  RingStorage storage(GetParam(), 1024);
  const uint64_t slip = 64;
  std::vector<Event> popped;
  size_t pushed = 0;
  auto push_calls = [&](int n) {
    for (int i = 0; i < n; i++, pushed++) {
      ASSERT_TRUE(Push(storage.producer(), Event::Call(S("shm_fn"), {})));  // one word
    }
  };
  push_calls(40);  // head 40: closer than the slip, and moving
  EXPECT_EQ(Pop(storage.consumer(), popped, 1000, slip), 0u);
  push_calls(100);  // head 140, line 136: records starting below 72 are due
  EXPECT_EQ(Pop(storage.consumer(), popped, 1000, slip), 72u);
  EXPECT_EQ(Pop(storage.consumer(), popped, 1000, slip), pushed - 72);  // head still
  EXPECT_EQ(Pop(storage.consumer(), popped, 1000, slip), 0u);
  ASSERT_EQ(popped.size(), pushed);
  EXPECT_FALSE(storage.consumer().corrupt());
}

TEST_P(EventRingTest, FullRingRejectsThenResumesAfterDrain) {
  // The segment rounds 8 up to 2 * kMaxRecordWords = 32 words; the heap
  // ring gets the same 32.
  RingStorage storage(GetParam(), GetParam() ? 8 : 32);
  ASSERT_EQ(storage.producer().capacity(), 32u);
  int64_t args[] = {1, 2, 3, 4, 5, 6, 7, 8};
  const Event fat = Event::Return(S("full_fn"), args, 1);
  size_t accepted = 0;
  while (Push(storage.producer(), fat)) {
    accepted++;
  }
  EXPECT_GE(accepted, 2u);
  EXPECT_FALSE(Push(storage.producer(), fat));

  std::vector<Event> out;
  EXPECT_EQ(Pop(storage.consumer(), out, 1), 1u);  // one record of headroom
  EXPECT_TRUE(Push(storage.producer(), fat));
  out.clear();
  while (Pop(storage.consumer(), out, 100) > 0) {  // a Pop sees the head as of its call
  }
  EXPECT_EQ(out.size(), accepted);
  for (const Event& event : out) {
    EXPECT_TRUE(EventsEqual(fat, event));
  }
}

// A worst-case record (every optional word present) written across the end
// of the word array must decode intact.
TEST_P(EventRingTest, WorstCaseRecordWrapsTheWordArray) {
  RingStorage storage(GetParam(), 32);
  ASSERT_EQ(storage.producer().capacity(), 32u);
  std::vector<Event> out;
  for (int i = 0; i < 25; i++) {  // one-word records: head ends at word 25
    ASSERT_TRUE(Push(storage.producer(), Event::Call(S("wrap_fn"), {})));
  }
  ASSERT_EQ(Pop(storage.consumer(), out, 100), 25u);

  int64_t args[] = {-1, 2, -3, 4, -5, 6, -7, 8};
  Event worst = Event::Return(S("wrap_fn"), args, -9);
  worst.truncated = true;
  worst.ts_ns = 123456789;
  for (uint16_t i = 0; i < 8; i++) {
    worst.vars[i] = static_cast<uint16_t>(0xfff0 + i);
  }
  ASSERT_EQ(queue::EncodeEvent(worst).words, queue::kMaxRecordWords);
  ASSERT_TRUE(Push(storage.producer(), worst));  // words 25..37 wrap at 32
  out.clear();
  ASSERT_EQ(Pop(storage.consumer(), out, 100), 1u);
  EXPECT_TRUE(EventsEqual(worst, out[0]));
  EXPECT_EQ(out[0].ts_ns, worst.ts_ns);
  EXPECT_FALSE(storage.consumer().corrupt());
}

// The record layout is a wire format (TSLASHM1 lanes): these words are what
// the encoder wrote before the queue and shm rings shared one codec.
TEST_P(EventRingTest, GoldenWords) {
  RingStorage storage(GetParam(), 64);
  int64_t two[] = {1, -2};
  int64_t one[] = {7};
  int64_t nine[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  Binding bindings[] = {{2, -9}, {0, 4}, {1, 0}};
  Event events[] = {Event::Call(0x1234, two), Event::Return(0x55, one, -77),
                    Event::FieldStore(0x66, 10, -20, 30), Event::Site(7, bindings),
                    Event::Call(0x77, nine)};
  events[4].ts_ns = 1000;
  for (const Event& event : events) {
    ASSERT_TRUE(Push(storage.producer(), event));
  }
  const std::vector<uint64_t> golden = {
      0x0000123400000200, 0x0000000000000001, 0xfffffffffffffffe,  // call
      0x0000005500020101, 0x0000000000000007, 0xffffffffffffffb3,  // return
      0x0000006600000302, 0x000000000000000a, 0xffffffffffffffec,  // field store
      0x000000000000001e,
      0x0000000700040303, 0xfffffffffffffff7, 0x0000000000000004,  // site
      0x0000000000000000, 0x0000000100000002,
      0x0000007700090800, 0x00000000000003e8, 0x0000000000000001,  // truncated,
      0x0000000000000002, 0x0000000000000003, 0x0000000000000004,  // stamped call
      0x0000000000000005, 0x0000000000000006, 0x0000000000000007,
      0x0000000000000008,
  };
  EXPECT_EQ(RawWords(storage.consumer()), golden);
}

INSTANTIATE_TEST_SUITE_P(Storage, EventRingTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mapped" : "Heap";
                         });

// A segment with a valid (empty) symbol table and `lanes` lanes of 32
// words, as a hostile or crashed publisher could leave it.
// `plan` is the plan region's bytes; by default a default trace::Plan's.
std::unique_ptr<ShmSegment> HandBuiltSegment(const std::string& name, uint32_t lanes,
                                             std::vector<uint8_t> plan = trace::Plan().Encode()) {
  ShmSegment::Geometry geometry;
  geometry.lane_count = lanes;
  geometry.lane_words = 32;
  geometry.symtab_bytes = 1;  // varint 0: no symbols
  geometry.plan_bytes = plan.size();
  auto created = ShmSegment::Create(name, geometry);
  EXPECT_TRUE(created.ok()) << created.error().ToString();
  std::memcpy(created.value()->plan(), plan.data(), plan.size());
  return std::move(created.value());
}

void PushWords(ShmSegment& segment, uint32_t lane, std::vector<uint64_t> words) {
  queue::EventRing ring = segment.lane(lane);
  ASSERT_TRUE(ring.TryPush(words.size(), [&words](auto&& put) {
    for (uint64_t word : words) {
      put(word);
    }
  }));
}

constexpr uint64_t kTarget = uint64_t{5} << 32;

// Lane images no honest publisher writes. Each must latch the lane corrupt
// without a decoded event ever carrying more than kMaxEventArgs values, and
// a drain must end and report it.
struct HostileLane {
  const char* name;
  void (*build)(ShmSegment& segment);
};

const HostileLane kHostileLanes[] = {
    {"count 9",
     [](ShmSegment& segment) {
       PushWords(segment, 0, {kTarget | (9 << 8), 1, 2, 3, 4, 5, 6, 7, 8, 9});
     }},
    {"count 255",
     [](ShmSegment& segment) {
       PushWords(segment, 0, {kTarget | (255 << 8), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
     }},
    {"kind past kAssertionSite",
     [](ShmSegment& segment) { PushWords(segment, 0, {kTarget | 4}); }},
    {"unknown header bit",
     [](ShmSegment& segment) { PushWords(segment, 0, {kTarget | (uint64_t{1} << 20)}); }},
    {"record straddles the head",
     [](ShmSegment& segment) {
       PushWords(segment, 0, {kTarget | (3 << 8), 1});  // claims 3 values, has 1
     }},
    {"head behind the tail",
     [](ShmSegment& segment) {
       PushWords(segment, 0, {kTarget, kTarget});  // two honest calls...
       queue::EventRing reader = segment.lane(0);
       std::vector<Event> drained;
       ASSERT_EQ(Pop(reader, drained, 10), 2u);  // ...consumed: tail = 2
       segment.lane_control(0)->head.store(1, std::memory_order_release);
     }},
    {"head more than the capacity past the tail",
     [](ShmSegment& segment) {
       segment.lane_control(0)->head.store(33, std::memory_order_release);
     }},
};

TEST(HostileLane, LatchesCorruptAndDrainEnds) {
  Runtime rt(TestOptions());
  automata::Manifest empty;
  ASSERT_TRUE(rt.Register(empty).ok());
  for (const HostileLane& hostile : kHostileLanes) {
    SCOPED_TRACE(hostile.name);
    const std::string name = ShmName("hostile");
    std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 1);
    hostile.build(*segment);
    // Live, from a publisher whose pid is unknown (0): only the decoder can
    // end a drain of this lane.
    segment->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                  std::memory_order_release);

    auto attached = ShmSubscriber::Attach(name, 100);
    ASSERT_TRUE(attached.ok()) << attached.error().ToString();
    std::vector<Event> events;
    int polls = 0;
    while (attached.value()->PollLane(0, events, 256) != 0) {
      ASSERT_LT(++polls, 8) << "a corrupt lane keeps yielding events";
    }
    EXPECT_TRUE(attached.value()->LaneCorrupt(0));
    EXPECT_EQ(attached.value()->PollLane(0, events, 256), 0u);
    for (const Event& event : events) {
      EXPECT_LE(event.count, runtime::kMaxEventArgs);
    }

    auto drainer = ShmSubscriber::Attach(name, 100);
    ASSERT_TRUE(drainer.ok()) << drainer.error().ToString();
    const ipc::DrainReport report = DrainAll(*drainer.value(), rt);
    EXPECT_EQ(report.corrupt_lanes, 1u);
    EXPECT_FALSE(report.producer_died);
    ShmSegment::Unlink(name);
  }
}

// A live publisher's polls slip behind a head that moved since the last
// poll; a head behind the tail must latch the lane corrupt on that path too,
// even while it keeps moving.
TEST(HostileLane, MovingHeadBehindTheTailLatches) {
  const std::string name = ShmName("hostile_moving");
  std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 1);
  PushWords(*segment, 0, {kTarget, kTarget, kTarget, kTarget});
  segment->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                std::memory_order_release);
  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_TRUE(attached.ok()) << attached.error().ToString();
  std::vector<Event> events;
  ASSERT_EQ(attached.value()->PollLane(0, events, 256), 4u);  // tail 4
  for (uint64_t head : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    segment->lane_control(0)->head.store(head, std::memory_order_release);
    EXPECT_EQ(attached.value()->PollLane(0, events, 256), 0u);
    EXPECT_TRUE(attached.value()->LaneCorrupt(0)) << "head " << head;
  }
  ShmSegment::Unlink(name);
}

// A corrupt lane does not stop the drain of its healthy neighbours.
TEST(HostileLane, HealthyLanesStillDrain) {
  const std::string name = ShmName("hostile_mixed");
  std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 2);
  PushWords(*segment, 0, {kTarget | 4});  // corrupt
  PushWords(*segment, 1, {kTarget, kTarget | (1 << 8), 42});  // two honest calls
  segment->header().state.store(static_cast<uint32_t>(ShmState::kClosed),
                                std::memory_order_release);
  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_TRUE(attached.ok()) << attached.error().ToString();
  Runtime rt(TestOptions());
  automata::Manifest empty;
  ASSERT_TRUE(rt.Register(empty).ok());
  const ipc::DrainReport report = DrainAll(*attached.value(), rt);
  EXPECT_EQ(report.corrupt_lanes, 1u);
  EXPECT_EQ(report.events, 2u);
  ShmSegment::Unlink(name);
}

// Plan hints that do not parse make the plan region corrupt: the subscriber
// reports a coded error, and `tesla-trace attach` exits 1 instead of
// checking the stream under a plan the publisher never ran.
TEST(HostileLane, UnparseableHintsRejected) {
  // The hints are the plan encoding's last field: swap the default plan's
  // hints text for text that does not parse.
  std::vector<uint8_t> plan = trace::Plan().Encode();
  std::vector<uint8_t> no_hints;
  trace::PutString(no_hints, profile::HintsToText(profile::PlanHints{}));
  ASSERT_TRUE(std::equal(no_hints.rbegin(), no_hints.rend(), plan.rbegin()));
  plan.resize(plan.size() - no_hints.size());
  trace::PutString(plan, "class 99:short capacity=oops\n");
  const std::string name = ShmName("hostile_hints");
  std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 1, plan);
  segment->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                std::memory_order_release);

  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error().code, trace::kErrCorrupt) << attached.error().ToString();
  EXPECT_NE(attached.error().message.find("plan"), std::string::npos)
      << attached.error().ToString();

  const std::string command =
      std::string(TESLA_TRACE_BIN) + " attach " + name + " --timeout-ms 100 2>/dev/null";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 1) << command;
  ShmSegment::Unlink(name);
}

// A plan size that wraps the layout's offset sum to zero must not pass
// validation, which would place the lane controls over the header.
TEST(HostileLane, WrappingPlanSizeRejected) {
  const std::string name = ShmName("hostile_geometry");
  std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 1);
  const uint64_t plan_offset = static_cast<uint64_t>(
      segment->plan() - reinterpret_cast<const uint8_t*>(&segment->header()));
  segment->header().plan_bytes = uint64_t{0} - plan_offset;
  segment->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                std::memory_order_release);
  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error().code, trace::kErrCorrupt) << attached.error().ToString();
  ShmSegment::Unlink(name);
}

// The segment's options go through the capture's plan codec: an unknown flag
// bit or a pool past the runtime's ceiling is corrupt, not a huge
// allocation.
TEST(HostileLane, OutOfRangeOptionsRejected) {
  struct Case {
    const char* name;
    uint8_t flags;
    uint64_t instances_per_context;
    int code;
  };
  const Case cases[] = {
      {"ceiling", 5, runtime::kMaxInstancesPerContext, trace::kErrNone},
      {"pool past the ceiling", 5, runtime::kMaxInstancesPerContext + 1, trace::kErrCorrupt},
      {"pool 2^40", 5, uint64_t{1} << 40, trace::kErrCorrupt},
      {"unknown flag bit", 8, 256, trace::kErrCorrupt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    trace::Plan options_plan;
    options_plan.options.instances_per_context = c.instances_per_context;
    std::vector<uint8_t> plan = options_plan.Encode();
    ASSERT_EQ(plan[0], 0u);  // the empty origin; the flags byte follows
    plan[1] = c.flags;
    const std::string name = ShmName("hostile_options");
    std::unique_ptr<ShmSegment> segment = HandBuiltSegment(name, 1, plan);
    segment->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                  std::memory_order_release);
    auto attached = ShmSubscriber::Attach(name, 100);
    if (c.code == trace::kErrNone) {
      ASSERT_TRUE(attached.ok()) << attached.error().ToString();
      EXPECT_EQ(attached.value()->PublisherRuntimeOptions().instances_per_context,
                c.instances_per_context);
    } else {
      ASSERT_FALSE(attached.ok());
      EXPECT_EQ(attached.error().code, c.code) << attached.error().ToString();
    }
    ShmSegment::Unlink(name);
  }
}

// The acceptance property of the whole transport: an uninstrumented sidecar
// draining the shm stream must reach exactly the verdicts, per-class
// counters and transition coverage of inline dispatch over the same
// (deterministic) kernel workload.
TEST(Sidecar, DrainMatchesInlineDispatchExactly) {
  SetLogLevel(LogLevel::kSilent);

  auto drive = [](Runtime& rt) {
    kernelsim::KernelConfig config;
    config.tesla = &rt;
    config.bugs.kqueue_missing_mac_check = true;
    config.bugs.poll_uses_file_credential = true;
    config.bugs.setuid_skips_sugid_flag = true;
    kernelsim::Kernel kernel(config);
    kernelsim::Proc* proc = kernel.NewProcess(0);
    kernelsim::KThread td = kernel.NewThread(proc);
    kernelsim::OpenCloseLoop(kernel, td, 40);
    int64_t sock = kernel.SysSocket(td);
    kernel.SysConnect(td, sock);
    kernel.SysPoll(td, sock, 1);
    kernel.SysKevent(td, sock, 1);  // bug 1
    kernel.SysSetuid(td, 0);
    kernel.SysPoll(td, sock, 1);  // bug 2
    kernel.SysSetuid(td, 5);      // bug 3
  };

  // Inline reference run.
  RuntimeOptions inline_options = TestOptions();
  inline_options.metrics_mode = metrics::MetricsMode::kCounters;
  Runtime inline_rt(inline_options);
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(inline_rt.Register(manifest.value()).ok());
  runtime::CountingHandler inline_violations;
  inline_rt.AddHandler(&inline_violations);
  drive(inline_rt);
  ASSERT_GE(inline_rt.stats().violations, 3u);

  // Published run: same workload, every event shipped through the segment.
  Runtime publisher_rt(TestOptions());
  auto publisher_manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(publisher_manifest.ok());
  ASSERT_TRUE(publisher_rt.Register(publisher_manifest.value()).ok());
  const std::string name = ShmName("differential");
  PublisherOptions publisher_options;
  publisher_options.lanes = 2;
  ShmPublisher publisher(publisher_rt, name, publisher_options);
  ASSERT_TRUE(publisher.Start("kernelsim:all").ok());

  auto attached = ShmSubscriber::Attach(name, /*timeout_ms=*/2000);
  ASSERT_TRUE(attached.ok()) << attached.error().ToString();
  ShmSubscriber& subscriber = *attached.value();
  EXPECT_EQ(subscriber.info().origin, "kernelsim:all");
  EXPECT_FALSE(subscriber.info().manifest_text.empty());
  EXPECT_EQ(subscriber.info().producer_pid, ::getpid());

  subscriber.InternSymbols();  // before the sidecar's Register()
  RuntimeOptions sidecar_options = subscriber.PublisherRuntimeOptions();
  sidecar_options.fail_stop = false;
  sidecar_options.metrics_mode = metrics::MetricsMode::kCounters;
  Runtime sidecar_rt(sidecar_options);
  auto sidecar_manifest = automata::Manifest::Deserialize(subscriber.info().manifest_text);
  ASSERT_TRUE(sidecar_manifest.ok()) << sidecar_manifest.error().ToString();
  ASSERT_TRUE(sidecar_rt.Register(sidecar_manifest.value()).ok());
  runtime::CountingHandler sidecar_violations;
  sidecar_rt.AddHandler(&sidecar_violations);

  ipc::DrainReport report;
  std::thread sidecar([&] { report = DrainAll(subscriber, sidecar_rt); });
  drive(publisher_rt);
  publisher.Stop();  // waits for the (already attached) consumer, then closes
  sidecar.join();

  // Nothing dispatched in the publisher process, nothing lost in transit.
  EXPECT_EQ(publisher_rt.stats().events, 0u);
  EXPECT_EQ(report.producer_dropped, 0u);
  EXPECT_EQ(report.lane_overflow, 0u);
  EXPECT_FALSE(report.producer_died);
  EXPECT_EQ(report.events, publisher.stats().published);
  EXPECT_EQ(subscriber.unknown_symbols(), 0u);

  // Verdicts: same violation sequence (one lane ⇒ publisher-thread order).
  ASSERT_EQ(sidecar_violations.violations().size(), inline_violations.violations().size());
  for (size_t i = 0; i < inline_violations.violations().size(); i++) {
    EXPECT_EQ(sidecar_violations.violations()[i].kind,
              inline_violations.violations()[i].kind);
    EXPECT_EQ(sidecar_violations.violations()[i].automaton,
              inline_violations.violations()[i].automaton);
  }

  // Semantic stats: identical except the transport accounting the sidecar
  // folds into the queue_* counters.
  for (const trace::StatsField& field : trace::kStatsFields) {
    if (std::strncmp(field.name, "queue_", 6) == 0) {
      continue;
    }
    EXPECT_EQ(sidecar_rt.stats().*field.field, inline_rt.stats().*field.field)
        << field.name;
  }
  EXPECT_EQ(sidecar_rt.stats().queue_events, inline_rt.stats().events);

  // Per-class counters and transition coverage (histograms are wall-clock
  // and not comparable).
  const metrics::Snapshot inline_metrics = inline_rt.CollectMetrics();
  const metrics::Snapshot sidecar_metrics = sidecar_rt.CollectMetrics();
  ASSERT_EQ(sidecar_metrics.classes.size(), inline_metrics.classes.size());
  for (size_t c = 0; c < inline_metrics.classes.size(); c++) {
    const metrics::ClassSnapshot& a = inline_metrics.classes[c];
    const metrics::ClassSnapshot& b = sidecar_metrics.classes[c];
    EXPECT_EQ(b.name, a.name);
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      EXPECT_EQ(b.counters[k], a.counters[k]) << a.name << " counter " << k;
    }
    ASSERT_EQ(b.transitions.size(), a.transitions.size()) << a.name;
    for (size_t t = 0; t < a.transitions.size(); t++) {
      EXPECT_EQ(b.transitions[t].fired, a.transitions[t].fired)
          << a.name << " transition " << t;
    }
  }
}

// The sidecar runs under the publisher's plan, not just its options: with
// plan hints that key "keyed"'s index on x, its x-only sites probe once its
// population passes the gate, and the sidecar must take the same routes
// (index_probes / index_scans) as an inline run under the publisher's
// options. Without the hints those sites would scan.
TEST(Sidecar, RunsUnderThePublishersPlan) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options = TestOptions();
  profile::ClassHint hint;
  hint.name = "keyed";
  hint.prefix_key_pos = 0;
  options.plan_hints.classes.push_back(hint);
  auto manifest = [] {
    automata::Manifest manifest;
    for (const auto& [source, name] :
         {std::pair{"TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", "keyed"},
          std::pair{"TESLA_WITHIN(syscall, previously(check(x) == 0))", "plain"}}) {
      auto automaton = automata::CompileAssertion(source, {}, name);
      EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
      manifest.Add(std::move(automaton.value()));
    }
    return manifest;
  };
  auto drive = [](Runtime& rt) {
    ThreadContext ctx(rt);
    const uint32_t keyed = static_cast<uint32_t>(rt.FindAutomaton("keyed"));
    const uint32_t plain = static_cast<uint32_t>(rt.FindAutomaton("plain"));
    // Clone events outweigh bound entry and exit 10:1, so bounds grow past
    // the index population gate.
    uint64_t rng = 99;
    for (int round = 0; round < 800; round++) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      const int64_t x = static_cast<int64_t>((rng >> 40) % 4);
      const int64_t y = static_cast<int64_t>((rng >> 48) % 4);
      int64_t pair_args[] = {x, y};
      int64_t one_arg[] = {x};
      Binding full[] = {{0, x}, {1, y}};
      Binding only_x[] = {{0, x}};
      const uint64_t roll = (rng >> 33) % 48;
      if (roll == 0) {
        rt.OnFunctionCall(ctx, S("syscall"), {});
      } else if (roll < 21) {
        rt.OnFunctionReturn(ctx, S("pair"), pair_args, 0);
      } else if (roll < 29) {
        rt.OnFunctionReturn(ctx, S("check"), one_arg, 0);
      } else if (roll < 35) {
        rt.OnAssertionSite(ctx, keyed, full);
      } else if (roll < 41) {
        rt.OnAssertionSite(ctx, keyed, only_x);  // probes only under the hint
      } else if (roll < 47) {
        rt.OnAssertionSite(ctx, plain, only_x);
      } else {
        rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);
      }
    }
  };

  Runtime inline_rt(options);
  ASSERT_TRUE(inline_rt.Register(manifest()).ok());
  drive(inline_rt);
  RuntimeOptions unhinted_options = options;
  unhinted_options.plan_hints = {};
  Runtime unhinted_rt(unhinted_options);
  ASSERT_TRUE(unhinted_rt.Register(manifest()).ok());
  drive(unhinted_rt);
  ASSERT_GT(inline_rt.stats().index_probes, unhinted_rt.stats().index_probes);

  Runtime publisher_rt(options);
  ASSERT_TRUE(publisher_rt.Register(manifest()).ok());
  const std::string name = ShmName("plan");
  ShmPublisher publisher(publisher_rt, name, PublisherOptions{});
  ASSERT_TRUE(publisher.Start("test:plan").ok());
  auto attached = ShmSubscriber::Attach(name, /*timeout_ms=*/2000);
  ASSERT_TRUE(attached.ok()) << attached.error().ToString();
  ShmSubscriber& subscriber = *attached.value();
  subscriber.InternSymbols();
  RuntimeOptions sidecar_options = subscriber.PublisherRuntimeOptions();
  EXPECT_EQ(profile::HintsToText(sidecar_options.plan_hints),
            profile::HintsToText(options.plan_hints));
  sidecar_options.fail_stop = false;
  Runtime sidecar_rt(sidecar_options);
  auto sidecar_manifest = automata::Manifest::Deserialize(subscriber.info().manifest_text);
  ASSERT_TRUE(sidecar_manifest.ok()) << sidecar_manifest.error().ToString();
  ASSERT_TRUE(sidecar_rt.Register(sidecar_manifest.value()).ok());

  ipc::DrainReport report;
  std::thread sidecar([&] { report = DrainAll(subscriber, sidecar_rt); });
  drive(publisher_rt);
  publisher.Stop();
  sidecar.join();
  EXPECT_EQ(report.events, inline_rt.stats().events);

  for (const trace::StatsField& field : trace::kStatsFields) {
    if (std::strncmp(field.name, "queue_", 6) == 0) {
      continue;
    }
    EXPECT_EQ(sidecar_rt.stats().*field.field, inline_rt.stats().*field.field)
        << field.name;
  }
  EXPECT_EQ(sidecar_rt.stats().index_probes, inline_rt.stats().index_probes);
}

// Each producer thread gets its own lane; a thread past the lane count
// cannot publish and is counted, never blocked.
TEST(Publisher, LaneAssignmentAndOverflowAccounting) {
  Runtime rt(TestOptions());  // no manifest: lane mechanics only
  const std::string name = ShmName("lanes");
  PublisherOptions options;
  options.lanes = 2;
  options.install_hook = false;
  options.wait_for_consumer = false;
  ShmPublisher publisher(rt, name, options);
  ASSERT_TRUE(publisher.Start("test:lanes").ok());

  constexpr int kThreads = 4;  // two get lanes, two overflow
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&publisher, t] {
      int64_t args[] = {t};
      const Event event = Event::Call(S("lane_fn"), args);
      for (int i = 0; i < kPerThread; i++) {
        publisher.Publish(event);  // counters checked after joining
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const ipc::PublisherStats stats = publisher.stats();
  EXPECT_EQ(stats.published + stats.lane_overflow,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.published, uint64_t{2} * kPerThread);
  EXPECT_EQ(stats.lane_overflow, uint64_t{2} * kPerThread);
  EXPECT_EQ(publisher.segment_for_test()->header().lanes_allocated.load(), 4u);

  // Drain raw: per-lane counts must each be one thread's share.
  auto attached = ShmSubscriber::Attach(name, 1000);
  ASSERT_TRUE(attached.ok());
  publisher.Stop();
  for (uint32_t lane = 0; lane < 2; lane++) {
    std::vector<Event> events;
    while (attached.value()->PollLane(lane, events, 64) > 0) {
    }
    EXPECT_EQ(events.size(), static_cast<size_t>(kPerThread)) << "lane " << lane;
  }
  EXPECT_TRUE(attached.value()->closed());
}

TEST(Publisher, DropOnFullCountsInsteadOfBlocking) {
  Runtime rt(TestOptions());
  const std::string name = ShmName("drop");
  PublisherOptions options;
  options.lanes = 1;
  options.lane_capacity_events = 16;  // the floor Start() clamps to
  options.drop_on_full = true;
  options.install_hook = false;
  options.wait_for_consumer = false;
  ShmPublisher publisher(rt, name, options);
  ASSERT_TRUE(publisher.Start("test:drop").ok());

  const Event event = Event::Call(S("drop_fn"), {});
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(publisher.Publish(event));  // never blocks, never fails
  }
  const ipc::PublisherStats stats = publisher.stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.published, 0u);
  EXPECT_EQ(stats.published + stats.dropped, 10000u);
  publisher.Stop();
}

// The publisher process vanishing without kClosed: the drain loop must
// detect the death, salvage what the lanes hold, and report it.
TEST(Subscriber, ProducerDeathSalvagesLanes) {
  // Published before the sidecar attaches, the records count as settled;
  // published after, they sit within the live publisher's slip
  // (ShmSubscriber::kSlipWords) when the drain starts and must still all be
  // salvaged once the death is seen.
  constexpr int kEvents = 25;  // 50 words
  static_assert(2 * kEvents < ShmSubscriber::kSlipWords);
  for (const bool after_attach : {false, true}) {
    SCOPED_TRACE(after_attach ? "published after attach" : "published before attach");
    Runtime rt(TestOptions());
    const std::string name = ShmName("death");
    PublisherOptions options;
    options.lanes = 1;
    options.install_hook = false;
    options.wait_for_consumer = false;
    auto publisher = std::make_unique<ShmPublisher>(rt, name, options);
    ASSERT_TRUE(publisher->Start("test:death").ok());
    auto publish = [&publisher] {
      for (int i = 0; i < kEvents; i++) {
        int64_t args[] = {i};
        ASSERT_TRUE(publisher->Publish(Event::Call(S("death_fn"), args)));
      }
    };
    if (!after_attach) {
      publish();
    }
    auto attached = ShmSubscriber::Attach(name, 1000);
    ASSERT_TRUE(attached.ok()) << attached.error().ToString();
    ShmSubscriber& subscriber = *attached.value();
    if (after_attach) {
      publish();
    }

    // A child that has already exited and been reaped: a real pid whose
    // kill(pid, 0) now reports ESRCH, exactly what a dead publisher looks
    // like.
    pid_t dead = ::fork();
    if (dead == 0) {
      ::_exit(0);
    }
    ASSERT_GT(dead, 0);
    ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
    subscriber.header_for_test().producer_pid.store(dead, std::memory_order_relaxed);

    Runtime sidecar_rt(TestOptions());
    automata::Manifest empty;  // events route nowhere; salvage is still counted
    ASSERT_TRUE(sidecar_rt.Register(empty).ok());
    ipc::DrainReport report = DrainAll(subscriber, sidecar_rt);
    EXPECT_TRUE(report.producer_died);
    EXPECT_EQ(report.events, static_cast<uint64_t>(kEvents));  // salvaged
    EXPECT_FALSE(subscriber.closed());

    ShmSegment::Unlink(name);
    publisher.reset();  // Stop() after unlink: idempotent, no consumer wait
  }
}

// Records published behind a moving head wait for a later poll while the
// publisher lives; once ProducerDead() has seen it gone, polling drains the
// lane to the end even though the head moved since the last poll
// (the race DrainAll's death check meets when the producer publishes and
// dies between two sweeps).
TEST(Subscriber, DeadProducersLaneDrainsAtOnce) {
  Runtime rt(TestOptions());
  const std::string name = ShmName("death_poll");
  PublisherOptions options;
  options.lanes = 1;
  options.install_hook = false;
  options.wait_for_consumer = false;
  auto publisher = std::make_unique<ShmPublisher>(rt, name, options);
  ASSERT_TRUE(publisher->Start("test:death").ok());
  auto attached = ShmSubscriber::Attach(name, 1000);
  ASSERT_TRUE(attached.ok()) << attached.error().ToString();
  ShmSubscriber& subscriber = *attached.value();
  auto publish = [&publisher](int n) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(publisher->Publish(Event::Call(S("death_fn"), {})));
    }
  };
  std::vector<Event> events;
  publish(10);
  EXPECT_EQ(subscriber.PollLane(0, events, 256), 0u);  // within the slip, head moving
  publish(15);
  pid_t dead = ::fork();
  if (dead == 0) {
    ::_exit(0);
  }
  ASSERT_GT(dead, 0);
  ASSERT_EQ(::waitpid(dead, nullptr, 0), dead);
  subscriber.header_for_test().producer_pid.store(dead, std::memory_order_relaxed);
  ASSERT_TRUE(subscriber.ProducerDead());
  while (subscriber.PollLane(0, events, 256) != 0) {
  }
  EXPECT_EQ(events.size(), 25u);

  ShmSegment::Unlink(name);
  publisher.reset();
}

TEST(Subscriber, AttachTimesOutOnMissingName) {
  auto attached = ShmSubscriber::Attach(ShmName("never_created"), 50);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error().code, trace::kErrUnreadable);
}

TEST(Subscriber, NewerSegmentVersionRejected) {
  const std::string name = ShmName("version");
  ShmSegment::Geometry geometry;
  auto created = ShmSegment::Create(name, geometry);
  ASSERT_TRUE(created.ok());
  created.value()->header().version = ipc::kShmVersion + 1;
  created.value()->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                        std::memory_order_release);
  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error().code, trace::kErrVersionMismatch);
  ShmSegment::Unlink(name);
}

TEST(Subscriber, CorruptMagicRejected) {
  const std::string name = ShmName("magic");
  ShmSegment::Geometry geometry;
  auto created = ShmSegment::Create(name, geometry);
  ASSERT_TRUE(created.ok());
  created.value()->header().magic[0] = 'X';
  created.value()->header().state.store(static_cast<uint32_t>(ShmState::kLive),
                                        std::memory_order_release);
  auto attached = ShmSubscriber::Attach(name, 100);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error().code, trace::kErrCorrupt);
  ShmSegment::Unlink(name);
}

TEST(Segment, LeftoverNameFailsCreateWithHint) {
  const std::string name = ShmName("leftover");
  ShmSegment::Geometry geometry;
  auto first = ShmSegment::Create(name, geometry);
  ASSERT_TRUE(first.ok());
  auto second = ShmSegment::Create(name, geometry);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, trace::kErrUnreadable);
  EXPECT_NE(second.error().ToString().find("/dev/shm"), std::string::npos);
  ShmSegment::Unlink(name);
}

}  // namespace
}  // namespace tesla

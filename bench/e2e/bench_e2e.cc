// bench_e2e: one end-to-end, layer-attributed benchmark over six
// paper-shaped workloads (bench/e2e/README.md has the metric definitions,
// the estimator and the layer table).
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <file>] [--smoke]
//
// An untraced run measures what the monitored program and its user see —
// set-up time, ns per emitted event, the slowdown against the same program
// with no hooks, checked-event throughput and memory — with nothing between
// the program and the checker but the product path. A traced run (--trace)
// is a separate, shorter-lived invocation: it attributes the cost to layers
// with sampled spans and counters taken from bench code around each
// layer's public calls, runs the ablations and the capture round trip, and
// writes its spans to <file>. --smoke runs both with tiny window counts and
// checks correctness only.
//
// Every timing is measured per window (a closed-loop burst of the
// program's operations) and reported as the 10th percentile over all
// windows of the run: the host alternates between a fast and a slow phase,
// and the low percentile is the estimator that reads the same in both.
// Set-ups are timed while no other stack is alive.
//
// Every run checks its outputs: the first windows are replayed inline on a
// fresh reference runtime and the replay-comparable RuntimeStats must match
// field by field; afterwards no violation, drop or overflow may occur, some
// bound must be accepted, and the checker must have dispatched exactly the
// events the program emitted. The last line of standard output is one JSON
// object:
//   {"correct": true, "attempted": <events>, "failed": <failures>, "metrics": {...}}
// and the exit code is non-zero on any correctness failure.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "bench/bench_util.h"
#include "ipc/publisher.h"
#include "ipc/subscriber.h"
#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "trace/format.h"
#include "trace/replay.h"

namespace {

using namespace tesla;
using runtime::Event;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::ThreadContext;

constexpr uint32_t kMaxProducers = 2;
// Per-event spans are sampled: a clock pair costs tens of ns, comparable to
// the handoffs being timed.
constexpr uint64_t kSampleEvery = 16;
constexpr size_t kSpanCapacity = 1 << 16;    // spans kept per thread for the trace file
constexpr size_t kSampleCapacity = 1 << 20;  // handoff samples kept per thread for p50/p99
constexpr int kGlobalClasses = 8;
constexpr int kClassesPerProducer = kGlobalClasses / kMaxProducers;
// Class c lives on shard c % kGlobalShards, so producer 0 (classes 0-3) and
// producer 1 (classes 4-7) meet on a shard whenever their picks are
// congruent — a quarter of the time.
constexpr size_t kGlobalShards = 4;
constexpr int kGlobalKeys = 64;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   bench::Clock::now().time_since_epoch())
                                   .count());
}

void CpuRelax(uint32_t& spins) {
  if (++spins < 256) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    return;
  }
  std::this_thread::yield();
}

uint64_t Mix(uint64_t x) {  // splitmix64's finaliser
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ull); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// User-mode work between a bound's events (kernelsim's BurnCompute unit).
uint64_t Burn(uint64_t x) {
  x |= 1;
  for (int i = 0; i < 64; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double Median(std::vector<double> values) { return bench::Percentile(std::move(values), 0.5); }
double P10(std::vector<double> values) { return bench::Percentile(std::move(values), 0.1); }

// ---------------------------------------------------------------------------
// Workloads

enum class ProgramKind { kOltp, kBuild, kGlobal };
enum class Transport { kInline, kQueue, kShm };

struct WorkloadSpec {
  const char* name;
  ProgramKind program;
  Transport transport;
  uint32_t consumers;  // queue drain threads
  int ops;             // operations per producer per window, before ±25% jitter
  // Compute units (kernelsim's BurnCompute unit) per operation: per
  // translation unit for the build, per bound for the global program.
  // OltpTransactions fixes its own.
  int compute;
};

// Why each exists, and why global_inline computes 16 units per bound:
// bench/e2e/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"oltp_inline", ProgramKind::kOltp, Transport::kInline, 1, 128, 0},
    {"build_inline", ProgramKind::kBuild, Transport::kInline, 1, 32, 150},
    {"oltp_queue", ProgramKind::kOltp, Transport::kQueue, 1, 128, 0},
    {"oltp_shm", ProgramKind::kOltp, Transport::kShm, 1, 128, 0},
    {"global_inline", ProgramKind::kGlobal, Transport::kInline, 1, 256, 16},
    {"global_queue_c2", ProgramKind::kGlobal, Transport::kQueue, 2, 512, 1},
};

// The seed fixes every window's burst size (±25% around spec.ops).
int WindowOps(const WorkloadSpec& spec, uint64_t seed, uint64_t window, uint32_t producer) {
  Rng rng(Mix(seed) ^ Mix(window * kMaxProducers + producer + 1));
  return spec.ops - spec.ops / 4 + static_cast<int>(rng.Below(spec.ops / 2 + 1));
}

std::string GlobalClassName(int c) { return "e2e.global." + std::to_string(c); }

Result<automata::Manifest> CompileManifest(const WorkloadSpec& spec) {
  if (spec.program != ProgramKind::kGlobal) {
    return kernelsim::KernelAssertions(kernelsim::kSetAll);
  }
  automata::Manifest manifest;
  for (int c = 0; c < kGlobalClasses; c++) {
    const std::string n = std::to_string(c);
    auto automaton = automata::CompileAssertion("TESLA_GLOBAL(call(e2e_enter" + n +
                                                    "), returnfrom(e2e_exit" + n +
                                                    "), previously(e2e_check" + n + "(x) == 0))",
                                                {}, GlobalClassName(c));
    if (!automaton.ok()) {
      return automaton.error();
    }
    manifest.Add(std::move(automaton.value()));
  }
  return manifest;
}

RuntimeOptions BaseOptions(const WorkloadSpec& spec) {
  RuntimeOptions options;
  options.fail_stop = false;  // violations are counted and fail the run
  if (spec.program == ProgramKind::kGlobal) {
    options.global_shards = kGlobalShards;
  }
  return options;
}

// ---------------------------------------------------------------------------
// Programs: an instrumented build emitting into the program's runtime, and
// an uninstrumented twin running the same operations with no hooks.

struct OpResult {
  uint64_t ops = 0;     // syscalls or bounds completed
  uint64_t errors = 0;  // operations that failed
};

class Program {
 public:
  virtual ~Program() = default;
  virtual uint32_t producers() const = 0;
  // Builds the uninstrumented twin (outside the timed set-up).
  virtual void BootBare() = 0;
  // Runs `ops` operations of `window` as producer `p`.
  virtual OpResult Run(uint32_t p, bool instrumented, uint64_t window, int ops) = 0;
};

// kernelsim's fig. 11b macrobenchmarks on one kernel thread; the bare twin
// is a Release kernel (KernelConfig::tesla = nullptr).
class KernelProgram final : public Program {
 public:
  KernelProgram(const WorkloadSpec& spec, Runtime& rt)
      : spec_(spec), kernel_(ConfigFor(&rt)), td_(kernel_.NewThread(kernel_.NewProcess(0))) {}

  uint32_t producers() const override { return 1; }

  void BootBare() override {
    bare_ = std::make_unique<kernelsim::Kernel>(ConfigFor(nullptr));
    bare_td_.emplace(bare_->NewThread(bare_->NewProcess(0)));
  }

  OpResult Run(uint32_t, bool instrumented, uint64_t, int ops) override {
    kernelsim::Kernel& kernel = instrumented ? kernel_ : *bare_;
    kernelsim::KThread& td = instrumented ? td_ : *bare_td_;
    const kernelsim::WorkloadResult result =
        spec_.program == ProgramKind::kOltp
            ? kernelsim::OltpTransactions(kernel, td, ops)
            : kernelsim::BuildCompile(kernel, td, ops, spec_.compute);
    sink_ ^= result.compute_checksum;
    return {result.syscalls, result.errors};
  }

 private:
  static kernelsim::KernelConfig ConfigFor(Runtime* rt) {
    kernelsim::KernelConfig config;
    config.tesla = rt;
    return config;
  }

  const WorkloadSpec& spec_;
  kernelsim::Kernel kernel_;
  kernelsim::KThread td_;
  std::unique_ptr<kernelsim::Kernel> bare_;
  std::optional<kernelsim::KThread> bare_td_;
  uint64_t sink_ = 0;
};

// The fig. 12 shape: two producer threads, each running bounds of its own
// four TESLA_GLOBAL classes (picked per bound by the seed) with
// spec.compute units of user work per bound. A bound is enter, two checks
// (one a decoy value), the site, exit — five events.
class GlobalProgram final : public Program {
 public:
  GlobalProgram(const WorkloadSpec& spec, Runtime& rt, uint64_t seed)
      : rt_(rt), seed_(seed), compute_(spec.compute) {
    for (int c = 0; c < kGlobalClasses; c++) {
      const std::string n = std::to_string(c);
      classes_[c] = {InternString("e2e_enter" + n), InternString("e2e_check" + n),
                     InternString("e2e_exit" + n),
                     static_cast<uint32_t>(rt.FindAutomaton(GlobalClassName(c)))};
    }
    for (Producer& producer : producers_) {
      producer.ctx = std::make_unique<ThreadContext>(rt);
    }
  }

  uint32_t producers() const override { return kMaxProducers; }
  void BootBare() override {}

  OpResult Run(uint32_t p, bool instrumented, uint64_t window, int ops) override {
    Rng rng(Mix(seed_ ^ 0x676c6f62616cull) ^ Mix(window * kMaxProducers + p));
    Producer& self = producers_[p];
    ThreadContext& ctx = *self.ctx;
    const Class* mine = &classes_[p * kClassesPerProducer];
    uint64_t acc = self.sink;
    for (int i = 0; i < ops; i++) {
      const Class& cls = mine[rng.Below(kClassesPerProducer)];
      const int64_t x = static_cast<int64_t>(rng.Below(kGlobalKeys));
      const int64_t decoy = static_cast<int64_t>(rng.Below(kGlobalKeys));
      for (int unit = 0; unit < compute_; unit++) {
        acc = Burn(acc ^ static_cast<uint64_t>(x));
      }
      if (instrumented) {
        rt_.OnEvent(ctx, Event::Call(cls.enter, {}));
        const int64_t decoy_args[] = {decoy};
        rt_.OnEvent(ctx, Event::Return(cls.check, decoy_args, 0));
        const int64_t args[] = {x};
        rt_.OnEvent(ctx, Event::Return(cls.check, args, 0));
        const runtime::Binding site[] = {{0, x}};
        rt_.OnEvent(ctx, Event::Site(cls.id, site));
        rt_.OnEvent(ctx, Event::Return(cls.exit, {}, 0));
      }
    }
    self.sink = acc;
    return {static_cast<uint64_t>(ops), 0};
  }

 private:
  struct Class {
    Symbol enter = kNoSymbol, check = kNoSymbol, exit = kNoSymbol;
    uint32_t id = 0;
  };
  struct alignas(64) Producer {
    std::unique_ptr<ThreadContext> ctx;
    uint64_t sink = 0;
  };

  Runtime& rt_;
  uint64_t seed_;
  int compute_;
  Class classes_[kGlobalClasses];
  Producer producers_[kMaxProducers];
};

std::unique_ptr<Program> MakeProgram(const WorkloadSpec& spec, Runtime& rt, uint64_t seed) {
  if (spec.program == ProgramKind::kGlobal) {
    return std::make_unique<GlobalProgram>(spec, rt, seed);
  }
  return std::make_unique<KernelProgram>(spec, rt);
}

// ---------------------------------------------------------------------------
// The shm sidecar: an in-process subscriber thread polling the lane and
// dispatching through its own Runtime, as `tesla-trace attach` would.

class Sidecar {
 public:
  // Attaches to `name`, interns the publisher's symbols, registers the
  // embedded manifest (timed into *register_ns) and starts polling.
  static std::unique_ptr<Sidecar> Attach(const std::string& name, uint64_t* register_ns,
                                         std::string* error) {
    auto attached = ipc::ShmSubscriber::Attach(name, 2000);
    if (!attached.ok()) {
      *error = "attach: " + attached.error().ToString();
      return nullptr;
    }
    std::unique_ptr<Sidecar> sidecar(new Sidecar());
    sidecar->subscriber_ = std::move(attached.value());
    sidecar->subscriber_->InternSymbols();
    auto manifest = automata::Manifest::Deserialize(sidecar->subscriber_->info().manifest_text);
    if (!manifest.ok()) {
      *error = "sidecar manifest: " + manifest.error().ToString();
      return nullptr;
    }
    RuntimeOptions options = sidecar->subscriber_->PublisherRuntimeOptions();
    options.fail_stop = false;
    const uint64_t start = NowNs();
    sidecar->rt_ = std::make_unique<Runtime>(options);
    const Status status = sidecar->rt_->Register(manifest.value());
    *register_ns = NowNs() - start;
    if (!status.ok()) {
      *error = "sidecar register: " + status.error().ToString();
      return nullptr;
    }
    sidecar->ctx_ = std::make_unique<ThreadContext>(*sidecar->rt_);
    sidecar->thread_ = std::thread([s = sidecar.get()] { s->Main(); });
    return sidecar;
  }

  ~Sidecar() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  Sidecar(const Sidecar&) = delete;
  Sidecar& operator=(const Sidecar&) = delete;

  Runtime& runtime() { return *rt_; }
  uint64_t processed() const { return processed_.load(std::memory_order_acquire); }
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t poll_ns() const { return poll_ns_.load(std::memory_order_relaxed); }
  uint64_t dispatch_ns() const { return dispatch_ns_.load(std::memory_order_relaxed); }

  // Called by the program's thread before each burst. The lane's own
  // release/acquire pair works through two mappings of one segment, which
  // the C++ memory model (and TSan) cannot relate inside one process; this
  // gives the program thread's earlier reads of the sidecar runtime's stats
  // a happens-before edge to the dispatches that follow.
  void BeforeBurst() { bursts_.fetch_add(1, std::memory_order_release); }

 private:
  Sidecar() = default;

  void Main() {
    std::vector<Event> batch;
    batch.reserve(256);
    uint32_t spins = 0;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      batch.clear();
      const uint64_t t0 = NowNs();
      const size_t got = subscriber_->PollLane(0, batch, 256);
      if (got == 0) {
        if (stopping) {
          return;
        }
        CpuRelax(spins);
        continue;
      }
      spins = 0;
      bursts_.load(std::memory_order_acquire);  // see BeforeBurst()
      const uint64_t t1 = NowNs();
      rt_->OnEvents(*ctx_, std::span<const Event>(batch.data(), batch.size()));
      const uint64_t t2 = NowNs();
      poll_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
      dispatch_ns_.fetch_add(t2 - t1, std::memory_order_relaxed);
      batches_.fetch_add(1, std::memory_order_relaxed);
      processed_.fetch_add(got, std::memory_order_release);
    }
  }

  std::unique_ptr<ipc::ShmSubscriber> subscriber_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<ThreadContext> ctx_;
  std::atomic<uint64_t> processed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> poll_ns_{0};
  std::atomic<uint64_t> dispatch_ns_{0};
  std::atomic<uint64_t> bursts_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the state above is destroyed
};

// ---------------------------------------------------------------------------
// One set-up: compiled manifest, the program's runtime, the program and its
// transport to the checker.

struct SetupTimes {
  uint64_t start = 0, compiled = 0, registered = 0, booted = 0;
  uint64_t sidecar_register_ns = 0;  // booted - registered includes it; reported as register

  double compile_s() const { return (compiled - start) * 1e-9; }
  double register_s() const { return (registered - compiled + sidecar_register_ns) * 1e-9; }
  double boot_s() const { return (booted - registered - sidecar_register_ns) * 1e-9; }
  double total_s() const { return (booted - start) * 1e-9; }
};

struct Stack {
  ~Stack() {
    if (publisher != nullptr) {
      publisher->Stop();
    }
    sidecar.reset();
    if (queue != nullptr) {
      queue->Stop();
    }
  }

  Runtime& checker() { return sidecar != nullptr ? sidecar->runtime() : *rt; }

  automata::Manifest manifest;
  std::unique_ptr<Runtime> rt;  // the program's runtime
  std::unique_ptr<Program> program;
  std::unique_ptr<queue::EventQueue> queue;
  std::unique_ptr<ipc::ShmPublisher> publisher;
  std::unique_ptr<Sidecar> sidecar;
};

// `product_hooks`: the queue or publisher installs its own ingest hook (the
// product path); off, the bench installs hooks that call Enqueue/Publish.
std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, uint64_t seed, Transport transport,
                                  bool product_hooks, SetupTimes* times, std::string* error) {
  static std::atomic<uint32_t> segments{0};
  auto stack = std::make_unique<Stack>();
  times->start = NowNs();
  auto manifest = CompileManifest(spec);
  if (!manifest.ok()) {
    *error = "compile: " + manifest.error().ToString();
    return nullptr;
  }
  stack->manifest = std::move(manifest.value());
  times->compiled = NowNs();
  stack->rt = std::make_unique<Runtime>(BaseOptions(spec));
  const Status status = stack->rt->Register(stack->manifest);
  times->registered = NowNs();
  if (!status.ok()) {
    *error = "register: " + status.error().ToString();
    return nullptr;
  }
  stack->program = MakeProgram(spec, *stack->rt, seed);
  if (transport == Transport::kQueue) {
    queue::QueueOptions options;
    options.ring_capacity = 8192;  // above any window's events: producers never block
    options.consumers = spec.consumers;
    options.install_hook = product_hooks;
    stack->queue = std::make_unique<queue::EventQueue>(*stack->rt, options);
    stack->queue->Start();
  } else if (transport == Transport::kShm) {
    ipc::PublisherOptions options;
    options.lanes = stack->program->producers();
    options.install_hook = product_hooks;
    // The sidecar attaches right below, before any event; Stop() must not
    // wait for a consumer that failed to attach.
    options.wait_for_consumer = false;
    const std::string name = "tesla_e2e_" + std::to_string(::getpid()) + "_" +
                             std::to_string(segments.fetch_add(1));
    stack->publisher = std::make_unique<ipc::ShmPublisher>(*stack->rt, name, options);
    const Status started = stack->publisher->Start("bench_e2e");
    if (!started.ok()) {
      *error = "publisher: " + started.error().ToString();
      return nullptr;
    }
    stack->sidecar = Sidecar::Attach(name, &times->sidecar_register_ns, error);
    if (stack->sidecar == nullptr) {
      return nullptr;
    }
  }
  times->booted = NowNs();
  return stack;
}

// ---------------------------------------------------------------------------
// Bench hooks and spans. Each producer thread writes only its own slot.

enum SpanName : uint16_t {
  kSpanCompile,
  kSpanRegister,
  kSpanBoot,
  kSpanWindow,
  kSpanHandoff,
  kSpanWait,
};
constexpr const char* kSpanNames[] = {"setup.compile", "setup.register", "setup.boot",
                                      "window.traced", "handoff",        "checker.wait"};

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  // index in the same thread's log, -1 for none
  uint32_t window = 0;
  uint16_t name = 0;
};

struct alignas(64) ProducerLocal {
  uint64_t events = 0;     // events offered to a bench hook
  uint64_t rejected = 0;   // handoffs the transport refused
  uint64_t sample_ns = 0;  // sampled handoff time, one clock read included
  uint64_t samples = 0;
  int32_t window_span = -1;
  uint32_t window = 0;
  std::vector<uint32_t> durations;  // every handoff sample, up to kSampleCapacity
  std::vector<Span> spans;          // up to kSpanCapacity
  uint64_t spans_dropped = 0;

  int32_t AddSpan(SpanName name, uint64_t start, uint64_t end, int32_t parent, uint32_t w) {
    if (spans.size() >= kSpanCapacity) {
      spans_dropped++;
      return -1;
    }
    spans.push_back({start, end, parent, w, name});
    return static_cast<int32_t>(spans.size() - 1);
  }
};

ProducerLocal g_producers[kMaxProducers];
thread_local uint32_t tl_producer = 0;

// Where a handoff goes: the checker runtime an inline tap forwards to (with
// its context per producer), or the async transport's producer call.
struct HookState {
  Transport transport = Transport::kInline;
  Runtime* tap = nullptr;
  ThreadContext* tap_ctx[kMaxProducers] = {};
  queue::EventQueue* queue = nullptr;
  ipc::ShmPublisher* publisher = nullptr;
};

bool Handoff(HookState& state, ThreadContext& ctx, const Event& event) {
  switch (state.transport) {
    case Transport::kInline:
      state.tap->OnEvent(*state.tap_ctx[tl_producer], event);
      return true;
    case Transport::kQueue:
      return state.queue->Enqueue(ctx, event);
    case Transport::kShm:
      return state.publisher->Publish(event);
  }
  return false;
}

bool NoopHook(void*, ThreadContext&, const Event&) {
  g_producers[tl_producer].events++;
  return true;
}

template <bool kSampled>
bool HandoffHook(void* state, ThreadContext& ctx, const Event& event) {
  HookState& hook = *static_cast<HookState*>(state);
  ProducerLocal& local = g_producers[tl_producer];
  bool accepted;
  if (kSampled && (++local.events % kSampleEvery) == 0) {
    const uint64_t t0 = NowNs();
    accepted = Handoff(hook, ctx, event);
    const uint64_t t1 = NowNs();
    local.sample_ns += t1 - t0;
    local.samples++;
    if (local.durations.size() < kSampleCapacity) {
      local.durations.push_back(static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    }
    local.AddSpan(kSpanHandoff, t0, t1, local.window_span, local.window);
  } else {
    if (!kSampled) {
      local.events++;
    }
    accepted = Handoff(hook, ctx, event);
  }
  if (!accepted) {
    local.rejected++;
  }
  return true;
}

// The cost of an empty span: one clock read, the part of a clock pair a
// sampled duration contains beyond the call it brackets. It moves with the
// host's phase, so traced runs measure it again beside every traced window.
double EmptySpanNs() {
  std::vector<double> pairs(256);
  for (double& ns : pairs) {
    const uint64_t t0 = NowNs();
    const uint64_t t1 = NowNs();
    ns = static_cast<double>(t1 - t0);
  }
  return Median(std::move(pairs));
}

// ---------------------------------------------------------------------------
// Producer threads: producer 0 is the calling thread, producer 1 a worker
// spawned once per run, released per window.

class Crew {
 public:
  explicit Crew(uint32_t producers) {
    for (uint32_t p = 1; p < producers; p++) {
      workers_.emplace_back([this, p] { Loop(p); });
    }
  }
  ~Crew() {
    quit_.store(true, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_release);
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Runs job(p) for every producer at once; returns when all have finished.
  void Run(const std::function<void(uint32_t)>& job) {
    job_ = &job;
    done_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    job(0);
    uint32_t spins = 0;
    while (done_.load(std::memory_order_acquire) != workers_.size()) {
      CpuRelax(spins);
    }
  }

 private:
  void Loop(uint32_t p) {
    tl_producer = p;
    uint64_t seen = 0;
    for (;;) {
      uint32_t spins = 0;
      uint64_t generation;
      while ((generation = generation_.load(std::memory_order_acquire)) == seen) {
        CpuRelax(spins);
      }
      seen = generation;
      if (quit_.load(std::memory_order_acquire)) {
        return;
      }
      (*job_)(p);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  const std::function<void(uint32_t)>* job_ = nullptr;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> quit_{false};
  std::vector<std::thread> workers_;  // last: joined before the state above dies
};

// ---------------------------------------------------------------------------
// Windows

enum class Variant {
  kBare,     // the uninstrumented twin
  kProduct,  // the product path: inline dispatch, or the transport's own hook
  kNoop,     // a hook that takes every event and does nothing (ingest cost)
  kTraced,   // the handoff with sampled spans: async, the transport's producer
             // call; inline, dispatch on the baseline tap runtime (taps[0])
  kTap,      // an inline tap forwarding every event to taps[i]
};

struct Window {
  uint64_t events = 0;
  uint64_t ops = 0;
  uint64_t burst_ns = 0;  // producer time, summed over producers
  uint64_t wall_ns = 0;   // first producer start to last producer end
  uint64_t wait_ns = 0;   // burst end until the checker had dispatched every event
  uint64_t sample_ns = 0;
  uint64_t samples = 0;
  uint64_t failures = 0;

  double ns_per_event() const { return static_cast<double>(burst_ns) / events; }
  double checked_ns_per_event() const { return static_cast<double>(wall_ns + wait_ns) / events; }
  double sample_mean_ns() const { return static_cast<double>(sample_ns) / samples; }
};

// A runtime the traced run forwards to through an inline tap: the baseline
// every ablation is compared with, one runtime per ablated knob, and the
// full-capture runtime.
struct Tap {
  std::unique_ptr<Runtime> rt;
  std::vector<std::unique_ptr<ThreadContext>> contexts;
  HookState hook;
};

struct Ablation {
  const char* metric;
  void (*apply)(RuntimeOptions&);
};

const Ablation kAblations[] = {
    {nullptr, [](RuntimeOptions&) {}},
    {"metrics.counters_delta_ns_per_event",
     [](RuntimeOptions& o) { o.metrics_mode = metrics::MetricsMode::kCounters; }},
    {"metrics.full_delta_ns_per_event",
     [](RuntimeOptions& o) { o.metrics_mode = metrics::MetricsMode::kFull; }},
    {"profile.delta_ns_per_event", [](RuntimeOptions& o) { o.profile = true; }},
    {"trace.flight_delta_ns_per_event",
     [](RuntimeOptions& o) { o.trace_mode = trace::TraceMode::kFlightRecorder; }},
    {"runtime.step_interpreted_delta_ns_per_event",
     [](RuntimeOptions& o) { o.step_tier = runtime::StepTier::kInterpreted; }},
    {"runtime.noindex_delta_ns_per_event", [](RuntimeOptions& o) { o.instance_index = false; }},
};
constexpr size_t kAblationCount = sizeof(kAblations) / sizeof(kAblations[0]);
constexpr size_t kCaptureTap = kAblationCount;

class Runner {
 public:
  Runner(const WorkloadSpec& spec, uint64_t seed, Stack& stack, bool traced)
      : spec_(spec),
        seed_(seed),
        stack_(stack),
        traced_(traced),
        async_(stack.queue != nullptr || stack.publisher != nullptr),
        crew_(stack.program->producers()) {
    product_hook_.transport = spec.transport;
    product_hook_.queue = stack.queue.get();
    product_hook_.publisher = stack.publisher.get();
  }

  // Registers the taps (traced runs only).
  bool AddTaps(std::string* error) {
    for (size_t i = 0; i <= kAblationCount; i++) {
      RuntimeOptions options = BaseOptions(spec_);
      if (i < kAblationCount) {
        kAblations[i].apply(options);
      } else {
        options.trace_mode = trace::TraceMode::kFullCapture;
      }
      auto tap = std::make_unique<Tap>();
      tap->rt = std::make_unique<Runtime>(options);
      const Status status = tap->rt->Register(stack_.manifest);
      if (!status.ok()) {
        *error = "tap register: " + status.error().ToString();
        return false;
      }
      tap->hook.tap = tap->rt.get();
      for (uint32_t p = 0; p < stack_.program->producers(); p++) {
        tap->contexts.push_back(std::make_unique<ThreadContext>(*tap->rt));
        tap->hook.tap_ctx[p] = tap->contexts.back().get();
      }
      taps_.push_back(std::move(tap));
    }
    return true;
  }

  std::vector<std::unique_ptr<Tap>>& taps() { return taps_; }

  // Events the program has emitted through the product path so far.
  uint64_t Emitted() const {
    if (stack_.queue != nullptr) {
      const queue::ProducerStats totals = stack_.queue->totals();
      return totals.enqueued + totals.dropped + totals.rejected;
    }
    if (stack_.publisher != nullptr) {
      const ipc::PublisherStats stats = stack_.publisher->stats();
      return stats.published + stats.dropped + stats.lane_overflow;
    }
    return stack_.rt->stats().events;
  }

  // Events the checker has dispatched so far.
  uint64_t Checked() const {
    return stack_.sidecar != nullptr ? stack_.sidecar->processed() : stack_.rt->stats().events;
  }

  Window Run(Variant variant, uint64_t window, size_t tap = 0) {
    Runtime& rt = *stack_.rt;
    // Untraced runs keep the product path untouched; traced async runs
    // reach the transport through a bench hook so the same queue or
    // publisher can also serve the traced window.
    const bool hooked =
        variant != Variant::kBare && (variant != Variant::kProduct || (traced_ && async_));
    if (hooked) {
      switch (variant) {
        case Variant::kProduct:
          rt.SetIngestHook(&HandoffHook<false>, &product_hook_);
          break;
        case Variant::kNoop:
          rt.SetIngestHook(&NoopHook, nullptr);
          break;
        case Variant::kTraced:
          rt.SetIngestHook(&HandoffHook<true>, async_ ? &product_hook_ : &taps_[0]->hook);
          break;
        case Variant::kTap:
          rt.SetIngestHook(&HandoffHook<false>, &taps_[tap]->hook);
          break;
        case Variant::kBare:
          break;
      }
    }
    const uint32_t producers = stack_.program->producers();
    int ops[kMaxProducers] = {};
    for (uint32_t p = 0; p < producers; p++) {
      ops[p] = WindowOps(spec_, seed_, window, p);
      ProducerLocal& local = g_producers[p];
      local.sample_ns = 0;
      local.samples = 0;
      local.window = static_cast<uint32_t>(window);
    }
    const uint64_t hook_events = HookTotal(&ProducerLocal::events);
    const uint64_t hook_rejected = HookTotal(&ProducerLocal::rejected);
    const uint64_t emitted = hooked ? 0 : Emitted();
    OpResult results[kMaxProducers];
    uint64_t bursts[kMaxProducers] = {};
    const bool traced = variant == Variant::kTraced;
    const std::function<void(uint32_t)> job = [&](uint32_t p) {
      ProducerLocal& local = g_producers[p];
      const uint64_t t0 = NowNs();
      if (traced) {
        local.window_span = local.AddSpan(kSpanWindow, t0, t0, -1, local.window);
      }
      results[p] = stack_.program->Run(p, variant != Variant::kBare, window, ops[p]);
      const uint64_t t1 = NowNs();
      bursts[p] = t1 - t0;
      if (traced && local.window_span >= 0) {
        local.spans[local.window_span].end_ns = t1;
      }
      local.window_span = -1;
    };
    if (stack_.sidecar != nullptr) {
      stack_.sidecar->BeforeBurst();
    }
    const uint64_t start = NowNs();
    crew_.Run(job);
    const uint64_t end = NowNs();

    Window result;
    result.wall_ns = end - start;
    for (uint32_t p = 0; p < producers; p++) {
      result.burst_ns += bursts[p];
      result.ops += results[p].ops;
      result.failures += results[p].errors;
      result.sample_ns += g_producers[p].sample_ns;
      result.samples += g_producers[p].samples;
    }
    if (hooked) {
      result.events = HookTotal(&ProducerLocal::events) - hook_events;
    } else if (variant == Variant::kProduct) {
      result.events = Emitted() - emitted;
    }
    result.failures += HookTotal(&ProducerLocal::rejected) - hook_rejected;
    if (hooked) {
      rt.SetIngestHook(nullptr, nullptr);
    }
    if (async_ && (variant == Variant::kProduct || variant == Variant::kTraced)) {
      const uint64_t wait_start = NowNs();
      WaitChecked();
      result.wait_ns = NowNs() - wait_start;
      if (traced) {
        g_producers[0].AddSpan(kSpanWait, wait_start, wait_start + result.wait_ns, -1,
                               static_cast<uint32_t>(window));
      }
    }
    return result;
  }

  // Blocks until the checker has dispatched everything emitted so far.
  void WaitChecked() {
    if (stack_.queue != nullptr) {
      stack_.queue->Flush();
      return;
    }
    if (stack_.sidecar != nullptr) {
      const uint64_t target = Emitted();
      uint32_t spins = 0;
      while (stack_.sidecar->processed() < target) {
        CpuRelax(spins);
      }
    }
  }

 private:
  uint64_t HookTotal(uint64_t ProducerLocal::* counter) const {
    uint64_t total = 0;
    for (uint32_t p = 0; p < stack_.program->producers(); p++) {
      total += g_producers[p].*counter;
    }
    return total;
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  Stack& stack_;
  bool traced_;
  bool async_;
  Crew crew_;
  HookState product_hook_;
  std::vector<std::unique_ptr<Tap>> taps_;
};

// ---------------------------------------------------------------------------
// Phases shared by both kinds of run

// How much a run does. Smoke runs shrink everything.
struct Plan {
  double seconds = 10;
  int setup_reps = 21;
  int prefix_windows = 16;
  size_t min_windows = 1000;
  size_t min_rounds = 200;  // traced runs: a round is eleven windows
  int capture_windows = 32;

  // The timed phase ends after `seconds` and at least `least` windows (or
  // rounds), but never later than three times `seconds`.
  bool Done(uint64_t start_ns, size_t count, size_t least) const {
    const double elapsed = (NowNs() - start_ns) * 1e-9;
    return (elapsed >= seconds && count >= least) || elapsed >= 3 * seconds;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // diagnostics printed beside the metrics

  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "bench_e2e: FAIL: %s\n", why.c_str());
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3))) {
    char line[256];
    va_list args;
    va_start(args, format);
    std::vsnprintf(line, sizeof(line), format, args);
    va_end(args);
    notes.emplace_back(line);
  }
};

std::unique_ptr<Stack> BuildRunStack(const WorkloadSpec& spec, uint64_t seed, bool product_hooks,
                                     Outcome* out) {
  SetupTimes unused;
  std::string error;
  std::unique_ptr<Stack> stack =
      BuildStack(spec, seed, spec.transport, product_hooks, &unused, &error);
  if (stack == nullptr) {
    out->Fail("set-up: " + error);
    return nullptr;
  }
  stack->program->BootBare();
  return stack;
}

// Times `count` fresh set-ups, each torn down at once, onto *times. Called
// only while no other stack is alive, so a set-up's own threads (queue
// consumers, the sidecar) run beside the main thread alone and the process
// stays within the workload's thread count.
bool TimeSetups(const WorkloadSpec& spec, uint64_t seed, bool product_hooks, int count,
                std::vector<SetupTimes>* times, Outcome* out) {
  for (int i = 0; i < count; i++) {
    SetupTimes t;
    std::string error;
    if (BuildStack(spec, seed, spec.transport, product_hooks, &t, &error) == nullptr) {
      out->Fail("set-up: " + error);
      return false;
    }
    times->push_back(t);
  }
  return true;
}

// Set-ups are reported like windows, at the 10th percentile: their median
// flips with the share of them the host ran in its slow phase, while the
// p10 reads the same in either.
double SetupP10(const std::vector<SetupTimes>& times, double (SetupTimes::*part)() const) {
  std::vector<double> values;
  for (const SetupTimes& t : times) {
    values.push_back((t.*part)());
  }
  return P10(std::move(values));
}

// Runs the first windows through the product path and, inline, through a
// fresh reference runtime; the replay-comparable stats must match field by
// field. Returns the next window index.
uint64_t CheckPrefix(const WorkloadSpec& spec, uint64_t seed, Runner& runner, Stack& stack,
                     int windows, Outcome* out) {
  SetupTimes unused;
  std::string error;
  auto reference = BuildStack(spec, seed, Transport::kInline, true, &unused, &error);
  if (reference == nullptr) {
    out->Fail("reference: " + error);
    return windows;
  }
  for (int w = 0; w < windows; w++) {
    const Window window = runner.Run(Variant::kProduct, w);
    out->failed += window.failures;
    for (uint32_t p = 0; p < reference->program->producers(); p++) {
      reference->program->Run(p, true, w, WindowOps(spec, seed, w, p));
    }
  }
  const RuntimeStats& got = stack.checker().stats();
  const RuntimeStats& want = reference->rt->stats();
  std::string diff;
  for (const trace::StatsField& field : trace::kStatsFields) {
    if (field.replay_compared && got.*field.field != want.*field.field) {
      diff += std::string(" ") + field.name + "=" + std::to_string(got.*field.field) +
              " (reference " + std::to_string(want.*field.field) + ")";
    }
  }
  if (!diff.empty()) {
    out->Fail("prefix stats differ from the inline reference:" + diff);
  }
  out->Note("prefix check: %d windows, %" PRIu64 " events match the inline reference", windows,
            want.events);
  return windows;
}

// Counts every loss and failed verdict on the checker: the checker must have
// dispatched exactly what the program emitted, with no violation, overflow
// or transport drop.
void CheckTotals(Runner& runner, Stack& stack, Outcome* out) {
  runner.WaitChecked();
  const uint64_t emitted = runner.Emitted();
  const uint64_t checked = runner.Checked();
  uint64_t failures = emitted > checked ? emitted - checked : checked - emitted;
  const RuntimeStats& stats = stack.checker().stats();
  failures += stats.violations + stats.overflows;
  if (stack.queue != nullptr) {
    const queue::ProducerStats totals = stack.queue->totals();
    failures += totals.dropped + totals.rejected;
  }
  if (stack.publisher != nullptr) {
    const ipc::PublisherStats published = stack.publisher->stats();
    failures += published.dropped + published.lane_overflow;
  }
  if (failures != 0) {
    out->Fail("checker: emitted " + std::to_string(emitted) + ", checked " +
              std::to_string(checked) + ", violations " + std::to_string(stats.violations) +
              ", overflows " + std::to_string(stats.overflows));
  }
  out->failed += failures;
}

// Interleaves the instrumented and the bare window of one index, alternating
// which runs first so neither always sees the other's cache footprint.
std::pair<Window, Window> RunPair(Runner& runner, uint64_t w) {
  if (w % 2 == 0) {
    Window inst = runner.Run(Variant::kProduct, w);
    return {inst, runner.Run(Variant::kBare, w)};
  }
  Window bare = runner.Run(Variant::kBare, w);
  return {runner.Run(Variant::kProduct, w), bare};
}

// Peak resident memory of this process image. VmHWM, not ru_maxrss: Linux
// carries ru_maxrss across exec, so under a Python runner it would report
// the runner's footprint.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return std::nan("");
  }
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

// The timed windows of an untraced run.
struct UntracedSeries {
  std::vector<double> ns, slowdown, checked;
  uint64_t accepts = 0;
};

// The untraced run's stack: its prefix check, the peak memory, an untimed
// warm-up, the timed windows and the totals check. The stack is gone when
// this returns.
bool RunWindows(const WorkloadSpec& spec, uint64_t seed, const Plan& plan,
                UntracedSeries* series, Outcome* out) {
  std::unique_ptr<Stack> stack = BuildRunStack(spec, seed, true, out);
  if (stack == nullptr) {
    return false;
  }
  Runner runner(spec, seed, *stack, false);
  uint64_t w = CheckPrefix(spec, seed, runner, *stack, plan.prefix_windows, out);
  // Peak memory over a fixed amount of work: the set-ups, the reference and
  // the prefix windows. Later windows are left out because kernelsim keeps
  // every socket it ever created, so growth past this point tracks how many
  // windows fit in the run, not the checker's footprint.
  out->Add("rss_mb", PeakRssMb(), "MB");

  const uint64_t warm_end = NowNs() + static_cast<uint64_t>(plan.seconds * 0.05e9);
  while (NowNs() < warm_end) {
    const auto [inst, bare] = RunPair(runner, w++);
    out->failed += inst.failures + bare.failures;
  }

  const uint64_t accepts_before = stack->checker().stats().accepts;
  const uint64_t start = NowNs();
  for (;; w++) {
    const auto [inst, bare] = RunPair(runner, w);
    out->failed += inst.failures + bare.failures;
    out->attempted += inst.events;
    if (inst.events == 0) {
      out->Fail("a window emitted no events");
      return false;
    }
    series->ns.push_back(inst.ns_per_event());
    series->slowdown.push_back(static_cast<double>(inst.burst_ns) / bare.burst_ns);
    series->checked.push_back(inst.checked_ns_per_event());
    if (plan.Done(start, series->ns.size(), plan.min_windows)) {
      break;
    }
  }
  CheckTotals(runner, *stack, out);
  series->accepts = stack->checker().stats().accepts - accepts_before;
  if (series->accepts == 0) {
    out->Fail("no bound was accepted in the timed phase");
  }
  return true;
}

// The set-ups are timed while no other stack is alive: half before the
// run's stack is built and half after it is torn down, so they see the
// host at both ends of the run. One untimed set-up comes first, because the
// first set-up of a process also pays, once, for first-touch page faults
// and interning.
Outcome RunUntraced(const WorkloadSpec& spec, uint64_t seed, const Plan& plan) {
  Outcome out;
  std::vector<SetupTimes> setups;
  UntracedSeries series;
  const int before = plan.setup_reps / 2;
  if (!TimeSetups(spec, seed, true, 1, &setups, &out)) {
    return out;
  }
  setups.clear();
  if (!TimeSetups(spec, seed, true, before, &setups, &out) ||
      !RunWindows(spec, seed, plan, &series, &out) ||
      !TimeSetups(spec, seed, true, plan.setup_reps - before, &setups, &out)) {
    return out;
  }

  const std::vector<double>& ns = series.ns;
  const std::vector<double>& slowdown = series.slowdown;
  const std::vector<double>& checked = series.checked;
  out.Add("ns_per_event", P10(ns), "ns/event");
  out.Add("slowdown_x", P10(slowdown), "x");
  out.Add("checked_mev_per_s", 1e3 / P10(checked), "Mev/s");
  out.Add("setup_s", SetupP10(setups, &SetupTimes::total_s), "s");
  out.Note("%zu timed windows, %" PRIu64 " events, %" PRIu64 " accepts", ns.size(),
           out.attempted, series.accepts);
  out.Note("per-window ns/event p10 %.2f p50 %.2f p99 %.2f", P10(ns), Median(ns),
           bench::Percentile(ns, 0.99));
  out.Note("per-window slowdown p10 %.3f p50 %.3f; checked Mev/s at p50 %.3f", P10(slowdown),
           Median(slowdown), 1e3 / Median(checked));
  return out;
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

struct QueueTotals {
  uint64_t busy_ns = 0, max_busy_ns = 0, events = 0, batches = 0, forwards = 0, steals = 0;
  uint64_t blocked_spins = 0, drops = 0;
};

QueueTotals ReadQueue(const queue::EventQueue* q) {
  QueueTotals totals;
  if (q == nullptr) {
    return totals;
  }
  for (const queue::ConsumerStats& c : q->consumer_stats()) {
    totals.busy_ns += c.busy_ns;
    totals.max_busy_ns = std::max(totals.max_busy_ns, c.busy_ns);
    totals.events += c.events;
    totals.batches += c.batches;
    totals.forwards += c.forwards_out;
    totals.steals += c.steals;
  }
  const queue::ProducerStats producers = q->totals();
  totals.blocked_spins = producers.blocked_spins;
  totals.drops = producers.dropped + producers.rejected;
  return totals;
}

struct SidecarTotals {
  uint64_t processed = 0, batches = 0, poll_ns = 0, dispatch_ns = 0;
};

SidecarTotals ReadSidecar(const Sidecar* sidecar) {
  if (sidecar == nullptr) {
    return {};
  }
  return {sidecar->processed(), sidecar->batches(), sidecar->poll_ns(), sidecar->dispatch_ns()};
}

// Writes the capture of the full-capture tap, replays it and reports the
// capture layer's costs. The replay must reproduce the run exactly.
void MeasureCapture(Tap& tap, uint64_t events, const std::string& path, Outcome* out) {
  const uint64_t t0 = NowNs();
  const Status written = trace::WriteCapture(path, "bench_e2e", *tap.rt);
  const uint64_t t1 = NowNs();
  if (!written.ok()) {
    out->Fail("capture: " + written.error().ToString());
    return;
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  long bytes = 0;
  if (file != nullptr) {
    std::fseek(file, 0, SEEK_END);
    bytes = std::ftell(file);
    std::fclose(file);
  }
  const uint64_t t2 = NowNs();
  auto replay = trace::ReplayFile(path);
  const uint64_t t3 = NowNs();
  std::remove(path.c_str());
  if (!replay.ok()) {
    out->Fail("replay: " + replay.error().ToString());
    return;
  }
  if (!replay.value().matched || replay.value().events_replayed != events) {
    out->Fail("replay diverged from the capture: " + replay.value().divergence);
  }
  out->Add("trace.capture_bytes_per_event", static_cast<double>(bytes) / events, "B/event");
  out->Add("trace.write_ns_per_event", static_cast<double>(t1 - t0) / events, "ns/event");
  out->Add("trace.replay_ns_per_event", static_cast<double>(t3 - t2) / events, "ns/event");
}

// The span log, one tab-separated line per span (bench/e2e/README.md,
// "Reading a trace").
bool WriteSpans(const std::string& path, const WorkloadSpec& spec, uint64_t seed,
                double empty_span_ns) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  std::fprintf(file,
               "# bench_e2e spans: workload=%s seed=%" PRIu64 " empty_span_ns=%.1f"
               " sample_every=%" PRIu64 "\n",
               spec.name, seed, empty_span_ns, kSampleEvery);
  std::fprintf(file, "thread\tid\tparent\twindow\tname\tstart_ns\tend_ns\n");
  for (uint32_t p = 0; p < kMaxProducers; p++) {
    const ProducerLocal& local = g_producers[p];
    for (size_t i = 0; i < local.spans.size(); i++) {
      const Span& span = local.spans[i];
      std::fprintf(file, "%u\t%zu\t%d\t%u\t%s\t%" PRIu64 "\t%" PRIu64 "\n", p, i, span.parent,
                   span.window, kSpanNames[span.name], span.start_ns, span.end_ns);
    }
    std::fprintf(file, "# thread %u dropped %" PRIu64 " spans past the buffer\n", p,
                 local.spans_dropped);
  }
  return std::fclose(file) == 0;
}

// The window series of a traced run, one entry per recorded round.
struct TraceSeries {
  std::vector<double> product, bare, noop, traced;
  std::vector<double> handoff;     // sampled handoff mean, the round's empty span removed
  std::vector<double> empty_span;  // the round's empty-span cost
  std::vector<double> residual;    // the round's traced window the layers leave unexplained
  std::vector<double> taps[kAblationCount];
  uint64_t product_events = 0, product_ops = 0;
  uint64_t fed_events = 0;         // events handed to the checker (U and T windows)
  uint64_t fed_window_ns = 0;      // their windows' wall + wait time
  uint64_t product_window_ns = 0;  // U windows' wall + wait time
  uint64_t product_wait_ns = 0;
};

// One round runs every variant on the same window index: the product path
// (U), the bare twin (P), the no-op hook (I), the traced handoff (T) and the
// ablation taps in rotating order. `series` null: a warm-up round.
bool RunRound(Runner& runner, uint64_t window, TraceSeries* series, Outcome* out) {
  const Window u = runner.Run(Variant::kProduct, window);
  const Window p = runner.Run(Variant::kBare, window);
  const Window i = runner.Run(Variant::kNoop, window);
  const double empty_span = EmptySpanNs();
  const Window t = runner.Run(Variant::kTraced, window);
  Window a[kAblationCount];
  for (size_t k = 0; k < kAblationCount; k++) {
    const size_t tap = (k + window) % kAblationCount;
    a[tap] = runner.Run(Variant::kTap, window, tap);
  }
  out->failed += u.failures + p.failures + i.failures + t.failures;
  bool empty = u.events == 0 || i.events == 0 || t.samples == 0;
  for (const Window& tapped : a) {
    out->failed += tapped.failures;
    empty = empty || tapped.events == 0;
  }
  if (series == nullptr) {
    return true;
  }
  if (empty) {
    out->Fail("a traced round emitted no events");
    return false;
  }
  out->attempted += u.events + i.events + t.events;
  series->product.push_back(u.ns_per_event());
  series->bare.push_back(static_cast<double>(p.burst_ns) / u.events);
  series->noop.push_back(i.ns_per_event());
  series->traced.push_back(t.ns_per_event());
  const double handoff = t.sample_mean_ns() - empty_span;
  series->handoff.push_back(handoff);
  series->empty_span.push_back(empty_span);
  // The layer sum, within one round so both windows see the same host phase:
  // the no-op window (bare program + ingest), the handoff spans and the
  // sampling clock reads against the traced window.
  const double sampling = 2 * empty_span / kSampleEvery;
  series->residual.push_back((t.ns_per_event() - i.ns_per_event() - handoff - sampling) /
                             t.ns_per_event());
  for (size_t k = 0; k < kAblationCount; k++) {
    out->attempted += a[k].events;
    series->taps[k].push_back(a[k].ns_per_event());
  }
  series->product_events += u.events;
  series->product_ops += u.ops;
  series->fed_events += u.events + t.events;
  series->fed_window_ns += u.wall_ns + u.wait_ns + t.wall_ns + t.wait_ns;
  series->product_window_ns += u.wall_ns + u.wait_ns;
  series->product_wait_ns += u.wait_ns;
  return true;
}

// The traced rounds, the capture round trip and every per-layer metric;
// `setups` were timed before the stack was built. Returns false when
// nothing was recorded.
bool TraceWindows(const WorkloadSpec& spec, uint64_t seed, const Plan& plan,
                  const std::vector<SetupTimes>& setups, const std::string& capture_path,
                  Stack& stack, double* empty_span_ns, Outcome* out) {
  Runner runner(spec, seed, stack, true);
  std::string error;
  if (!runner.AddTaps(&error)) {
    out->Fail(error);
    return false;
  }
  uint64_t w = CheckPrefix(spec, seed, runner, stack, plan.prefix_windows, out);
  const uint64_t warm_end = NowNs() + static_cast<uint64_t>(plan.seconds * 0.05e9);
  while (NowNs() < warm_end) {
    RunRound(runner, w++, nullptr, out);
  }

  TraceSeries series;
  const RuntimeStats before = stack.checker().stats();
  const QueueTotals queue_before = ReadQueue(stack.queue.get());
  const SidecarTotals sidecar_before = ReadSidecar(stack.sidecar.get());
  const uint64_t start = NowNs();
  while (RunRound(runner, w++, &series, out)) {
    if (plan.Done(start, series.product.size(), plan.min_rounds)) {
      break;
    }
  }
  runner.WaitChecked();
  const RuntimeStats after = stack.checker().stats();
  const QueueTotals queue_after = ReadQueue(stack.queue.get());
  const SidecarTotals sidecar_after = ReadSidecar(stack.sidecar.get());

  uint64_t capture_events = 0;
  for (int c = 0; c < plan.capture_windows; c++) {
    const Window window = runner.Run(Variant::kTap, w++, kCaptureTap);
    capture_events += window.events;
    out->failed += window.failures;
  }
  CheckTotals(runner, stack, out);
  for (const auto& tap : runner.taps()) {
    const RuntimeStats& stats = tap->rt->stats();
    if (stats.violations + stats.overflows != 0) {
      out->Fail("a tap runtime reported violations or overflows");
      out->failed += stats.violations + stats.overflows;
    }
  }
  if (after.accepts == before.accepts) {
    out->Fail("no bound was accepted in the timed phase");
  }
  if (series.product.empty()) {
    return false;
  }

  // Producer side: the no-op hook window (bare program + ingest), the
  // handoff spans and the sampling clock reads against the traced window.
  // What they leave over is reported, not gated: a sampled span measures a
  // handoff's latency, which for a ~20 ns enqueue exceeds its cost inside
  // the stream, and the checker's cache footprint slows the program itself.
  const double bare = P10(series.bare);
  const double noop = P10(series.noop);
  const double traced = P10(series.traced);
  const double handoff = P10(series.handoff);
  *empty_span_ns = Median(series.empty_span);
  const double unattributed = Median(series.residual);
  out->Note("layer sum at p10: bare %.2f + ingest %.2f + handoff %.2f + sampling %.2f = %.2f vs "
            "traced %.2f ns/event; per-round median unattributed %.1f%%",
            bare, noop - bare, handoff, 2 * *empty_span_ns / kSampleEvery,
            noop + handoff + 2 * *empty_span_ns / kSampleEvery, traced, 100 * unattributed);
  std::vector<double> samples;
  for (const ProducerLocal& local : g_producers) {
    for (const uint32_t ns : local.durations) {
      samples.push_back(ns - *empty_span_ns);
    }
  }

  // Checker side. Inline, what dispatch costs the program: the baseline tap
  // window minus the no-op window, cache interference included. Async, the
  // queue consumers' thread-CPU time or the sidecar's own spans.
  const double tap_base = P10(series.taps[0]);
  double dispatch_ns = tap_base - noop, busy_share = (tap_base - noop) / tap_base;
  double events_per_batch = 1;
  double poll_share = 0;
  if (stack.queue != nullptr) {
    const uint64_t consumed = queue_after.events - queue_before.events;
    dispatch_ns = static_cast<double>(queue_after.busy_ns - queue_before.busy_ns) / consumed;
    busy_share = static_cast<double>(queue_after.max_busy_ns - queue_before.max_busy_ns) /
                 series.fed_window_ns;
    events_per_batch = static_cast<double>(consumed) / (queue_after.batches - queue_before.batches);
  } else if (stack.sidecar != nullptr) {
    const uint64_t processed = sidecar_after.processed - sidecar_before.processed;
    const uint64_t poll = sidecar_after.poll_ns - sidecar_before.poll_ns;
    const uint64_t dispatch = sidecar_after.dispatch_ns - sidecar_before.dispatch_ns;
    dispatch_ns = static_cast<double>(dispatch) / processed;
    busy_share = static_cast<double>(poll + dispatch) / series.fed_window_ns;
    events_per_batch =
        static_cast<double>(processed) / (sidecar_after.batches - sidecar_before.batches);
    poll_share = static_cast<double>(poll) / (poll + dispatch);
  }
  const double events = static_cast<double>(after.events - before.events);
  auto delta = [&](uint64_t RuntimeStats::* field) {
    return static_cast<double>(after.*field - before.*field);
  };

  out->Add("program.ns_per_event", bare, "ns/event");
  out->Add("program.events_per_op",
           static_cast<double>(series.product_events) / series.product_ops, "count");
  out->Add("ingest.ns_per_event", noop - bare, "ns/event");
  out->Add("handoff.p50_ns", Median(samples), "ns");
  out->Add("handoff.p99_ns", bench::Percentile(samples, 0.99), "ns");
  out->Add("handoff.samples", static_cast<double>(samples.size()), "count");
  out->Add("checker.dispatch_ns_per_event", dispatch_ns, "ns/event");
  out->Add("checker.busy_share", busy_share, "fraction");
  out->Add("checker.drain_wait_share",
           static_cast<double>(series.product_wait_ns) / series.product_window_ns, "fraction");
  out->Add("checker.events_per_batch", events_per_batch, "count");
  out->Add("runtime.transitions_per_event", delta(&RuntimeStats::transitions) / events, "count");
  out->Add("runtime.instances_per_bound",
           (delta(&RuntimeStats::instances_created) + delta(&RuntimeStats::instances_cloned)) /
               delta(&RuntimeStats::bound_entries),
           "count");
  out->Add("runtime.ignored_share", delta(&RuntimeStats::ignored_events) / events, "fraction");
  out->Add("runtime.unmatched_returns", delta(&RuntimeStats::unmatched_returns), "count");
  out->Add("runtime.index_probes_per_kev", 1e3 * delta(&RuntimeStats::index_probes) / events,
           "count");
  out->Add("runtime.index_scans_per_kev", 1e3 * delta(&RuntimeStats::index_scans) / events,
           "count");
  out->Add("runtime.shard_handoffs_per_kev", 1e3 * delta(&RuntimeStats::shard_handoffs) / events,
           "count");
  out->Add("queue.blocked_spins_per_kev",
           1e3 * static_cast<double>(queue_after.blocked_spins - queue_before.blocked_spins) /
               series.fed_events,
           "count");
  out->Add("queue.forwards_per_event",
           static_cast<double>(queue_after.forwards - queue_before.forwards) / events, "count");
  out->Add("queue.steals_per_kev",
           1e3 * static_cast<double>(queue_after.steals - queue_before.steals) / events, "count");
  out->Add("queue.drops", static_cast<double>(queue_after.drops), "count");
  const ipc::PublisherStats published =
      stack.publisher != nullptr ? stack.publisher->stats() : ipc::PublisherStats{};
  out->Add("ipc.poll_share", poll_share, "fraction");
  out->Add("ipc.dropped", static_cast<double>(published.dropped), "count");
  out->Add("ipc.lane_overflow", static_cast<double>(published.lane_overflow), "count");
  for (size_t k = 1; k < kAblationCount; k++) {
    out->Add(kAblations[k].metric, P10(series.taps[k]) - tap_base, "ns/event");
  }
  MeasureCapture(*runner.taps()[kCaptureTap], capture_events, capture_path, out);
  out->Add("bench.span_overhead_ns", *empty_span_ns, "ns");
  out->Add("bench.trace_overhead_ns_per_event", traced - P10(series.product), "ns/event");
  out->Add("bench.window_p50_ns_per_event", Median(series.product), "ns/event");
  out->Add("bench.window_p99_ns_per_event", bench::Percentile(series.product, 0.99), "ns/event");
  out->Add("bench.unattributed_share", std::fabs(unattributed), "fraction");
  for (const SetupTimes& t : setups) {
    g_producers[0].AddSpan(kSpanCompile, t.start, t.compiled, -1, 0);
    g_producers[0].AddSpan(kSpanRegister, t.compiled, t.registered, -1, 0);
    g_producers[0].AddSpan(kSpanBoot, t.registered, t.booted, -1, 0);
  }
  out->Add("parser.compile_s", SetupP10(setups, &SetupTimes::compile_s), "s");
  out->Add("runtime.register_s", SetupP10(setups, &SetupTimes::register_s), "s");
  out->Add("setup.boot_s", SetupP10(setups, &SetupTimes::boot_s), "s");
  out->Add("bench.failures", static_cast<double>(out->failed), "count");
  out->Note("%zu traced rounds; tap baseline %.2f ns/event", series.product.size(), tap_base);
  return true;
}

Outcome RunTraced(const WorkloadSpec& spec, uint64_t seed, const Plan& plan,
                  const std::string& trace_path) {
  Outcome out;
  for (ProducerLocal& local : g_producers) {
    local.spans.reserve(kSpanCapacity);
    local.durations.reserve(kSampleCapacity);
  }
  // The set-ups come first, while no other stack is alive (see TimeSetups),
  // after one untimed set-up that pays the process's first-touch costs.
  std::vector<SetupTimes> setups;
  if (!TimeSetups(spec, seed, false, 1, &setups, &out)) {
    return out;
  }
  setups.clear();
  if (!TimeSetups(spec, seed, false, plan.setup_reps, &setups, &out)) {
    return out;
  }
  std::unique_ptr<Stack> stack = BuildRunStack(spec, seed, false, &out);
  const std::string capture_path =
      (trace_path.empty() ? "bench_e2e-" + std::to_string(::getpid()) : trace_path) + ".tslatrc";
  double empty_span_ns = 0;
  if (stack == nullptr ||
      !TraceWindows(spec, seed, plan, setups, capture_path, *stack, &empty_span_ns, &out)) {
    return out;
  }
  if (!trace_path.empty() && !WriteSpans(trace_path, spec, seed, empty_span_ns)) {
    out.Fail("could not write " + trace_path);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output

// Prints every metric by name with its unit, then the one-line JSON result.
// A non-finite value is refused rather than printed: JSON has no spelling
// for nan or inf, and a ratio over an empty base must never reach a report.
bool PrintResult(const WorkloadSpec& spec, const char* kind, const Outcome& out) {
  for (const Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "bench_e2e: metric %s is not finite\n", metric.name.c_str());
      return false;
    }
  }
  std::printf("# bench_e2e %s run of %s\n", kind, spec.name);
  for (const std::string& note : out.notes) {
    std::printf("#   %s\n", note.c_str());
  }
  for (const Metric& metric : out.metrics) {
    std::printf("%-46s %18.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (size_t i = 0; i < out.metrics.size(); i++) {
    const Metric& metric = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <file>] "
               "[--smoke]\nworkloads:");
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
  bool traced = false;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& candidate : kWorkloads) {
        if (name == candidate.name) {
          spec = &candidate;
        }
      }
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
      traced = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  if (spec == nullptr || !(seconds > 0)) {
    return Usage();
  }

  Plan plan;
  plan.seconds = seconds;
  if (smoke) {
    plan = Plan{0.2, 3, 4, 10, 10, 4};
  }
  bool correct = true;
  if (smoke || !traced) {
    const Outcome out = RunUntraced(*spec, seed, plan);
    correct = PrintResult(*spec, "untraced", out) && out.correct;
  }
  if (smoke || traced) {
    const Outcome out = RunTraced(*spec, seed, plan, trace_path);
    correct = PrintResult(*spec, "traced", out) && out.correct && correct;
  }
  return correct ? 0 : 1;
}

// Cross-process transport: what does shipping an event into the shm segment
// cost the instrumented caller, versus the in-process async queue?
//
// Both paths interpose the same Runtime ingest hook and pay one SPSC-ring
// push per event; the shm lane speaks the queue's word format minus the
// context-pointer word, but its indices and words live in a mapped segment
// (cross-process atomics, a page-faultable region) instead of process-local
// heap. The DESIGN.md contract, self-gated here and diffed in CI against
// the committed BENCH_ipc.json: the shm enqueue costs at most 2× the
// in-process queue enqueue — going cross-process must not change the
// instrumented binary's cost class.
//
// Protocol (both sides identical, mirroring bench_queue): timed bursts into
// a ring with headroom; the consumer catches up between bursts, untimed.
// The shm consumer drains raw (PollLane, decode-and-discard) — dispatch
// cost belongs to the sidecar and is bench_queue's consumer story, not the
// producer's enqueue story measured here — and idles like the sidecar's
// ipc::DrainAll, sleeping 100 us on an empty poll. A consumer that re-polls
// an empty lane in a yield loop reads the lane's lines while the producer
// writes them, and the producer then pays for cache-line transfers a real
// sidecar never causes (measured: 1.1x-3.3x from run to run, against
// 0.9x-1.15x with the sleep).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "automata/lower.h"
#include "bench/bench_util.h"
#include "ipc/publisher.h"
#include "ipc/subscriber.h"
#include "queue/queue.h"
#include "runtime/runtime.h"

namespace {

using namespace tesla;

// The same workload as bench_queue: four global automata over one alphabet,
// so the hook-side cost being measured sits on an identical event stream.
constexpr const char* kSource =
    "TESLA_GLOBAL(call(begin_txn), returnfrom(end_txn), previously(check(x) == 0))";
constexpr int kClasses = 4;
constexpr int kEventsPerBound = 3 + kClasses;

struct Workload {
  std::unique_ptr<runtime::Runtime> rt;
  uint32_t ids[kClasses] = {};
  Symbol begin_txn, check, end_txn;
};

Workload MakeWorkload() {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  Workload w;
  w.rt = std::make_unique<runtime::Runtime>(options);
  automata::Manifest manifest;
  for (int i = 0; i < kClasses; i++) {
    const std::string name = "ipc-bench-" + std::to_string(i);
    auto automaton = automata::CompileAssertion(kSource, {}, name);
    if (!automaton.ok()) {
      std::fprintf(stderr, "compile: %s\n", automaton.error().ToString().c_str());
      w.rt = nullptr;
      return w;
    }
    manifest.Add(std::move(automaton.value()));
  }
  if (!w.rt->Register(manifest).ok()) {
    w.rt = nullptr;
    return w;
  }
  for (int i = 0; i < kClasses; i++) {
    w.ids[i] = static_cast<uint32_t>(w.rt->FindAutomaton("ipc-bench-" + std::to_string(i)));
  }
  w.begin_txn = InternString("begin_txn");
  w.check = InternString("check");
  w.end_txn = InternString("end_txn");
  return w;
}

void DriveBound(runtime::Runtime& rt, runtime::ThreadContext& ctx, const Workload& w,
                int64_t v) {
  rt.OnFunctionCall(ctx, w.begin_txn, {});
  int64_t args[] = {v % 7};
  rt.OnFunctionReturn(ctx, w.check, args, 0);
  runtime::Binding site[] = {{0, v % 7}};
  for (uint32_t id : w.ids) {
    rt.OnAssertionSite(ctx, id, site);
  }
  rt.OnFunctionReturn(ctx, w.end_txn, {}, 0);
}

// In-process queue enqueue, the reference: timed bursts, Flush() (untimed)
// between them so every burst sees ring headroom.
double MeasureQueueEnqueueNs(double min_seconds) {
  Workload w = MakeWorkload();
  if (w.rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*w.rt);
  queue::QueueOptions options;
  options.ring_capacity = 1 << 16;
  options.install_hook = true;
  queue::EventQueue q(*w.rt, options);
  q.Start();

  const int kBurstBounds = (1 << 14) / kEventsPerBound;
  for (int burst = 0; burst < 10; burst++) {  // warm the ring's pages, untimed
    for (int i = 0; i < kBurstBounds; i++) {
      DriveBound(*w.rt, ctx, w, i);
    }
    q.Flush();
  }

  double best_per_event = 1e300;
  double timed_seconds = 0;
  while (timed_seconds < min_seconds) {
    q.Flush();
    const auto begin = bench::Clock::now();
    for (int i = 0; i < kBurstBounds; i++) {
      DriveBound(*w.rt, ctx, w, i);
    }
    const double elapsed = bench::SecondsSince(begin);
    timed_seconds += elapsed;
    best_per_event = std::min(best_per_event, elapsed / (kBurstBounds * kEventsPerBound));
  }
  const uint64_t dropped = q.totals().dropped;
  q.Stop();
  if (w.rt->stats().violations != 0 || dropped != 0) {
    std::fprintf(stderr, "queue workload diverged\n");
    return -1;
  }
  return best_per_event * 1e9;
}

// Shm-lane enqueue: the publisher's ingest hook ships every event into the
// mapped segment; an attached in-process subscriber decode-and-discards on
// another thread. Between bursts the producer waits (untimed) until the
// drain has caught up, so every timed burst pushes into lane headroom.
double MeasureShmEnqueueNs(double min_seconds) {
  Workload w = MakeWorkload();
  if (w.rt == nullptr) {
    return -1;
  }
  runtime::ThreadContext ctx(*w.rt);
  const std::string name = "tesla_bench_ipc_" + std::to_string(::getpid());
  ipc::PublisherOptions options;
  options.lanes = 1;
  options.lane_capacity_events = 1 << 16;
  ipc::ShmPublisher publisher(*w.rt, name, options);
  if (!publisher.Start("bench:ipc").ok()) {
    std::fprintf(stderr, "shm publisher failed to start\n");
    return -1;
  }

  auto attached = ipc::ShmSubscriber::Attach(name, 2000);
  if (!attached.ok()) {
    std::fprintf(stderr, "attach: %s\n", attached.error().ToString().c_str());
    return -1;
  }
  ipc::ShmSubscriber& subscriber = *attached.value();
  subscriber.InternSymbols();  // the spellings are already interned here; no-op remap

  std::atomic<uint64_t> drained{0};
  std::thread drainer([&subscriber, &drained] {
    std::vector<runtime::Event> batch;
    while (true) {
      batch.clear();
      const bool was_closed = subscriber.closed();
      const size_t got = subscriber.PollLane(0, batch, 1024);
      if (got == 0) {
        if (was_closed) {
          return;  // empty after closed: the lane is dry for good
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));  // as DrainAll
        continue;
      }
      drained.fetch_add(got, std::memory_order_release);
    }
  });

  const int kBurstBounds = (1 << 14) / kEventsPerBound;
  uint64_t pushed = 0;
  auto burst = [&](bool timed, double* out_elapsed) {
    // Untimed: wait for full drain so the burst never sees backpressure.
    while (drained.load(std::memory_order_acquire) < pushed) {
      std::this_thread::yield();
    }
    const auto begin = bench::Clock::now();
    for (int i = 0; i < kBurstBounds; i++) {
      DriveBound(*w.rt, ctx, w, i);
    }
    const double elapsed = bench::SecondsSince(begin);
    pushed += static_cast<uint64_t>(kBurstBounds) * kEventsPerBound;
    if (timed && out_elapsed != nullptr) {
      *out_elapsed = elapsed;
    }
  };

  for (int i = 0; i < 10; i++) {  // page-fault the lane words, untimed
    burst(false, nullptr);
  }
  double best_per_event = 1e300;
  double timed_seconds = 0;
  while (timed_seconds < min_seconds) {
    double elapsed = 0;
    burst(true, &elapsed);
    timed_seconds += elapsed;
    best_per_event = std::min(best_per_event, elapsed / (kBurstBounds * kEventsPerBound));
  }

  publisher.Stop();
  drainer.join();
  const ipc::PublisherStats stats = publisher.stats();
  if (stats.published != pushed || stats.dropped != 0 || stats.lane_overflow != 0 ||
      drained.load() != pushed) {
    std::fprintf(stderr, "shm workload diverged (published=%llu pushed=%llu drained=%llu)\n",
                 static_cast<unsigned long long>(stats.published),
                 static_cast<unsigned long long>(pushed),
                 static_cast<unsigned long long>(drained.load()));
    return -1;
  }
  return best_per_event * 1e9;
}

}  // namespace

int main() {
  // The 2x gate below compares two best-of-bursts minima, so both loops get
  // the full window even in smoke mode: 10 ms windows hold too few bursts
  // for the minimum to settle, and the ratio then swings past the bound on
  // an idle machine.
  const double min_seconds = 0.3;

  std::printf("Cross-process transport: shm-lane enqueue vs in-process queue enqueue\n");

  const double queue_ns = MeasureQueueEnqueueNs(min_seconds);
  const double shm_ns = MeasureShmEnqueueNs(min_seconds);
  if (queue_ns < 0 || shm_ns < 0) {
    return 1;
  }
  const double ratio = queue_ns > 0 ? shm_ns / queue_ns : 0;

  std::printf("\n%-36s %12.1f ns/event\n", "queue enqueue (in-process ring)", queue_ns);
  std::printf("%-36s %12.1f ns/event\n", "shm enqueue (cross-process lane)", shm_ns);
  std::printf("%-36s %12.2fx\n", "shm vs queue", ratio);
  std::printf("\nexpected shape: both paths are one SPSC push behind the same ingest\n");
  std::printf("hook; the shm lane drops the context word but writes a mapped segment.\n");
  std::printf("Going cross-process must stay within 2x of the in-process enqueue.\n");

  bench::JsonReport report("ipc");
  report.Add("queue_ring.enqueue_ns_per_event", queue_ns, "ns/event");
  report.Add("shm_ring.enqueue_ns_per_event", shm_ns, "ns/event");
  report.Add("shm_vs_queue_ratio", ratio, "x");
  bool ok = report.Write();
  if (ratio > 2.0) {
    std::fprintf(stderr, "FAIL: shm enqueue %.2fx the queue enqueue (> 2x)\n", ratio);
    ok = false;
  }
  return ok ? 0 : 1;
}

// tesla::queue — the bounded asynchronous ingestion front-end.
//
// The paper's runtime sits inline on every instrumented call (§4.3): the
// thread that executed the call also pays pattern matching, instance
// updates and, for global automata, lock acquisition. An EventQueue moves
// all of that off the instrumented hot path: producer threads enqueue
// trivially-copyable runtime::Events into per-producer SPSC rings
// (src/queue/ring.h) and QueueOptions::consumers drain threads feed runs of
// same-context records through Runtime::OnEventsScoped() in batches.
// Instrumented callers pay only the enqueue — tens of nanoseconds —
// regardless of how expensive dispatch is.
//
// Multi-consumer dispatch. Each producer has a *home* consumer
// (registration index modulo the consumer count); each consumer *owns* the
// unpinned global shards congruent to its index (Runtime::AssignShardOwners),
// so owned shards have exactly one writer and skip their spinlock on the
// drain hot path. A record is dispatched in two stages mirroring the
// runtime's DispatchScope:
//
//   * the claiming consumer runs the context stage (per-thread classes,
//     pinned global classes, stats/trace) plus the unpinned shards it owns,
//     via OnEventsScoped{context = true, its shard mask};
//   * for every touched unpinned shard it does NOT own
//     (Runtime::ShardStageMask), it forwards the record — once per
//     destination consumer — through a per-(producer, consumer) SPSC
//     forward ring; the destination dispatches it with
//     OnEventsScoped{context = false, its shard mask}.
//
// Batch processing of one producer's ring is serialised by a per-producer
// claim (an atomic consumer-id CAS), which is what makes the forward rings
// single-producer: only the claim holder pushes. The claim also enables
// bounded *work stealing*: an idle consumer may claim another consumer's
// producer once its backlog exceeds QueueOptions::steal_backlog_words and
// drain one batch, playing the home-consumer role for it (context stage
// with its own shard mask, forwards for the rest) — per-shard single-writer
// is never violated because shard work always runs on the shard's owner.
//
// Interposition. Start() installs a Runtime ingest hook, so the existing
// entry points (scope guards, simulators, generated translators) route
// through the queue with no caller changes; a hook return of false (queue
// not running) falls back to inline dispatch. Inline dispatches that touch
// a consumer-owned shard run the runtime's handoff protocol
// (RuntimeStats::shard_handoffs). Register all automata before Start():
// consumer shard masks are computed once from the compiled plan.
//
// Ordering. Each producer's ring is FIFO and claims serialise its batches,
// so the context stage of one producer's events runs in enqueue order; a
// forward ring is FIFO per (producer, consumer) pair, so each shard also
// sees one producer's events in enqueue order. No order is defined
// *between* producers — the same as inline dispatch, where cross-thread
// interleaving was already scheduler-chosen.
//
// Backpressure. A full ring either blocks the producer until a consumer
// frees slots (QueueOptions::OnFull::kBlock — lossless, bounded memory;
// wait iterations are counted as ProducerStats::blocked_spins) or drops the
// event (kDrop — lossless callers, bounded latency), counted per-producer
// and folded into RuntimeStats::queue_drops. A consumer blocked on a full
// *forward* ring drains its own forward-ins while waiting, so two mutually
// forwarding consumers cannot deadlock.
//
// Shutdown. Stop() uninstalls the hook, then runs a two-phase flush: every
// consumer drains its producers' rings to empty (work already claimed by a
// thief included), and once all consumers are past that barrier each drains
// its forward-ins to empty before exiting — all accepted events complete
// both stages (flush-on-stop), after which Enqueue() rejects. Producers
// must quiesce (stop emitting) before Stop() for the flush guarantee to be
// total, and every ThreadContext enqueued through must outlive Stop().
#ifndef TESLA_QUEUE_QUEUE_H_
#define TESLA_QUEUE_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "queue/ring.h"
#include "runtime/runtime.h"
#include "support/spinlock.h"

namespace tesla::queue {

// One queued unit: the event plus the serialisation context it was produced
// under. Carrying the context pointer (not a copy of anything inside it)
// keeps the paper's per-thread serialisation semantics intact across the
// thread hop — the consumer dispatches into the producer's own context, so
// automaton instances, flight-recorder attribution and metrics shards all
// land exactly where an inline dispatch would have put them. The context
// must outlive EventQueue::Stop(). In a ring it is the context word followed
// by the event's record (ring.h).
struct QueueRecord {
  runtime::ThreadContext* ctx = nullptr;
  runtime::Event event;
};

struct QueueOptions {
  // What a producer does when its ring is full: block until the consumer
  // catches up, or drop the event (counted per producer and in
  // RuntimeStats::queue_drops).
  enum class OnFull { kBlock, kDrop };
  OnFull on_full = OnFull::kBlock;

  // Per-producer ring capacity in events: at least this many worst-case
  // records always fit (records are variable-length, so small events pack
  // denser — see ring.h). Forward rings use the same capacity.
  size_t ring_capacity = 4096;

  // Upper bound on events handed to one Runtime::OnEventsScoped() call.
  // Bounds shard-lock hold times when global automata are registered, and
  // is the unit of work stealing (a thief takes at most one batch).
  size_t batch_events = 256;

  // Drain threads. Each consumer owns the unpinned global shards congruent
  // to its index modulo this count and is home to the producers congruent
  // to theirs. Clamped to [1, 64]; 1 reproduces the single-consumer queue
  // (no forward rings are allocated, no records are ever forwarded).
  size_t consumers = 1;

  // An idle consumer steals a batch from another consumer's producer only
  // when that ring's backlog is at least this many words (~5 words per
  // typical event — see ring.h). 0 disables stealing.
  size_t steal_backlog_words = 512;

  // Interpose on Runtime::OnEvent via the ingest hook (Start/Stop install
  // and remove it). Off for callers that feed Enqueue() directly.
  bool install_hook = true;
};

// Per-producer accounting, all monotonic.
struct ProducerStats {
  uint64_t enqueued = 0;       // accepted into the ring
  uint64_t dropped = 0;        // OnFull::kDrop with a full ring
  uint64_t rejected = 0;       // Enqueue() while the queue was not running
  uint64_t blocked_spins = 0;  // OnFull::kBlock wait iterations
};

// Per-consumer accounting, all monotonic (cumulative across restarts).
struct ConsumerStats {
  uint64_t batches = 0;       // OnEventsScoped batches dispatched (context stage)
  uint64_t events = 0;        // records dispatched in the context stage
  uint64_t forwards_in = 0;   // forwarded records dispatched (shard stage)
  uint64_t forwards_out = 0;  // records forwarded to other consumers
  uint64_t steals = 0;        // batches stolen from other consumers' producers
  uint64_t busy_ns = 0;       // thread-CPU time spent dispatching
};

class EventQueue {
 public:
  explicit EventQueue(runtime::Runtime& rt, QueueOptions options = {});
  ~EventQueue();  // Stops if still running.

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Spawns the consumer threads, assigns them the runtime's unpinned shards
  // and (install_hook) interposes on OnEvent. Idempotent while running; a
  // stopped queue may be restarted.
  void Start();

  // Uninstalls the hook, flushes every ring — both dispatch stages of all
  // accepted events complete — and joins the consumers. Idempotent.
  void Stop();

  // Blocks until every event enqueued before the call has completed both
  // dispatch stages, without stopping the queue — a checkpoint barrier for
  // callers that want to read violation counts or stats mid-run. Two
  // phases: context-stage dispatch catches up with enqueues, then
  // forwarded shard-stage work catches up with the forwards those
  // dispatches produced. Only meaningful while the caller's producers are
  // quiescent (otherwise the target moves). Returns immediately when the
  // queue is not running. Dispatches completed before Flush() returns
  // happen-before the return (release/acquire on the progress counters).
  void Flush() const;

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Producer-side entry: copies `event` into the calling thread's ring.
  // True when the queue took ownership (including a policy drop); false
  // when the queue is not running — the caller should dispatch inline.
  bool Enqueue(runtime::ThreadContext& ctx, const runtime::Event& event);

  // Accounting snapshots (safe to call concurrently with producers and
  // consumers; consumer stats remain readable after Stop()).
  ProducerStats totals() const;
  std::vector<ProducerStats> producer_stats() const;
  size_t producer_count() const;
  std::vector<ConsumerStats> consumer_stats() const;
  size_t consumer_count() const { return consumer_count_; }

 private:
  // A claimant value meaning "no consumer is processing this producer".
  static constexpr uint32_t kNoConsumer = UINT32_MAX;

  struct Producer {
    Producer(size_t capacity, std::thread::id id, uint32_t index,
             size_t consumers);
    EventRing ring;
    std::thread::id owner;
    const uint32_t index;  // registration order; home consumer = index % consumers
    // Which consumer is currently processing this producer's batches
    // (kNoConsumer: none). The CAS/store pair is the release/acquire edge
    // that serialises successive claimants' pushes into `forwards` and pops
    // from `ring`. Its own cacheline: consumers CAS it every round, and the
    // producer reads the ring's fields on every push.
    alignas(64) std::atomic<uint32_t> claimant{kNoConsumer};
    // Written by the owning producer thread, read by stats snapshots.
    std::atomic<uint64_t> enqueued{0};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> blocked_spins{0};
    // Forward rings, one per consumer, allocated only when consumers > 1:
    // pushed by whichever consumer holds this producer's claim, popped by
    // the indexed consumer.
    std::vector<std::unique_ptr<EventRing>> forwards;
  };

  struct Consumer {
    uint32_t index = 0;
    // The unpinned global shards this consumer owns (bits s of the
    // runtime's unpinned mask with s % consumers == index).
    uint64_t shard_mask = 0;
    std::thread thread;
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> forwards_in{0};
    std::atomic<uint64_t> forwards_out{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> busy_ns{0};
    // Scratch for DrainForwardIns, touched only by this consumer's thread
    // (kept off the stack because PushForward drains re-entrantly while the
    // caller's batch buffer is live).
    std::vector<Producer*> fwd_round;
    std::vector<QueueRecord> fwd_batch;
    std::vector<runtime::Event> fwd_scratch;
  };

  // The calling thread's producer, registering it on first use. Cached in a
  // thread_local keyed by the queue's process-unique id, so the cache can
  // never alias a different (or destroyed) EventQueue.
  Producer& LocalProducer();
  Producer& RegisterProducer();

  static bool IngestThunk(void* state, runtime::ThreadContext& ctx,
                          const runtime::Event& event);

  bool TryClaim(Producer& producer, uint32_t consumer);
  void ReleaseClaim(Producer& producer);

  void ConsumerMain(Consumer& self);
  // Dispatches one claimed batch as its home/claiming consumer: pushes the
  // shard-stage forwards, then runs the context stage per ctx run.
  void ProcessBatch(Consumer& self, Producer& producer,
                    const std::vector<QueueRecord>& batch,
                    std::vector<runtime::Event>& scratch);
  // Pushes `record` to `dest`'s forward ring on `producer` (whose claim the
  // caller holds), draining own forward-ins while the ring is full.
  void PushForward(Consumer& self, Producer& producer, uint32_t dest,
                   const QueueRecord& record);
  // Drains this consumer's forward-in rings (shard stage). Returns records
  // dispatched.
  size_t DrainForwardIns(Consumer& self);
  // Drains one producer's forward ring into this consumer (shard stage).
  size_t DrainForwardRing(Consumer& self, Producer& producer);
  // Folds producer/consumer tallies into a metrics snapshot (the augmenter
  // registered with the runtime).
  void Augment(metrics::Snapshot& snapshot) const;

  runtime::Runtime& rt_;
  QueueOptions options_;
  const uint32_t consumer_count_;  // options_.consumers clamped to [1, 64]
  const uint64_t id_;  // process-unique, for the thread_local producer cache

  std::atomic<bool> running_{false};  // gates Enqueue
  std::atomic<bool> stop_{false};     // tells the consumers to flush and exit
  // Shutdown barrier: consumers that finished draining producer rings. The
  // forward-in flush is conclusive only once all consumers are counted (no
  // further forwards can be pushed).
  std::atomic<uint32_t> producers_done_{0};
  // Progress counters, cumulative across restarts (as the producer counters
  // are). dispatched_ counts context-stage records, forward_pushed_/
  // forward_done_ the shard-stage forwards; together they drive Flush().
  // Consumers bump them per batch and per forward, while every Enqueue()
  // reads running_ above: a cache line of their own keeps the producers'
  // flag load from false-sharing with the consumers' RMWs (it cost the
  // 2-consumer global workload ~20% whenever the heap put both on a line).
  alignas(64) std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> forward_pushed_{0};
  std::atomic<uint64_t> forward_done_{0};

  // Drain threads; rebuilt by Start(), kept after Stop() so consumer_stats()
  // outlives the run.
  std::vector<std::unique_ptr<Consumer>> consumers_;

  mutable Spinlock producers_lock_;  // guards the vector, not the rings
  std::vector<std::unique_ptr<Producer>> producers_;
};

}  // namespace tesla::queue

#endif  // TESLA_QUEUE_QUEUE_H_

#include "queue/queue.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <ctime>

#include "metrics/snapshot.h"

namespace tesla::queue {
namespace {

// Process-wide queue id source. Ids are never reused, so a thread_local
// producer cache stamped with an id can never alias a destroyed queue.
std::atomic<uint64_t> next_queue_id{1};

// A producer counter has one writer, its producer thread: a relaxed load
// and store, never a locked RMW on the enqueue path.
void BumpOwned(std::atomic<uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Thread-CPU time, the basis of ConsumerStats::busy_ns: actual dispatch
// work, independent of how many consumers the machine can run at once —
// total events / max per-consumer busy_ns is the drain throughput on the
// critical path, which equals wall-clock throughput once cores >= consumers.
uint64_t ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// A queue record on the ring is the context word, then the event's record.
// Always inlined: this is the producer's whole cost in Enqueue.
[[gnu::always_inline]] inline bool PushRecord(EventRing& ring, runtime::ThreadContext* ctx,
                                              const runtime::Event& event) {
  const EncodedEvent record = EncodeEvent(event);
  return ring.TryPush(1 + record.words, [&](auto&& put) {
    put(reinterpret_cast<uint64_t>(ctx));
    record.Write(put);
  });
}

// Appends up to `max` records to `out` in push order; returns the number
// popped.
size_t PopRecords(EventRing& ring, std::vector<QueueRecord>& out, size_t max) {
  return ring.Pop(max, [&out](RingWindow& window) {
    QueueRecord record;
    record.ctx = reinterpret_cast<runtime::ThreadContext*>(window.Take());
    if (!DecodeEvent(window, &record.event)) {
      return false;
    }
    out.push_back(record);
    return true;
  });
}

}  // namespace

EventQueue::Producer::Producer(size_t capacity, std::thread::id id,
                               uint32_t index, size_t consumers)
    : ring(std::max<size_t>(64, capacity * (1 + kMaxRecordWords))),  // worst-case records
      owner(id),
      index(index) {
  if (consumers > 1) {
    forwards.reserve(consumers);
    for (size_t c = 0; c < consumers; c++) {
      forwards.push_back(std::make_unique<EventRing>(ring.capacity()));
    }
  }
}

EventQueue::EventQueue(runtime::Runtime& rt, QueueOptions options)
    : rt_(rt),
      options_(options),
      consumer_count_(static_cast<uint32_t>(
          options.consumers < 1 ? 1 : (options.consumers > 64 ? 64 : options.consumers))),
      id_(next_queue_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.ring_capacity == 0) {
    options_.ring_capacity = 1;
  }
  if (options_.batch_events == 0) {
    options_.batch_events = 1;
  }
  // Fold queue accounting into every CollectMetrics() snapshot for the
  // queue's lifetime (not just while running, so post-Stop() snapshots
  // still carry the final tallies).
  rt_.SetMetricsAugmenter(
      [this](metrics::Snapshot& snapshot) { Augment(snapshot); });
}

EventQueue::~EventQueue() {
  Stop();
  rt_.SetMetricsAugmenter(nullptr);
}

void EventQueue::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return;
  }
  stop_.store(false, std::memory_order_relaxed);
  producers_done_.store(0, std::memory_order_relaxed);
  {
    // Rebuild the drain crew; the lock orders this against stats readers.
    LockGuard<Spinlock> guard(producers_lock_);
    consumers_.clear();
    const uint64_t unpinned = rt_.unpinned_shard_mask();
    for (uint32_t c = 0; c < consumer_count_; c++) {
      auto consumer = std::make_unique<Consumer>();
      consumer->index = c;
      for (uint32_t s = 0; s < 64; s++) {
        if (((unpinned >> s) & 1) != 0 && s % consumer_count_ == c) {
          consumer->shard_mask |= uint64_t{1} << s;
        }
      }
      consumers_.push_back(std::move(consumer));
    }
  }
  rt_.AssignShardOwners(consumer_count_);
  running_.store(true, std::memory_order_release);
  for (auto& consumer : consumers_) {
    consumer->thread =
        std::thread(&EventQueue::ConsumerMain, this, std::ref(*consumer));
  }
  if (options_.install_hook) {
    rt_.SetIngestHook(&EventQueue::IngestThunk, this);
  }
}

void EventQueue::Stop() {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  if (options_.install_hook) {
    rt_.SetIngestHook(nullptr, nullptr);
  }
  // Reject new enqueues (and release any kBlock spinner) before asking the
  // consumers to flush, so the "clean pass after observing stop" exit
  // condition is a real flush barrier rather than a race with producers.
  running_.store(false, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (auto& consumer : consumers_) {
    if (consumer->thread.joinable()) {
      consumer->thread.join();
    }
  }
  rt_.ReleaseShardOwners();
}

void EventQueue::Flush() const {
  // Phase 1: context-stage dispatch catches up with everything enqueued
  // before the call.
  const uint64_t target = totals().enqueued;
  while (running_.load(std::memory_order_acquire) &&
         dispatched_.load(std::memory_order_acquire) < target) {
    std::this_thread::yield();
  }
  // Phase 2: the shard-stage forwards those dispatches produced. Forwards
  // are pushed (and counted) before the batch's dispatched_ add, so once
  // phase 1 completes this snapshot covers every forward phase 1 implies.
  const uint64_t forward_target = forward_pushed_.load(std::memory_order_acquire);
  while (running_.load(std::memory_order_acquire) &&
         forward_done_.load(std::memory_order_acquire) < forward_target) {
    std::this_thread::yield();
  }
}

bool EventQueue::IngestThunk(void* state, runtime::ThreadContext& ctx,
                             const runtime::Event& event) {
  return static_cast<EventQueue*>(state)->Enqueue(ctx, event);
}

EventQueue::Producer& EventQueue::LocalProducer() {
  static thread_local uint64_t cached_queue = 0;
  static thread_local Producer* cached = nullptr;
  if (cached_queue != id_) {
    cached = &RegisterProducer();
    cached_queue = id_;
  }
  return *cached;
}

EventQueue::Producer& EventQueue::RegisterProducer() {
  const std::thread::id self = std::this_thread::get_id();
  LockGuard<Spinlock> guard(producers_lock_);
  // Re-registration (the thread's cache was evicted by another queue) must
  // find the existing producer: a second ring for the same thread would
  // break its FIFO guarantee.
  for (auto& producer : producers_) {
    if (producer->owner == self) {
      return *producer;
    }
  }
  producers_.push_back(std::make_unique<Producer>(
      options_.ring_capacity, self, static_cast<uint32_t>(producers_.size()),
      consumer_count_));
  return *producers_.back();
}

bool EventQueue::Enqueue(runtime::ThreadContext& ctx, const runtime::Event& event) {
  Producer& producer = LocalProducer();
  if (!running_.load(std::memory_order_acquire)) {
    BumpOwned(producer.rejected);
    return false;
  }
  if (PushRecord(producer.ring, &ctx, event)) {
    BumpOwned(producer.enqueued);
    return true;
  }
  if (options_.on_full == QueueOptions::OnFull::kDrop) {
    BumpOwned(producer.dropped);
    rt_.AccountQueueDrops(1);
    return true;  // taken by policy: dropped, never dispatched inline
  }
  // kBlock: wait for a consumer to free a slot. Bails out (rejecting the
  // event) if the queue stops while we wait, so Stop() can never deadlock
  // against a blocked producer.
  while (true) {
    BumpOwned(producer.blocked_spins);
    std::this_thread::yield();
    if (!running_.load(std::memory_order_acquire)) {
      BumpOwned(producer.rejected);
      return false;
    }
    if (PushRecord(producer.ring, &ctx, event)) {
      BumpOwned(producer.enqueued);
      return true;
    }
  }
}

bool EventQueue::TryClaim(Producer& producer, uint32_t consumer) {
  uint32_t expected = kNoConsumer;
  return producer.claimant.compare_exchange_strong(
      expected, consumer, std::memory_order_acquire, std::memory_order_relaxed);
}

void EventQueue::ReleaseClaim(Producer& producer) {
  producer.claimant.store(kNoConsumer, std::memory_order_release);
}

void EventQueue::ConsumerMain(Consumer& self) {
  std::vector<QueueRecord> batch;
  std::vector<runtime::Event> scratch;
  std::vector<Producer*> round;
  batch.reserve(options_.batch_events);
  scratch.reserve(options_.batch_events);
  int idle_rounds = 0;
  bool counted_done = false;
  while (true) {
    // Observe the stop flag *before* draining: events pushed before Stop()
    // flipped it are then guaranteed to be seen by this or a later pass,
    // and a clean pass after the observation means our rings are flushed.
    const bool stopping = stop_.load(std::memory_order_acquire);
    // Likewise the shutdown barrier: every forward push happens-before its
    // consumer's producers_done_ increment, so observing the full count
    // *before* an empty forward-in drain makes that drain conclusive.
    const bool all_done =
        counted_done &&
        producers_done_.load(std::memory_order_acquire) == consumer_count_;

    round.clear();
    {
      LockGuard<Spinlock> guard(producers_lock_);
      for (auto& producer : producers_) {
        round.push_back(producer.get());
      }
    }

    size_t drained = 0;
    bool clean = true;  // every home ring claimed and emptied this pass
    for (Producer* producer : round) {
      if (producer->index % consumer_count_ != self.index) {
        continue;
      }
      if (!TryClaim(*producer, self.index)) {
        clean = false;  // a thief is mid-batch; its forwards are still coming
        continue;
      }
      size_t popped;
      do {
        batch.clear();
        popped = PopRecords(producer->ring, batch, options_.batch_events);
        if (popped != 0) {
          ProcessBatch(self, *producer, batch, scratch);
          drained += popped;
        }
        // While stopping, drain to empty under one claim so a clean pass
        // is a real flush barrier; while running, take one batch and move
        // on so no producer starves.
      } while (stopping && popped != 0);
      ReleaseClaim(*producer);
    }

    drained += DrainForwardIns(self);

    if (stopping) {
      if (clean && !counted_done) {
        counted_done = true;
        producers_done_.fetch_add(1, std::memory_order_release);
      } else if (all_done && clean && drained == 0) {
        return;
      }
      continue;
    }

    // Idle and running: steal a batch from the most backlogged producer
    // homed elsewhere. The claim keeps the victim's batches serialised and
    // this consumer plays the home role for the stolen batch (context
    // stage with its own shard mask, forwards for the rest), so per-shard
    // single-writer still holds.
    if (drained == 0 && consumer_count_ > 1 && options_.steal_backlog_words != 0) {
      Producer* victim = nullptr;
      size_t best = options_.steal_backlog_words;
      for (Producer* producer : round) {
        if (producer->index % consumer_count_ == self.index) {
          continue;
        }
        const size_t words = producer->ring.ApproxWords();
        if (words >= best) {
          best = words;
          victim = producer;
        }
      }
      if (victim != nullptr && TryClaim(*victim, self.index)) {
        batch.clear();
        if (PopRecords(victim->ring, batch, options_.batch_events) != 0) {
          self.steals.fetch_add(1, std::memory_order_relaxed);
          rt_.AccountQueueSteals(1);
          ProcessBatch(self, *victim, batch, scratch);
          drained += batch.size();
        }
        ReleaseClaim(*victim);
      }
    }

    if (drained != 0) {
      idle_rounds = 0;
      continue;
    }
    // Idle: spin briefly (a producer is probably mid-burst), then back off
    // so an idle queue doesn't burn a core.
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

void EventQueue::ProcessBatch(Consumer& self, Producer& producer,
                              const std::vector<QueueRecord>& batch,
                              std::vector<runtime::Event>& scratch) {
  // Shard-stage forwards first: Flush()'s second phase snapshots
  // forward_pushed_ once dispatched_ covers the enqueues, so every forward
  // must be counted before this batch's dispatched_ add below.
  if (consumer_count_ > 1) {
    for (const QueueRecord& record : batch) {
      uint64_t shards = rt_.ShardStageMask(record.event) & ~self.shard_mask;
      uint64_t destinations = 0;
      while (shards != 0) {
        const int shard = std::countr_zero(shards);
        shards &= shards - 1;
        destinations |= uint64_t{1} << (static_cast<uint32_t>(shard) % consumer_count_);
      }
      while (destinations != 0) {
        const int dest = std::countr_zero(destinations);
        destinations &= destinations - 1;
        PushForward(self, producer, static_cast<uint32_t>(dest), record);
      }
    }
  }

  // Before dispatching this batch to our own shards, drain this producer's
  // forwards to us. When batches of one producer alternate between its home
  // consumer and a thief (work stealing), earlier batches' records for our
  // shards travel through this forward ring while the batch in hand would
  // be dispatched directly — dispatching it first would reorder the
  // producer's events on those shards. The claim we hold serialises every
  // pusher of this ring, so draining it to empty here is conclusive.
  if (consumer_count_ > 1) {
    DrainForwardRing(self, producer);
  }

  // Context stage: per-thread and pinned classes plus our own shards. A
  // ring is per-thread, so a popped batch is almost always one run; the
  // split only matters for direct Enqueue() callers juggling contexts.
  const uint64_t start_ns = ThreadCpuNs();
  const runtime::DispatchScope scope{true, self.shard_mask};
  size_t i = 0;
  while (i < batch.size()) {
    runtime::ThreadContext* ctx = batch[i].ctx;
    scratch.clear();
    size_t j = i;
    while (j < batch.size() && batch[j].ctx == ctx) {
      scratch.push_back(batch[j].event);
      j++;
    }
    rt_.OnEventsScoped(
        *ctx, std::span<const runtime::Event>(scratch.data(), scratch.size()),
        scope);
    rt_.AccountQueueBatch(j - i);
    self.batches.fetch_add(1, std::memory_order_relaxed);
    self.events.fetch_add(j - i, std::memory_order_relaxed);
    dispatched_.fetch_add(j - i, std::memory_order_release);
    i = j;
  }
  self.busy_ns.fetch_add(ThreadCpuNs() - start_ns, std::memory_order_relaxed);
}

void EventQueue::PushForward(Consumer& self, Producer& producer, uint32_t dest,
                             const QueueRecord& record) {
  EventRing& ring = *producer.forwards[dest];
  while (!PushRecord(ring, record.ctx, record.event)) {
    // The destination is backlogged. Drain our own forward-ins while we
    // wait: forwarded records are terminal (their dispatch never forwards
    // again), so this cannot recurse, and it breaks the cycle where two
    // consumers block pushing to each other.
    if (DrainForwardIns(self) == 0) {
      std::this_thread::yield();
    }
  }
  forward_pushed_.fetch_add(1, std::memory_order_relaxed);
  self.forwards_out.fetch_add(1, std::memory_order_relaxed);
  rt_.AccountQueueForwards(1);
}

size_t EventQueue::DrainForwardIns(Consumer& self) {
  if (consumer_count_ <= 1) {
    return 0;
  }
  auto& round = self.fwd_round;
  round.clear();
  {
    LockGuard<Spinlock> guard(producers_lock_);
    for (auto& producer : producers_) {
      round.push_back(producer.get());
    }
  }
  size_t total = 0;
  for (Producer* producer : round) {
    total += DrainForwardRing(self, *producer);
  }
  return total;
}

size_t EventQueue::DrainForwardRing(Consumer& self, Producer& producer) {
  const runtime::DispatchScope scope{false, self.shard_mask};
  EventRing& ring = *producer.forwards[self.index];
  size_t total = 0;
  while (true) {
    self.fwd_batch.clear();
    if (PopRecords(ring, self.fwd_batch, options_.batch_events) == 0) {
      break;
    }
    const uint64_t start_ns = ThreadCpuNs();
    size_t i = 0;
    while (i < self.fwd_batch.size()) {
      runtime::ThreadContext* ctx = self.fwd_batch[i].ctx;
      self.fwd_scratch.clear();
      size_t j = i;
      while (j < self.fwd_batch.size() && self.fwd_batch[j].ctx == ctx) {
        self.fwd_scratch.push_back(self.fwd_batch[j].event);
        j++;
      }
      rt_.OnEventsScoped(*ctx,
                         std::span<const runtime::Event>(
                             self.fwd_scratch.data(), self.fwd_scratch.size()),
                         scope);
      i = j;
    }
    const size_t n = self.fwd_batch.size();
    self.forwards_in.fetch_add(n, std::memory_order_relaxed);
    forward_done_.fetch_add(n, std::memory_order_release);
    self.busy_ns.fetch_add(ThreadCpuNs() - start_ns, std::memory_order_relaxed);
    total += n;
  }
  return total;
}

void EventQueue::Augment(metrics::Snapshot& snapshot) const {
  snapshot.queue_producers.clear();
  for (const ProducerStats& producer : producer_stats()) {
    metrics::QueueProducerSnapshot p;
    p.enqueued = producer.enqueued;
    p.dropped = producer.dropped;
    p.rejected = producer.rejected;
    p.blocked_spins = producer.blocked_spins;
    snapshot.queue_producers.push_back(p);
  }
  snapshot.queue_consumers.clear();
  for (const ConsumerStats& consumer : consumer_stats()) {
    metrics::QueueConsumerSnapshot c;
    c.batches = consumer.batches;
    c.events = consumer.events;
    c.forwards_in = consumer.forwards_in;
    c.forwards_out = consumer.forwards_out;
    c.steals = consumer.steals;
    c.busy_ns = consumer.busy_ns;
    snapshot.queue_consumers.push_back(c);
  }
}

ProducerStats EventQueue::totals() const {
  ProducerStats total;
  LockGuard<Spinlock> guard(producers_lock_);
  for (const auto& producer : producers_) {
    total.enqueued += producer->enqueued.load(std::memory_order_relaxed);
    total.dropped += producer->dropped.load(std::memory_order_relaxed);
    total.rejected += producer->rejected.load(std::memory_order_relaxed);
    total.blocked_spins += producer->blocked_spins.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<ProducerStats> EventQueue::producer_stats() const {
  std::vector<ProducerStats> out;
  LockGuard<Spinlock> guard(producers_lock_);
  out.reserve(producers_.size());
  for (const auto& producer : producers_) {
    ProducerStats stats;
    stats.enqueued = producer->enqueued.load(std::memory_order_relaxed);
    stats.dropped = producer->dropped.load(std::memory_order_relaxed);
    stats.rejected = producer->rejected.load(std::memory_order_relaxed);
    stats.blocked_spins = producer->blocked_spins.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

size_t EventQueue::producer_count() const {
  LockGuard<Spinlock> guard(producers_lock_);
  return producers_.size();
}

std::vector<ConsumerStats> EventQueue::consumer_stats() const {
  std::vector<ConsumerStats> out;
  LockGuard<Spinlock> guard(producers_lock_);
  out.reserve(consumers_.size());
  for (const auto& consumer : consumers_) {
    ConsumerStats stats;
    stats.batches = consumer->batches.load(std::memory_order_relaxed);
    stats.events = consumer->events.load(std::memory_order_relaxed);
    stats.forwards_in = consumer->forwards_in.load(std::memory_order_relaxed);
    stats.forwards_out = consumer->forwards_out.load(std::memory_order_relaxed);
    stats.steals = consumer->steals.load(std::memory_order_relaxed);
    stats.busy_ns = consumer->busy_ns.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

}  // namespace tesla::queue

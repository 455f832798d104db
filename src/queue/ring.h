// The bounded single-producer/single-consumer event ring and its record
// codec: the one ring behind tesla::queue (producer and forward rings on heap
// storage the ring owns) and tesla::ipc (shm lanes on mapped storage it
// borrows from a segment another process wrote).
//
// Ring. A `RingControl` {head, tail} plus a power-of-two array of 64-bit
// words. The producer owns head, the consumer owns tail, and each caches the
// other's index on its own cacheline, so a ring that is neither full nor
// empty costs no shared load. The producer stores a record's words relaxed,
// then release-publishes head; the consumer acquires head, decodes
// [tail, head), then release-publishes tail. Those two release/acquire pairs
// are the only synchronisation, and as atomics are address-free they work
// across processes on a mapped control block. A full ring fails TryPush;
// the caller blocks or drops.
//
// Record. An Event is 96 bytes but almost always nearly empty, so
// EncodeEvent stores only its live prefix:
//
//   word 0   header: kind | count << 8 | flags << 16 (truncated / has
//            return value / has vars / has timestamp) | target << 32
//   [1]      event timestamp, when stamped (timed clauses: the consumer
//            must see the *producer's* clock, not its own)
//   …        count argument values
//   [1]      return value, when non-zero
//   [0–2]    vars packed four per word, when any is non-zero (site events)
//
// This is lossless for every Event the factories in runtime/event.h build
// (values/vars beyond `count` are zero). A queue record is a ThreadContext*
// word the queue writes itself, then this encoding; a shm lane record is the
// encoding alone (a pointer means nothing in another address space).
//
// Decoder checks. A mapped lane is untrusted. Pop() rejects a window whose
// head is behind the tail or more than the capacity past it; DecodeEvent()
// rejects a kind past kAssertionSite, a count past kMaxEventArgs, an unknown
// header bit, or a record running past the acquired head. The first failure
// latches the ring corrupt and every later Pop() returns nothing, so a
// hostile lane can neither index past Event::values nor feed a drain loop
// made-up events forever. An honest producer never trips a check.
//
// trace::TraceRing stays separate: it overwrites its oldest record when full
// and detects torn reads, where this ring must never lose or tear an
// accepted event — one class for both would branch on its caller.
#ifndef TESLA_QUEUE_RING_H_
#define TESLA_QUEUE_RING_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/event.h"

namespace tesla::queue {

static_assert(sizeof(Symbol) == 4, "the header packs the target into 32 bits");
static_assert(runtime::kMaxEventArgs == 8,
              "vars packing and the worst-case record size assume 8 slots");
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "mapped rings require address-free lock-free atomics");

// Header word flags.
inline constexpr uint64_t kRecordTruncated = uint64_t{1} << 16;
inline constexpr uint64_t kRecordHasReturn = uint64_t{1} << 17;
inline constexpr uint64_t kRecordHasVars = uint64_t{1} << 18;
inline constexpr uint64_t kRecordHasTs = uint64_t{1} << 19;
// Bits 20–31 are unassigned; a header setting any of them is corrupt.
inline constexpr uint64_t kRecordUnknownBits = uint64_t{0xfff} << 20;

// Worst case: header, timestamp, 8 values, return value, 2 packed-vars words.
inline constexpr size_t kMaxRecordWords =
    1 + 1 + runtime::kMaxEventArgs + 1 + (runtime::kMaxEventArgs + 3) / 4;

// A record's length in words, from its header.
inline size_t RecordWords(uint64_t header) {
  const size_t count = (header >> 8) & 0xff;
  return 1 + ((header & kRecordHasTs) != 0 ? 1 : 0) + count +
         ((header & kRecordHasReturn) != 0 ? 1 : 0) +
         ((header & kRecordHasVars) != 0 ? (count + 3) / 4 : 0);
}

// An event's record as EncodeEvent lays it out: the header word, the packed
// vars and the length in words. Write() emits the words in order through
// `put(uint64_t)`.
struct EncodedEvent {
  const runtime::Event& event;
  uint64_t header;
  uint64_t vars[2];
  size_t words;

  template <typename Put>
  void Write(Put&& put) const {
    put(header);
    if ((header & kRecordHasTs) != 0) {
      put(event.ts_ns);
    }
    for (size_t i = 0; i < event.count; i++) {
      put(static_cast<uint64_t>(event.values[i]));
    }
    if ((header & kRecordHasReturn) != 0) {
      put(static_cast<uint64_t>(event.return_value));
    }
    if ((header & kRecordHasVars) != 0) {
      for (size_t i = 0; i < (event.count + 3u) / 4; i++) {
        put(vars[i]);
      }
    }
  }
};

inline EncodedEvent EncodeEvent(const runtime::Event& event) {
  EncodedEvent encoded{event, 0, {0, 0}, 0};
  for (size_t i = 0; i < event.count; i++) {
    encoded.vars[i / 4] |= static_cast<uint64_t>(event.vars[i]) << (16 * (i % 4));
  }
  const bool has_return = event.return_value != 0;
  const bool has_vars = (encoded.vars[0] | encoded.vars[1]) != 0;
  const bool has_ts = event.ts_ns != 0;
  encoded.header = static_cast<uint64_t>(event.kind) |
                   (static_cast<uint64_t>(event.count) << 8) |
                   (event.truncated ? kRecordTruncated : 0) |
                   (has_return ? kRecordHasReturn : 0) | (has_vars ? kRecordHasVars : 0) |
                   (has_ts ? kRecordHasTs : 0) | (static_cast<uint64_t>(event.target) << 32);
  encoded.words = RecordWords(encoded.header);
  return encoded;
}

// The published, not yet consumed words [pos, end) of a ring, as the
// consumer sees them during one Pop().
struct RingWindow {
  const std::atomic<uint64_t>* words;
  uint64_t mask;
  uint64_t pos;
  uint64_t end;

  uint64_t left() const { return end - pos; }
  uint64_t Take() { return words[pos++ & mask].load(std::memory_order_relaxed); }
};

// Decodes the record at the window's position into `event` (a fresh,
// zero-initialised Event). False when the record fails a decoder check.
inline bool DecodeEvent(RingWindow& window, runtime::Event* event) {
  if (window.left() == 0) {
    return false;
  }
  const uint64_t header = window.Take();
  const uint64_t kind = header & 0xff;
  const uint64_t count = (header >> 8) & 0xff;
  if (kind > static_cast<uint64_t>(runtime::EventKind::kAssertionSite) ||
      count > runtime::kMaxEventArgs || (header & kRecordUnknownBits) != 0 ||
      RecordWords(header) - 1 > window.left()) {
    return false;
  }
  event->kind = static_cast<runtime::EventKind>(kind);
  event->count = static_cast<uint8_t>(count);
  event->truncated = (header & kRecordTruncated) != 0;
  event->target = static_cast<Symbol>(header >> 32);
  if ((header & kRecordHasTs) != 0) {
    event->ts_ns = window.Take();
  }
  for (size_t i = 0; i < count; i++) {
    event->values[i] = static_cast<int64_t>(window.Take());
  }
  if ((header & kRecordHasReturn) != 0) {
    event->return_value = static_cast<int64_t>(window.Take());
  }
  if ((header & kRecordHasVars) != 0) {
    uint64_t packed = 0;
    for (size_t i = 0; i < count; i++) {
      if (i % 4 == 0) {
        packed = window.Take();
      }
      event->vars[i] = static_cast<uint16_t>(packed >> (16 * (i % 4)));
    }
  }
  return true;
}

// A ring's indices, a cacheline per side so the producer's head stores never
// bounce the consumer's tail line; each side's cached view of the other's
// index rides on its own line. In a shm segment this is the lane control
// block (TSLASHM1 lays out head at byte 0 and tail at byte 64).
struct RingControl {
  alignas(64) std::atomic<uint64_t> head{0};
  uint64_t cached_tail = 0;  // producer-owned
  alignas(64) std::atomic<uint64_t> tail{0};
  uint64_t cached_head = 0;  // consumer-owned
};
static_assert(sizeof(RingControl) == 128, "one cacheline per side");

class EventRing {
 public:
  // Heap storage the ring owns: a power of two of at least `min_words`.
  explicit EventRing(size_t min_words)
      : mask_(std::bit_ceil(min_words) - 1),
        owned_control_(std::make_unique<RingControl>()),
        owned_words_(std::make_unique<std::atomic<uint64_t>[]>(mask_ + 1)) {
    control_ = owned_control_.get();
    words_ = owned_words_.get();
  }

  // Mapped storage the ring borrows: `capacity_words` is a power of two and
  // both regions outlive the ring. Records already published when the view
  // is made count as settled for Pop's slip.
  EventRing(RingControl* control, std::atomic<uint64_t>* words, uint64_t capacity_words)
      : control_(control),
        words_(words),
        mask_(capacity_words - 1),
        seen_head_(control->head.load(std::memory_order_acquire)) {}

  // In words, not events.
  size_t capacity() const { return static_cast<size_t>(mask_ + 1); }

  // Approximate backlog in words, readable from any thread (both indices
  // are loaded fresh, so this is exact at some instant between the loads).
  // Used by idle queue consumers sizing up a ring before stealing a batch.
  size_t ApproxWords() const {
    return static_cast<size_t>(control_->head.load(std::memory_order_acquire) -
                               control_->tail.load(std::memory_order_acquire));
  }

  // Producer side. Wait-free; publishes one record of `count` words, which
  // `fill(put)` writes in order through `put(uint64_t)`. False means the
  // ring is full right now.
  template <typename Fill>
  bool TryPush(size_t count, Fill&& fill) {
    RingControl& ctl = *control_;
    const uint64_t head = ctl.head.load(std::memory_order_relaxed);
    if (head + count - ctl.cached_tail > mask_ + 1) {
      ctl.cached_tail = ctl.tail.load(std::memory_order_acquire);
      if (head + count - ctl.cached_tail > mask_ + 1) {
        return false;
      }
    }
    uint64_t pos = head;
    fill([this, &pos](uint64_t word) {
      words_[pos++ & mask_].store(word, std::memory_order_relaxed);
    });
    ctl.head.store(head + count, std::memory_order_release);
    return true;
  }

  // Consumer side: calls `decode(window)` once per record, in push order,
  // until `max` records are taken or the published words run out, then
  // frees the consumed words. `decode` reads exactly one record off the
  // window and returns false when it fails a check, which latches the ring
  // corrupt. Returns the number of records taken.
  //
  // `slip_words` != 0 keeps the consumer that many words behind a producer
  // that is still publishing: if the head moved since the previous Pop,
  // records starting within `slip_words` of the head's cache line stay for
  // a later call. A head that has not moved since the previous Pop (the
  // producer paused, finished or died) is drained to the end.
  template <typename Decode>
  size_t Pop(size_t max, Decode&& decode, uint64_t slip_words = 0) {
    if (corrupt_) {
      return 0;
    }
    RingControl& ctl = *control_;
    const uint64_t tail = ctl.tail.load(std::memory_order_relaxed);
    uint64_t limit = ~uint64_t{0};  // no record starting here or past it is taken
    if (slip_words != 0) {
      // Telling a moving producer from a paused one needs a fresh head on
      // every call.
      ctl.cached_head = ctl.head.load(std::memory_order_acquire);
      if (ctl.cached_head != seen_head_) {
        seen_head_ = ctl.cached_head;
        const uint64_t line = ctl.cached_head & ~uint64_t{7};
        limit = line > tail + slip_words ? line - slip_words : tail;
      }
    } else if (ctl.cached_head == tail) {
      ctl.cached_head = ctl.head.load(std::memory_order_acquire);
    }
    if (ctl.cached_head == tail) {
      return 0;
    }
    // Checked before the slip, so a hostile head latches on every path.
    RingWindow window{words_, mask_, tail, ctl.cached_head};
    if (window.left() > mask_ + 1) {
      corrupt_ = true;  // head behind the tail, or past a full ring
      return 0;
    }
    if (limit == tail) {
      return 0;
    }
    size_t popped = 0;
    uint64_t consumed = tail;  // end of the last good record
    while (window.left() != 0 && popped < max && window.pos < limit) {
      if (!decode(window)) {
        corrupt_ = true;
        break;
      }
      consumed = window.pos;
      popped++;
    }
    // A bad record stays unconsumed, so any later reader of the lane meets
    // it too instead of resynchronising inside it.
    ctl.tail.store(consumed, std::memory_order_release);
    return popped;
  }

  // A decoder check failed; the ring yields nothing from here on.
  bool corrupt() const { return corrupt_; }

 private:
  RingControl* control_;
  std::atomic<uint64_t>* words_;
  uint64_t mask_;
  bool corrupt_ = false;
  uint64_t seen_head_ = 0;  // the head the previous slipping Pop saw
  std::unique_ptr<RingControl> owned_control_;
  std::unique_ptr<std::atomic<uint64_t>[]> owned_words_;
};

}  // namespace tesla::queue

#endif  // TESLA_QUEUE_RING_H_

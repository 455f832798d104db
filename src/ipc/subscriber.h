// ShmSubscriber: the sidecar side of the cross-process capture transport
// (see src/ipc/shm.h for the segment protocol).
//
// Attach() maps a live segment published by an instrumented process this
// sidecar does not share code or address space with, and recovers everything
// needed to check the stream:
//   * the publisher's symbol table — InternSymbols() interns every spelling
//     into *this* process's interner and builds the id remap, so the
//     sidecar's dispatch plan routes the publisher's symbols;
//   * the publisher's trace::Plan — the embedded manifest text and origin
//     (the assertion set to register), the semantics-bearing runtime
//     options and the plan hints — so
//     the sidecar's Runtime reproduces the publisher's configuration and
//     routes every dispatch (index probe or scan) as the publisher's would.
//
// Call order matters: InternSymbols() must run before the sidecar's
// Runtime::Register(), which freezes the interner — a symbol interned after
// the plan is compiled would be unroutable.
//
// DrainAll() is the canonical consumption loop (`tesla-trace attach` wraps
// it): one ThreadContext per lane — a lane carries exactly one producer
// thread's events in order, so per-lane contexts preserve the paper's
// per-thread serialisation semantics — dispatched through Runtime::OnEvents
// until the publisher closes the segment or dies.
#ifndef TESLA_IPC_SUBSCRIBER_H_
#define TESLA_IPC_SUBSCRIBER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipc/shm.h"
#include "runtime/runtime.h"
#include "support/result.h"
#include "trace/format.h"

namespace tesla::ipc {

// Everything the segment header + regions describe about the publisher: its
// plan (the plan region) and the stream's geometry.
struct ShmInfo : trace::Plan {
  uint32_t lane_count = 0;
  uint32_t symbol_count = 0;
  int32_t producer_pid = 0;
};

struct DrainReport {
  uint64_t events = 0;           // events dispatched
  uint64_t batches = 0;          // OnEvents calls
  uint64_t producer_dropped = 0; // publisher-side full-lane drops
  uint64_t lane_overflow = 0;    // publisher events from threads past the lanes
  bool producer_died = false;    // publisher vanished without closing cleanly
  uint32_t corrupt_lanes = 0;    // lanes latched corrupt by the decoder
};

class ShmSubscriber {
 public:
  // Maps `name` and validates it. Waits up to `timeout_ms` for the segment
  // to appear and reach kLive (0: a single immediate attempt) — publishers
  // and sidecars race at startup by design. Errors carry trace::ErrorCode
  // values: kErrUnreadable when the name never appears, kErrCorrupt /
  // kErrVersionMismatch from validating the geometry, the plan region
  // (trace::Plan::Decode) or the symbol table.
  static Result<std::unique_ptr<ShmSubscriber>> Attach(const std::string& name,
                                                       int timeout_ms = 0);

  const ShmInfo& info() const { return info_; }

  // RuntimeOptions reproducing the publisher's semantics and plan
  // (trace::Plan::ToRuntimeOptions), so the sidecar routes every dispatch as
  // the publisher would (plus whatever the caller layers on top — metrics,
  // tracing).
  runtime::RuntimeOptions PublisherRuntimeOptions() const;

  // Interns every publisher symbol into this process's interner and builds
  // the id remap applied by PollLane(). Must precede Runtime::Register().
  void InternSymbols();

  // How far a polling sidecar trails a producer that is still publishing,
  // in lane words. A sidecar that reads the lane right behind the producer
  // makes the producer pay: on bench_e2e's oltp_shm (4-vCPU KVM guest) the
  // producer's ns_per_event read ~42 at slip 0, 42-45 when only whole 8-,
  // 16- or 32-word blocks were taken, 32 at slip 32, 22 at 64, 21 at 128
  // and 22 at 256. 128 is twice the smallest slip that removes the cost.
  static constexpr uint64_t kSlipWords = 128;

  // Drains up to `max` events from `lane` into `out` (appended), with
  // publisher symbol ids rewritten to this process's. While the producer
  // is live, records within kSlipWords of a head that moved since the
  // previous poll wait for a later poll (EventRing::Pop's slip); once the
  // segment is closed or ProducerDead() has seen the producer gone, every
  // published record is final and the lane drains to the end. Returns the
  // number appended. Site events' targets are automaton ids, not symbols, and pass
  // through untouched — manifest registration order preserves them. A lane
  // that failed a decoder check (queue/ring.h) yields nothing.
  size_t PollLane(uint32_t lane, std::vector<runtime::Event>& out, size_t max);

  // `lane` failed a decoder check and is latched corrupt.
  bool LaneCorrupt(uint32_t lane) const { return lanes_[lane].corrupt(); }

  // Clean shutdown observed (drain every lane to empty, then detach).
  bool closed() const;
  // The publisher process is gone without a clean close.
  bool ProducerDead() const;

  uint64_t dropped() const;        // publisher-side drop counter
  uint64_t lane_overflow() const;  // publisher-side overflow counter

  // Non-site events whose symbol id fell outside the segment's symbol
  // generation (interned by the publisher after Start) — left unmapped.
  uint64_t unknown_symbols() const { return unknown_symbols_; }

  ShmHeader& header_for_test() { return segment_->header(); }

 private:
  ShmSubscriber() = default;

  std::unique_ptr<ShmSegment> segment_;
  ShmInfo info_;
  std::vector<std::string> spellings_;  // publisher id → spelling
  std::vector<Symbol> remap_;           // publisher id → local symbol
  bool interned_ = false;
  std::vector<queue::EventRing> lanes_;
  uint64_t unknown_symbols_ = 0;
  mutable bool producer_dead_ = false;  // latched by ProducerDead()
};

// Drains every lane through `rt` until the publisher closes the segment (all
// lanes emptied after kClosed), dies (salvages what the lanes still hold,
// reports producer_died) or every lane is latched corrupt. Corrupt lanes are
// counted in corrupt_lanes; events decoded before a lane's first bad record
// are dispatched. The runtime must have the segment's manifest
// registered and must not be fed events by anyone else during the drain.
// Dispatched batches are folded into RuntimeStats::queue_events/queue_batches
// and publisher drops into queue_drops, so the usual exposition formats show
// transport accounting.
DrainReport DrainAll(ShmSubscriber& subscriber, runtime::Runtime& rt,
                     size_t batch_events = 256);

}  // namespace tesla::ipc

#endif  // TESLA_IPC_SUBSCRIBER_H_

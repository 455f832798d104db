// tesla::ipc shared-memory segment: the cross-process capture transport.
//
// A named POSIX shm segment carries TESLA events from an instrumented
// process (the *publisher*, src/ipc/publisher.h) to a sidecar checker it
// does not link against (the *subscriber*, src/ipc/subscriber.h — driven by
// `tesla-trace attach`). The segment is self-describing in the same spirit
// as a TSLATRC capture: besides the event lanes it embeds everything a
// fresh process needs to dispatch the stream — the publisher's interner
// table (so symbol ids remap) and its plan (trace::Plan: the origin, the
// manifest so the assertion set registers, the semantics-bearing runtime
// options and the plan inputs that move verdict counters), encoded exactly
// as a capture's plan section.
//
// Layout (offsets computed from the header's geometry fields):
//
//   ShmHeader                  magic "TSLASHM1", version, geometry and the
//                              live coordination atomics
//   symbol table               varint count, then count varint-length-
//                              prefixed spellings — the publisher interner's
//                              frozen prefix [0, symbol_count), written
//                              before the segment goes live (the "interner
//                              generation" the subscriber remaps against)
//   plan                       plan_bytes of trace::Plan::Encode()
//   RingControl × lane_count   per-lane head/tail, a cacheline each
//   lane words                 lane_count rings of lane_words 64-bit words
//
// Each lane is a queue::EventRing (src/queue/ring.h) borrowing its control
// block and words from the mapping. Its records are the ring's event
// encoding without the queue's leading context word — a pointer is
// meaningless across address spaces; the subscriber gives each lane its own
// ThreadContext instead, which preserves the paper's per-thread
// serialisation semantics because a lane has exactly one producer thread.
//
// Attach/detach protocol:
//   * the publisher creates the segment (O_CREAT|O_EXCL), writes geometry,
//     symbols and plan, then release-stores state = kLive;
//   * a subscriber opens the name, acquire-loads state until kLive (bounded
//     wait), validates magic/version/geometry against the mapped size, and
//     fetch_add's consumer_attached;
//   * the publisher's clean shutdown stores state = kClosed *after* its
//     producers quiesce; the subscriber drains every lane to empty after
//     observing kClosed, then detaches;
//   * producer death without kClosed is detected by the subscriber via
//     kill(producer_pid, 0) == ESRCH — the drain loop reports it and
//     salvages whatever the lanes still hold;
//   * the publisher shm_unlink()s the name once a consumer has attached
//     (an mmap keeps the segment alive until both sides unmap).
#ifndef TESLA_IPC_SHM_H_
#define TESLA_IPC_SHM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "queue/ring.h"
#include "support/result.h"

namespace tesla::ipc {

inline constexpr char kShmMagic[8] = {'T', 'S', 'L', 'A', 'S', 'H', 'M', '1'};
// v2: the plan region replaces v1's header options, origin and manifest.
// v3: the plan loses its index-population field (the gate is a runtime
// constant) and carries v2 hints text.
inline constexpr uint32_t kShmVersion = 3;
inline constexpr uint32_t kShmMaxLanes = 64;

enum class ShmState : uint32_t {
  kInitialising = 0,  // creator is still writing geometry/symbols/plan
  kLive = 1,          // publisher accepting events
  kClosed = 2,        // clean shutdown: drain to empty, then detach
};

struct ShmHeader {
  // --- immutable after state becomes kLive ---
  char magic[8];
  uint32_t version = 0;
  uint32_t lane_count = 0;
  uint64_t lane_words = 0;  // per lane, power of two
  uint64_t symtab_bytes = 0;
  uint64_t plan_bytes = 0;
  uint32_t symbol_count = 0;  // interner generation: spellings serialised

  // --- live coordination ---
  std::atomic<uint32_t> state{0};         // ShmState
  std::atomic<int32_t> producer_pid{0};   // for death detection
  std::atomic<uint32_t> lanes_allocated{0};
  std::atomic<uint32_t> consumer_attached{0};
  std::atomic<uint64_t> dropped{0};        // full-lane drops (drop policy)
  std::atomic<uint64_t> lane_overflow{0};  // events from threads past lane_count
};

static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shm coordination requires address-free lock-free atomics");

// The mapped segment. Create() is the publisher side (owns the name and
// unlinks it), OpenExisting() the subscriber side (maps an existing name and
// validates its geometry). Both unmap on destruction.
class ShmSegment {
 public:
  struct Geometry {
    uint32_t lane_count = 1;
    uint64_t lane_words = 1 << 16;  // rounded up to a power of two by Create
    size_t symtab_bytes = 0;
    size_t plan_bytes = 0;
  };

  ~ShmSegment();

  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;

  // Creates and maps a fresh segment (state = kInitialising, header geometry
  // filled in). The caller writes the symbols and the plan, then publishes
  // with header().state.store(kLive, release). Fails (kErrUnreadable-coded
  // errors) on OS-level shm failures, including a leftover segment of the
  // same name.
  static Result<std::unique_ptr<ShmSegment>> Create(const std::string& name,
                                                    const Geometry& geometry);

  // Maps an existing segment. Only the mapped size is checked here — the
  // creator may still be writing the header; call ValidateGeometry() after
  // observing state ≥ kLive (the subscriber layers its bounded wait on top).
  static Result<std::unique_ptr<ShmSegment>> OpenExisting(const std::string& name);

  // Validates magic, version, lane geometry and that the whole layout fits
  // the mapped size, then records the geometry and computes the region
  // offsets. Must be called (once) on an OpenExisting() segment after an
  // acquire load of header().state observed kLive or kClosed — the geometry
  // fields are immutable from then on. Errors carry trace::ErrorCode values
  // (kErrVersionMismatch for a newer segment version, kErrCorrupt otherwise).
  Status ValidateGeometry();

  // Removes the name (idempotent; the mapping stays valid).
  static void Unlink(const std::string& name);

  // The validated geometry (Create()'s, with lane_words rounded up).
  const Geometry& geometry() const { return geometry_; }
  ShmHeader& header() { return *header_; }
  const ShmHeader& header() const { return *header_; }
  uint8_t* symtab() { return base_ + symtab_offset_; }
  const uint8_t* symtab() const { return base_ + symtab_offset_; }
  uint8_t* plan() { return base_ + plan_offset_; }
  const uint8_t* plan() const { return base_ + plan_offset_; }
  // `lane`'s mapped control block, and a ring view of it and the lane's
  // words (lane < geometry().lane_count).
  queue::RingControl* lane_control(uint32_t lane);
  queue::EventRing lane(uint32_t lane);
  const std::string& name() const { return name_; }
  bool owner() const { return owner_; }

 private:
  ShmSegment() = default;
  Status MapAndValidate(int fd, bool created, const Geometry* geometry);

  std::string name_;  // normalised ("/"-prefixed)
  uint8_t* base_ = nullptr;
  size_t mapped_bytes_ = 0;
  ShmHeader* header_ = nullptr;
  Geometry geometry_;
  size_t symtab_offset_ = 0;
  size_t plan_offset_ = 0;
  size_t lanes_offset_ = 0;  // RingControl array
  size_t words_offset_ = 0;  // lane word arrays
  bool owner_ = false;
};

}  // namespace tesla::ipc

#endif  // TESLA_IPC_SHM_H_

// ShmPublisher: the instrumented-process side of the cross-process capture
// transport (see src/ipc/shm.h for the segment protocol).
//
// Start() creates the named segment, serialises everything a sidecar needs
// to check the event stream — the interner's spellings, the registered
// manifest, the semantics-bearing runtime options, the origin string — and
// installs a Runtime ingest hook that ships every event into the calling
// thread's SPSC lane instead of dispatching it in-process. The instrumented
// binary pays one ring enqueue per event; all automaton work happens in the
// sidecar (`tesla-trace attach <name>`).
//
// Threading contract (same as tesla::queue): Start() and Stop() come from
// one coordinating thread while no producer is mid-OnEvent; any number of
// producer threads may publish concurrently, each on its own lane. Threads
// beyond PublisherOptions::lanes cannot publish — their events are dropped
// and counted in the segment header's lane_overflow.
#ifndef TESLA_IPC_PUBLISHER_H_
#define TESLA_IPC_PUBLISHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipc/shm.h"
#include "runtime/runtime.h"
#include "support/result.h"

namespace tesla::ipc {

struct PublisherOptions {
  // SPSC lanes (max concurrently-publishing threads), clamped to
  // [1, kShmMaxLanes].
  uint32_t lanes = 8;
  // Per-lane capacity in events, sized for worst-case records (the lane
  // holds at least this many events of any shape; small records pack
  // denser).
  size_t lane_capacity_events = 1 << 14;
  // Full-lane policy: false blocks the producer until the sidecar drains
  // (lossless), true drops the event and counts it in the header.
  bool drop_on_full = false;
  // Interpose on Runtime::OnEvent via the ingest hook. Tests that drive
  // Publish() by hand turn this off.
  bool install_hook = true;
  // Stop() blocks until a consumer has attached before closing the segment —
  // without this, a publisher that finishes its workload before the sidecar
  // attaches would unlink the name and strand the sidecar.
  bool wait_for_consumer = true;
};

struct PublisherStats {
  uint64_t published = 0;      // events shipped into lanes
  uint64_t dropped = 0;        // full-lane drops (drop policy / shutdown)
  uint64_t lane_overflow = 0;  // events from threads past the lane count
};

class ShmPublisher {
 public:
  // `rt` must outlive the publisher and have its manifest registered before
  // Start() (the segment embeds rt.ManifestText() and the interner table as
  // of Start).
  ShmPublisher(runtime::Runtime& rt, std::string shm_name, PublisherOptions options = {});
  ~ShmPublisher();

  ShmPublisher(const ShmPublisher&) = delete;
  ShmPublisher& operator=(const ShmPublisher&) = delete;

  // Creates the segment, publishes it as live and (by default) installs the
  // ingest hook. `origin` is recorded in the header for sidecars that want
  // to name their capture's manifest source.
  Status Start(const std::string& origin);

  // Uninstalls the hook, waits for a consumer when configured, marks the
  // segment closed and unlinks the name. Producers must be quiescent.
  // Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Ships one event on the calling thread's lane. Returns true when the
  // event was consumed (shipped, dropped by policy, or dropped for lack of
  // a lane), false only when the publisher is not running — the ingest hook
  // then falls back to inline dispatch.
  bool Publish(const runtime::Event& event);

  PublisherStats stats() const;
  const std::string& shm_name() const { return shm_name_; }

  // The mapped segment, for tests poking at the header. Null until Start().
  ShmSegment* segment_for_test() { return segment_.get(); }

 private:
  // One lane's producer-side state. The ring is pushed only by the single
  // thread the lane was assigned to; the counter is read by stats() from
  // other threads.
  struct alignas(64) LaneSlot {
    explicit LaneSlot(queue::EventRing lane) : ring(std::move(lane)) {}
    queue::EventRing ring;
    std::atomic<uint64_t> published{0};
  };

  static bool IngestThunk(void* state, runtime::ThreadContext& ctx,
                          const runtime::Event& event);
  LaneSlot* LocalLane();

  runtime::Runtime& rt_;
  std::string shm_name_;
  PublisherOptions options_;
  uint64_t id_ = 0;  // process-unique, stamps the thread_local lane cache
  std::unique_ptr<ShmSegment> segment_;
  std::vector<std::unique_ptr<LaneSlot>> lanes_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  bool hook_installed_ = false;
};

}  // namespace tesla::ipc

#endif  // TESLA_IPC_PUBLISHER_H_

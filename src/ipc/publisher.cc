#include "ipc/publisher.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <unistd.h>

#include "support/intern.h"
#include "trace/format.h"
#include "trace/wire.h"

namespace tesla::ipc {
namespace {

// Process-wide publisher id source: ids are never reused, so a thread_local
// lane cache stamped with an id can never alias a destroyed publisher.
std::atomic<uint64_t> next_publisher_id{1};

struct LocalLaneCache {
  uint64_t publisher_id = 0;
  void* slot = nullptr;  // LaneSlot*; null = no lane available
  bool resolved = false;
};

thread_local LocalLaneCache local_lane;

}  // namespace

ShmPublisher::ShmPublisher(runtime::Runtime& rt, std::string shm_name,
                           PublisherOptions options)
    : rt_(rt),
      shm_name_(std::move(shm_name)),
      options_(options),
      id_(next_publisher_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.lanes < 1) {
    options_.lanes = 1;
  }
  if (options_.lanes > kShmMaxLanes) {
    options_.lanes = kShmMaxLanes;
  }
  if (options_.lane_capacity_events < 16) {
    options_.lane_capacity_events = 16;
  }
}

ShmPublisher::~ShmPublisher() { Stop(); }

Status ShmPublisher::Start(const std::string& origin) {
  if (running_.load(std::memory_order_relaxed)) {
    return Error{"shm publisher already running"};
  }

  // Snapshot the interner: the dense prefix [0, size()) is the segment's
  // symbol generation. Register() has already frozen the runtime's plan, and
  // producers are quiescent until Start() returns, so the table is stable.
  StringInterner& interner = GlobalInterner();
  const size_t symbol_count = interner.size();
  std::vector<uint8_t> symtab;
  trace::PutVarint(symtab, symbol_count);
  for (size_t i = 0; i < symbol_count; i++) {
    trace::PutString(symtab, interner.Spelling(static_cast<Symbol>(i)));
  }
  const std::vector<uint8_t> plan =
      trace::Plan::Of(origin, rt_.options(), rt_.ManifestText()).Encode();

  ShmSegment::Geometry geometry;
  geometry.lane_count = options_.lanes;
  geometry.lane_words =
      static_cast<uint64_t>(options_.lane_capacity_events) * queue::kMaxRecordWords;
  geometry.symtab_bytes = symtab.size();
  geometry.plan_bytes = plan.size();
  Result<std::unique_ptr<ShmSegment>> created = ShmSegment::Create(shm_name_, geometry);
  if (!created.ok()) {
    return created.error();
  }
  segment_ = std::move(created.value());

  std::memcpy(segment_->symtab(), symtab.data(), symtab.size());
  std::memcpy(segment_->plan(), plan.data(), plan.size());

  ShmHeader& header = segment_->header();
  header.symbol_count = static_cast<uint32_t>(symbol_count);
  header.producer_pid.store(static_cast<int32_t>(::getpid()), std::memory_order_relaxed);

  lanes_.clear();
  for (uint32_t lane = 0; lane < options_.lanes; lane++) {
    lanes_.push_back(std::make_unique<LaneSlot>(segment_->lane(lane)));
  }

  stopping_.store(false, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  // The release store makes everything above — mapped regions, header
  // fields, lane slots — visible to any process that acquires kLive.
  header.state.store(static_cast<uint32_t>(ShmState::kLive), std::memory_order_release);

  if (options_.install_hook) {
    rt_.SetIngestHook(&ShmPublisher::IngestThunk, this);
    hook_installed_ = true;
  }
  return Status::Ok();
}

void ShmPublisher::Stop() {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  if (hook_installed_) {
    rt_.SetIngestHook(nullptr, nullptr);
    hook_installed_ = false;
  }
  // Release any producer still spinning on a full lane: from here on a full
  // lane drops instead of blocking (the sidecar may already be gone).
  stopping_.store(true, std::memory_order_release);

  ShmHeader& header = segment_->header();
  if (options_.wait_for_consumer) {
    // Block until a sidecar has attached: closing (and unlinking) first
    // would strand a consumer that races our shutdown, and the whole point
    // of the transport is that the sidecar sees every event.
    while (header.consumer_attached.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Producers are quiescent (caller contract) and every published record is
  // visible via its lane's release head, so kClosed is the drain barrier:
  // the consumer empties each lane after observing it, then detaches.
  header.state.store(static_cast<uint32_t>(ShmState::kClosed), std::memory_order_release);
  running_.store(false, std::memory_order_release);
  // Remove the name now that the consumer holds a mapping; the segment
  // itself lives until both sides unmap.
  ShmSegment::Unlink(shm_name_);
}

bool ShmPublisher::IngestThunk(void* state, runtime::ThreadContext& ctx,
                               const runtime::Event& event) {
  (void)ctx;
  return static_cast<ShmPublisher*>(state)->Publish(event);
}

ShmPublisher::LaneSlot* ShmPublisher::LocalLane() {
  if (local_lane.publisher_id == id_ && local_lane.resolved) {
    return static_cast<LaneSlot*>(local_lane.slot);
  }
  local_lane.publisher_id = id_;
  local_lane.resolved = true;
  const uint32_t lane =
      segment_->header().lanes_allocated.fetch_add(1, std::memory_order_relaxed);
  if (lane >= options_.lanes) {
    local_lane.slot = nullptr;  // over-subscribed: this thread cannot publish
    return nullptr;
  }
  local_lane.slot = lanes_[lane].get();
  return lanes_[lane].get();
}

bool ShmPublisher::Publish(const runtime::Event& event) {
  if (!running_.load(std::memory_order_acquire)) {
    return false;  // ingest hook falls back to inline dispatch
  }
  LaneSlot* slot = LocalLane();
  ShmHeader& header = segment_->header();
  if (slot == nullptr) {
    header.lane_overflow.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const queue::EncodedEvent record = queue::EncodeEvent(event);
  auto write = [&record](auto&& put) { record.Write(put); };
  if (slot->ring.TryPush(record.words, write)) {
    slot->published.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (options_.drop_on_full) {
    header.dropped.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Lossless policy: spin until the sidecar drains. Shutdown breaks the
  // wait (and counts the loss) so an abandoned publisher can still exit.
  uint32_t spins = 0;
  while (!slot->ring.TryPush(record.words, write)) {
    if (stopping_.load(std::memory_order_acquire)) {
      header.dropped.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (++spins % 1024 == 0) {
      std::this_thread::yield();
    }
  }
  slot->published.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PublisherStats ShmPublisher::stats() const {
  PublisherStats stats;
  for (const auto& slot : lanes_) {
    stats.published += slot->published.load(std::memory_order_relaxed);
  }
  if (segment_ != nullptr) {
    stats.dropped = segment_->header().dropped.load(std::memory_order_relaxed);
    stats.lane_overflow = segment_->header().lane_overflow.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace tesla::ipc

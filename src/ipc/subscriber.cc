#include "ipc/subscriber.h"

#include <cerrno>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include <signal.h>
#include <unistd.h>

#include "support/intern.h"
#include "trace/wire.h"

namespace tesla::ipc {

Result<std::unique_ptr<ShmSubscriber>> ShmSubscriber::Attach(const std::string& name,
                                                             int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  Error last_error{"shm attach never attempted"};
  std::unique_ptr<ShmSegment> segment;
  for (;;) {
    Result<std::unique_ptr<ShmSegment>> opened = ShmSegment::OpenExisting(name);
    if (opened.ok()) {
      // Wait (within the same deadline) for the creator to finish writing.
      ShmHeader& header = opened.value()->header();
      for (;;) {
        const uint32_t state = header.state.load(std::memory_order_acquire);
        if (state == static_cast<uint32_t>(ShmState::kLive) ||
            state == static_cast<uint32_t>(ShmState::kClosed)) {
          segment = std::move(opened.value());
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (segment != nullptr) {
        break;
      }
      last_error = Error{"shm segment '" + name + "' never became live", 0, 0,
                         trace::kErrUnreadable};
    } else {
      last_error = opened.error();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return last_error;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  if (Status status = segment->ValidateGeometry(); !status.ok()) {
    return status.error();
  }

  auto subscriber = std::unique_ptr<ShmSubscriber>(new ShmSubscriber());
  const ShmHeader& header = segment->header();
  const ShmSegment::Geometry& geometry = segment->geometry();
  auto corrupt = [&segment](const std::string& what) {
    return Error{"shm segment '" + segment->name() + "': " + what, 0, 0, trace::kErrCorrupt};
  };

  // The plan and the symbol table decode through the same hardened cursor
  // the capture reader uses — the segment was written by another process
  // and is as untrusted as a file.
  Result<trace::Plan> plan = trace::Plan::Decode(segment->plan(), geometry.plan_bytes);
  if (!plan.ok()) {
    return corrupt(plan.error().message);
  }
  static_cast<trace::Plan&>(subscriber->info_) = std::move(plan.value());

  trace::Cursor cursor{segment->symtab(), geometry.symtab_bytes};
  uint64_t symbol_count = 0;
  cursor.Varint(&symbol_count);
  if (!cursor.FitsRemaining(symbol_count)) {
    return corrupt("symbol table overruns its region");
  }
  if (symbol_count != header.symbol_count) {
    return corrupt("symbol table count " + std::to_string(symbol_count) +
                   " disagrees with header " + std::to_string(header.symbol_count));
  }
  subscriber->spellings_.reserve(static_cast<size_t>(symbol_count));
  for (uint64_t i = 0; i < symbol_count; i++) {
    std::string spelling;
    if (!cursor.String(&spelling)) {
      return corrupt("truncated symbol table");
    }
    subscriber->spellings_.push_back(std::move(spelling));
  }

  subscriber->info_.lane_count = geometry.lane_count;
  subscriber->info_.symbol_count = static_cast<uint32_t>(symbol_count);
  subscriber->info_.producer_pid = header.producer_pid.load(std::memory_order_relaxed);

  for (uint32_t lane = 0; lane < geometry.lane_count; lane++) {
    subscriber->lanes_.push_back(segment->lane(lane));
  }

  segment->header().consumer_attached.fetch_add(1, std::memory_order_acq_rel);
  subscriber->segment_ = std::move(segment);
  return subscriber;
}

runtime::RuntimeOptions ShmSubscriber::PublisherRuntimeOptions() const {
  return info_.ToRuntimeOptions();
}

void ShmSubscriber::InternSymbols() {
  if (interned_) {
    return;
  }
  remap_.reserve(spellings_.size());
  for (const std::string& spelling : spellings_) {
    remap_.push_back(InternString(spelling));
  }
  interned_ = true;
}

size_t ShmSubscriber::PollLane(uint32_t lane, std::vector<runtime::Event>& out,
                               size_t max) {
  const uint64_t slip = producer_dead_ || closed() ? 0 : kSlipWords;
  return lanes_[lane].Pop(max, [this, &out](queue::RingWindow& window) {
    runtime::Event event;
    if (!queue::DecodeEvent(window, &event)) {
      return false;
    }
    // A site's target is an automaton id; registration order carries it.
    if (event.kind != runtime::EventKind::kAssertionSite) {
      if (event.target < remap_.size()) {
        event.target = remap_[event.target];
      } else {
        unknown_symbols_++;
      }
    }
    out.push_back(event);
    return true;
  }, slip);
}

bool ShmSubscriber::closed() const {
  return segment_->header().state.load(std::memory_order_acquire) ==
         static_cast<uint32_t>(ShmState::kClosed);
}

bool ShmSubscriber::ProducerDead() const {
  if (producer_dead_) {
    return true;
  }
  if (closed()) {
    return false;
  }
  const int32_t pid = segment_->header().producer_pid.load(std::memory_order_relaxed);
  if (pid <= 0) {
    return false;
  }
  producer_dead_ = ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
  return producer_dead_;
}

uint64_t ShmSubscriber::dropped() const {
  return segment_->header().dropped.load(std::memory_order_relaxed);
}

uint64_t ShmSubscriber::lane_overflow() const {
  return segment_->header().lane_overflow.load(std::memory_order_relaxed);
}

DrainReport DrainAll(ShmSubscriber& subscriber, runtime::Runtime& rt,
                     size_t batch_events) {
  if (batch_events == 0) {
    batch_events = 1;
  }
  DrainReport report;
  const uint32_t lanes = subscriber.info().lane_count;
  // One dispatch context per lane: a lane is one producer thread's ordered
  // stream, so this reproduces the publisher's per-thread serialisation.
  std::vector<std::unique_ptr<runtime::ThreadContext>> contexts(lanes);
  std::vector<runtime::Event> batch;
  batch.reserve(batch_events);
  uint64_t idle_sweeps = 0;
  for (;;) {
    // Observe the close flag *before* sweeping: everything published before
    // kClosed is visible once we see it, so one empty sweep after the
    // observation proves the lanes are dry.
    const bool was_closed = subscriber.closed();
    uint64_t swept = 0;
    report.corrupt_lanes = 0;
    for (uint32_t lane = 0; lane < lanes; lane++) {
      for (;;) {
        batch.clear();
        if (subscriber.PollLane(lane, batch, batch_events) == 0) {
          break;
        }
        if (contexts[lane] == nullptr) {
          contexts[lane] = std::make_unique<runtime::ThreadContext>(rt);
        }
        rt.OnEvents(*contexts[lane],
                    std::span<const runtime::Event>(batch.data(), batch.size()));
        rt.AccountQueueBatch(batch.size());
        report.events += batch.size();
        report.batches++;
        swept += batch.size();
      }
      report.corrupt_lanes += subscriber.LaneCorrupt(lane) ? 1 : 0;
    }
    if (swept != 0) {
      idle_sweeps = 0;
      continue;
    }
    if (was_closed || report.producer_died || report.corrupt_lanes == lanes) {
      break;  // dry, or nothing left that can ever yield
    }
    // Throttled death check: a publisher that crashed never sets kClosed.
    // It may have published after the empty sweep above, and that sweep's
    // polls hold back records behind a moving head. Once ProducerDead() is
    // seen, polls drain every lane to the end and no head moves again, so
    // the sweeps that follow salvage everything and the next empty one
    // proves the lanes dry.
    if (++idle_sweeps % 64 == 0 && subscriber.ProducerDead()) {
      report.producer_died = true;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  report.producer_dropped = subscriber.dropped();
  report.lane_overflow = subscriber.lane_overflow();
  if (report.producer_dropped != 0) {
    rt.AccountQueueDrops(report.producer_dropped);
  }
  return report;
}

}  // namespace tesla::ipc

#include "ipc/shm.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/format.h"  // ErrorCode values for coded errors

namespace tesla::ipc {
namespace {

constexpr size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

// POSIX wants a name of the form "/name" with no further slashes.
Result<std::string> NormaliseName(const std::string& name) {
  std::string normalised = name;
  if (normalised.empty() || normalised == "/") {
    return Error{"shm name must be non-empty", 0, 0, trace::kErrUnreadable};
  }
  if (normalised[0] != '/') {
    normalised = "/" + normalised;
  }
  if (normalised.find('/', 1) != std::string::npos) {
    return Error{"shm name '" + name + "' must not contain '/' beyond the leading one",
                 0, 0, trace::kErrUnreadable};
  }
  return normalised;
}

struct Offsets {
  size_t symtab = 0;
  size_t plan = 0;
  size_t lanes = 0;
  size_t words = 0;
  size_t total = 0;
};

Offsets ComputeOffsets(uint32_t lane_count, uint64_t lane_words, size_t symtab_bytes,
                       size_t plan_bytes) {
  Offsets offsets;
  offsets.symtab = AlignUp(sizeof(ShmHeader), 8);
  offsets.plan = offsets.symtab + symtab_bytes;
  // RingControl demands cacheline alignment; the word arrays follow the
  // controls (whose size is a multiple of 64) so they inherit it.
  offsets.lanes = AlignUp(offsets.plan + plan_bytes, 64);
  offsets.words = offsets.lanes + static_cast<size_t>(lane_count) * sizeof(queue::RingControl);
  offsets.total =
      offsets.words + static_cast<size_t>(lane_count) * static_cast<size_t>(lane_words) * 8;
  return offsets;
}

}  // namespace

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) {
    ::munmap(base_, mapped_bytes_);
  }
  if (owner_) {
    Unlink(name_);
  }
}

void ShmSegment::Unlink(const std::string& name) {
  Result<std::string> normalised = NormaliseName(name);
  if (normalised.ok()) {
    ::shm_unlink(normalised.value().c_str());
  }
}

Result<std::unique_ptr<ShmSegment>> ShmSegment::Create(const std::string& name,
                                                       const Geometry& geometry) {
  Result<std::string> normalised = NormaliseName(name);
  if (!normalised.ok()) {
    return normalised.error();
  }
  if (geometry.lane_count == 0 || geometry.lane_count > kShmMaxLanes) {
    return Error{"shm lane count must be in [1, " + std::to_string(kShmMaxLanes) + "]",
                 0, 0, trace::kErrUnreadable};
  }
  const uint64_t lane_words =
      std::bit_ceil(std::max<uint64_t>(geometry.lane_words, 2 * queue::kMaxRecordWords));

  const int fd = ::shm_open(normalised.value().c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (fd < 0) {
    const bool exists = errno == EEXIST;
    return Error{"shm_open('" + normalised.value() + "') failed: " +
                     std::string(std::strerror(errno)) +
                     (exists ? " (leftover segment from a crashed publisher? "
                               "remove it from /dev/shm)"
                             : ""),
                 0, 0, trace::kErrUnreadable};
  }

  const Offsets offsets = ComputeOffsets(geometry.lane_count, lane_words,
                                         geometry.symtab_bytes, geometry.plan_bytes);
  if (::ftruncate(fd, static_cast<off_t>(offsets.total)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    ::shm_unlink(normalised.value().c_str());
    return Error{"ftruncate(shm, " + std::to_string(offsets.total) + ") failed: " + detail,
                 0, 0, trace::kErrUnreadable};
  }
  void* base = ::mmap(nullptr, offsets.total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    ::shm_unlink(normalised.value().c_str());
    return Error{"mmap(shm) failed: " + std::string(std::strerror(errno)), 0, 0,
                 trace::kErrUnreadable};
  }

  auto segment = std::unique_ptr<ShmSegment>(new ShmSegment());
  segment->name_ = normalised.value();
  segment->base_ = static_cast<uint8_t*>(base);
  segment->mapped_bytes_ = offsets.total;
  segment->owner_ = true;
  segment->symtab_offset_ = offsets.symtab;
  segment->plan_offset_ = offsets.plan;
  segment->lanes_offset_ = offsets.lanes;
  segment->words_offset_ = offsets.words;
  segment->geometry_ = geometry;
  segment->geometry_.lane_words = lane_words;

  // The mapping is zero-filled; placement-new gives the header (and its
  // atomics) defined values, then the geometry fields are filled in before
  // any other process can observe state != kInitialising.
  ShmHeader* header = new (base) ShmHeader();
  std::memcpy(header->magic, kShmMagic, sizeof(kShmMagic));
  header->version = kShmVersion;
  header->lane_count = geometry.lane_count;
  header->lane_words = lane_words;
  header->symtab_bytes = geometry.symtab_bytes;
  header->plan_bytes = geometry.plan_bytes;
  segment->header_ = header;
  for (uint32_t lane = 0; lane < geometry.lane_count; lane++) {
    new (segment->base_ + offsets.lanes + lane * sizeof(queue::RingControl))
        queue::RingControl();
  }
  return segment;
}

Result<std::unique_ptr<ShmSegment>> ShmSegment::OpenExisting(const std::string& name) {
  Result<std::string> normalised = NormaliseName(name);
  if (!normalised.ok()) {
    return normalised.error();
  }
  const int fd = ::shm_open(normalised.value().c_str(), O_RDWR, 0);
  if (fd < 0) {
    return Error{"shm_open('" + normalised.value() + "') failed: " +
                     std::string(std::strerror(errno)),
                 0, 0, trace::kErrUnreadable};
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Error{"fstat(shm) failed: " + detail, 0, 0, trace::kErrUnreadable};
  }
  if (static_cast<size_t>(st.st_size) < sizeof(ShmHeader)) {
    ::close(fd);
    return Error{"shm segment '" + normalised.value() +
                     "' is smaller than its header (creator still initialising?)",
                 0, 0, trace::kErrCorrupt};
  }
  void* base =
      ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Error{"mmap(shm) failed: " + std::string(std::strerror(errno)), 0, 0,
                 trace::kErrUnreadable};
  }

  auto segment = std::unique_ptr<ShmSegment>(new ShmSegment());
  segment->name_ = normalised.value();
  segment->base_ = static_cast<uint8_t*>(base);
  segment->mapped_bytes_ = static_cast<size_t>(st.st_size);
  segment->header_ = reinterpret_cast<ShmHeader*>(base);
  segment->owner_ = false;
  // Offsets stay zero until ValidateGeometry() — the header's geometry
  // fields are only stable once state is kLive.
  return segment;
}

Status ShmSegment::ValidateGeometry() {
  const ShmHeader& header = *header_;
  if (std::memcmp(header.magic, kShmMagic, sizeof(kShmMagic)) != 0) {
    return Error{"shm segment '" + name_ + "': bad magic (not a TESLA shm segment)", 0, 0,
                 trace::kErrCorrupt};
  }
  if (header.version != kShmVersion) {
    return Error{"shm segment '" + name_ + "' is format v" + std::to_string(header.version) +
                     "; this build speaks v" + std::to_string(kShmVersion),
                 0, 0, trace::kErrVersionMismatch};
  }
  // Validate a snapshot: the creating process can still write the header,
  // so every later use reads the checked copy, never the mapping.
  const Geometry geometry{header.lane_count, header.lane_words,
                          static_cast<size_t>(header.symtab_bytes),
                          static_cast<size_t>(header.plan_bytes)};
  if (geometry.lane_count == 0 || geometry.lane_count > kShmMaxLanes) {
    return Error{"shm segment '" + name_ + "': invalid lane count " +
                     std::to_string(geometry.lane_count),
                 0, 0, trace::kErrCorrupt};
  }
  if (geometry.lane_words < 2 * queue::kMaxRecordWords ||
      (geometry.lane_words & (geometry.lane_words - 1)) != 0) {
    return Error{"shm segment '" + name_ + "': invalid lane size " +
                     std::to_string(geometry.lane_words) + " words",
                 0, 0, trace::kErrCorrupt};
  }
  // A region size past the mapping is corrupt on its own; with every size
  // bounded by it, the offset sums cannot wrap back inside the mapping.
  const Offsets offsets = ComputeOffsets(geometry.lane_count, geometry.lane_words,
                                         geometry.symtab_bytes, geometry.plan_bytes);
  if (geometry.symtab_bytes > mapped_bytes_ || geometry.plan_bytes > mapped_bytes_ ||
      geometry.lane_words > mapped_bytes_ || offsets.total > mapped_bytes_) {
    return Error{"shm segment '" + name_ + "': geometry exceeds the mapped " +
                     std::to_string(mapped_bytes_) + " bytes",
                 0, 0, trace::kErrCorrupt};
  }
  geometry_ = geometry;
  symtab_offset_ = offsets.symtab;
  plan_offset_ = offsets.plan;
  lanes_offset_ = offsets.lanes;
  words_offset_ = offsets.words;
  return Status::Ok();
}

queue::RingControl* ShmSegment::lane_control(uint32_t lane) {
  return reinterpret_cast<queue::RingControl*>(base_ + lanes_offset_ +
                                               lane * sizeof(queue::RingControl));
}

queue::EventRing ShmSegment::lane(uint32_t lane) {
  return queue::EventRing(
      lane_control(lane),
      reinterpret_cast<std::atomic<uint64_t>*>(
          base_ + words_offset_ +
          static_cast<size_t>(lane) * static_cast<size_t>(geometry_.lane_words) * 8),
      geometry_.lane_words);
}

}  // namespace tesla::ipc

// Adversarial TSLATRC reader coverage: a capture truncated at every byte
// boundary and bit-flipped at every byte must produce a clean Result error
// (or, for payload-only flips, a successful parse) — never a crash, hang or
// out-of-bounds read. This is the test the hardened reader exists for: a
// sidecar or merge job ingests captures from machines it does not control.
// The options section's pool size is bounded by the runtime's pool ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/event.h"
#include "runtime/runtime.h"
#include "support/intern.h"
#include "trace/format.h"
#include "trace/replay.h"
#include "trace/wire.h"

namespace tesla {
namespace {

using runtime::Binding;
using runtime::Event;
using trace::TraceFile;
using trace::TraceRecord;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name + "." +
         std::to_string(::getpid());
}

// A small but fully-featured capture: symbols, a v4 embedded manifest
// section, records of every kind (args, return values, site vars, a
// truncation flag), stats, violations — every parser path is on the attack
// surface.
std::vector<uint8_t> ValidCaptureBytes() {
  const std::string path = TempPath("tesla_corrupt_seed");
  trace::CaptureOptions options;
  options.global_shards = 3;

  trace::TraceWriter writer;
  const std::string manifest_text = "synthetic-manifest-payload (not parsed by Read)";
  EXPECT_TRUE(
      writer.Open(path, "test:corrupt", options, GlobalInterner(), manifest_text).ok());
  uint64_t seq = 0;
  int64_t args[] = {1, -2, 3};
  // v6 timestamps on the attack surface too: values chosen single-varint-byte
  // (≤ 127) so the footer layout is predictable for the footer tests below,
  // with one backwards step (100 → 50) exercising the signed zigzag delta
  // and one zero (record 4: a producer predating timed clauses).
  const uint64_t ts[] = {100, 50, 120, 0, 125};
  auto stamped = [&ts, &seq](Event event) {
    event.ts_ns = ts[seq];
    return event;
  };
  writer.Append(
      trace::MakeRecord(seq, 0, stamped(Event::Call(InternString("corrupt_fn"), args))));
  seq++;
  writer.Append(trace::MakeRecord(
      seq, 1, stamped(Event::Return(InternString("corrupt_fn"), args, -7))));
  seq++;
  writer.Append(trace::MakeRecord(
      seq, 0, stamped(Event::FieldStore(InternString("corrupt_field"), 10, 20, 30))));
  seq++;
  Binding bindings[] = {{1, -5}, {0, 8}};
  writer.Append(trace::MakeRecord(seq, 2, stamped(Event::Site(3, bindings))));
  seq++;
  int64_t many[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  writer.Append(
      trace::MakeRecord(seq, 0, stamped(Event::Call(InternString("corrupt_fn"), many))));
  seq++;

  trace::SemanticSummary summary;
  summary.dropped = 1;
  uint64_t value = 11;
  for (const trace::StatsField& field : trace::kStatsFields) {
    summary.stats.*field.field = value++;
  }
  summary.violations.emplace_back(runtime::ViolationKind::kBadSite, "corrupt-test");
  EXPECT_TRUE(writer.Finish(summary).ok());

  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_GT(bytes.size(), 64u);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Read() must classify every failure with one of the reader's error codes —
// an uncoded error would map to the CLI's generic exit 1 and defeat the
// scriptable exit-code contract.
void ExpectCleanFailure(const Error& error) {
  EXPECT_TRUE(error.code == trace::kErrUnreadable || error.code == trace::kErrCorrupt ||
              error.code == trace::kErrVersionMismatch)
      << "uncoded error: " << error.ToString();
}

TEST(CorruptCapture, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_trunc");
  {
    WriteBytes(path, bytes);
    auto intact = TraceFile::Read(path);
    ASSERT_TRUE(intact.ok()) << intact.error().ToString();
    ASSERT_EQ(intact.value().records.size(), 5u);
    ASSERT_EQ(intact.value().summary.violations.size(), 1u);
  }
  for (size_t cut = 0; cut < bytes.size(); cut++) {
    WriteBytes(path, std::vector<uint8_t>(bytes.begin(),
                                          bytes.begin() + static_cast<long>(cut)));
    auto read = TraceFile::Read(path);
    ASSERT_FALSE(read.ok()) << "truncation at byte " << cut << " parsed as valid";
    ExpectCleanFailure(read.error());
  }
  std::remove(path.c_str());
}

TEST(CorruptCapture, EveryByteFlipIsHandled) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_flip");
  size_t parsed = 0, rejected = 0;
  for (size_t at = 0; at < bytes.size(); at++) {
    std::vector<uint8_t> mutated = bytes;
    mutated[at] ^= 0xff;
    WriteBytes(path, mutated);
    // Either verdict is acceptable — a payload flip yields different but
    // well-formed data — but the reader must return, not crash, and tag any
    // rejection with a real error code.
    auto read = TraceFile::Read(path);
    if (read.ok()) {
      parsed++;
    } else {
      rejected++;
      ExpectCleanFailure(read.error());
    }
  }
  // The structural prefix (magic, version, section lengths) must reject.
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

TEST(CorruptCapture, FlippedLengthFieldsNeverOverread) {
  // Target the varint length bytes specifically: set the continuation bit
  // and max out the payload, the classic overread-inducing mutation.
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_len");
  for (size_t at = 8; at < bytes.size(); at++) {
    std::vector<uint8_t> mutated = bytes;
    mutated[at] = 0xff;  // varint: "huge value, more bytes follow"
    WriteBytes(path, mutated);
    auto read = TraceFile::Read(path);
    if (!read.ok()) {
      ExpectCleanFailure(read.error());
    }
  }
  std::remove(path.c_str());
}

// The v6 timestamp footer is the file's final section: presence byte, field
// count, base ts, last ts. With the seed's single-byte ts values it is
// exactly {0x01, 0x02, 100, 125} — asserted here so the surgery tests below
// cannot silently drift off the format.
std::vector<uint8_t> ExpectedTsFooter() { return {0x01, 0x02, 100, 125}; }

TEST(CorruptCapture, TimestampFooterRoundTrips) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(std::vector<uint8_t>(bytes.end() - 4, bytes.end()), ExpectedTsFooter());
  const std::string path = TempPath("tesla_corrupt_ts_ok");
  WriteBytes(path, bytes);
  auto read = TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_TRUE(read.value().summary.has_timestamps);
  EXPECT_EQ(read.value().summary.ts_base_ns, 100u);
  EXPECT_EQ(read.value().summary.ts_last_ns, 125u);
  ASSERT_EQ(read.value().records.size(), 5u);
  const uint64_t expected[] = {100, 50, 120, 0, 125};
  for (size_t i = 0; i < 5; i++) {
    EXPECT_EQ(read.value().records[i].ts_ns, expected[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(CorruptCapture, UnknownTimestampFooterFieldsDiscarded) {
  // v3 self-describing-footer policy applied to the timestamp section: a
  // newer writer may append fields; this reader must take the two it knows
  // and discard the rest, not reject the file.
  std::vector<uint8_t> bytes = ValidCaptureBytes();
  ASSERT_EQ(std::vector<uint8_t>(bytes.end() - 4, bytes.end()), ExpectedTsFooter());
  bytes[bytes.size() - 3] = 0x04;  // field count 2 → 4
  bytes.push_back(0x2a);           // two unknown future fields
  bytes.push_back(0x2b);
  const std::string path = TempPath("tesla_corrupt_ts_extra");
  WriteBytes(path, bytes);
  auto read = TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_TRUE(read.value().summary.has_timestamps);
  EXPECT_EQ(read.value().summary.ts_base_ns, 100u);
  EXPECT_EQ(read.value().summary.ts_last_ns, 125u);
  std::remove(path.c_str());
}

TEST(CorruptCapture, TruncatedTimestampFooterRejected) {
  // Redundant with the full truncation sweep, but pinned here so a footer
  // regression names itself: every cut inside the ts footer must fail clean.
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_ts_trunc");
  for (size_t keep = bytes.size() - 4; keep < bytes.size(); keep++) {
    WriteBytes(path, std::vector<uint8_t>(bytes.begin(),
                                          bytes.begin() + static_cast<long>(keep)));
    auto read = TraceFile::Read(path);
    ASSERT_FALSE(read.ok()) << "footer cut at " << keep << " parsed as valid";
    ExpectCleanFailure(read.error());
  }
  std::remove(path.c_str());
}

TEST(CorruptCapture, InvalidTimestampPresenceByteRejected) {
  std::vector<uint8_t> bytes = ValidCaptureBytes();
  ASSERT_EQ(std::vector<uint8_t>(bytes.end() - 4, bytes.end()), ExpectedTsFooter());
  bytes[bytes.size() - 4] = 0x02;  // presence must be 0 or 1
  const std::string path = TempPath("tesla_corrupt_ts_presence");
  WriteBytes(path, bytes);
  auto read = TraceFile::Read(path);
  ASSERT_FALSE(read.ok());
  ExpectCleanFailure(read.error());
  std::remove(path.c_str());
}

// The options section's pool size feeds an allocation on replay: a value
// past the runtime's pool ceiling is corrupt, never a multi-terabyte pool.
TEST(CorruptCapture, PoolSizePastTheCeilingRejected) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  // magic, origin "test:corrupt" (length byte + 12), flags byte 5, then the
  // pool-size varint 256 = {0x80, 0x02}.
  ASSERT_EQ(bytes[8], 12u);
  ASSERT_EQ(bytes[21], 5u);
  ASSERT_EQ(bytes[22], 0x80u);
  ASSERT_EQ(bytes[23], 0x02u);
  const std::string path = TempPath("tesla_corrupt_pool");
  const struct {
    uint64_t pool;
    bool ok;
  } cases[] = {{runtime::kMaxInstancesPerContext, true},
               {runtime::kMaxInstancesPerContext + 1, false},
               {uint64_t{1} << 40, false},
               {UINT64_MAX, false}};
  for (const auto& c : cases) {
    std::vector<uint8_t> mutated(bytes.begin(), bytes.begin() + 22);
    trace::PutVarint(mutated, c.pool);
    mutated.insert(mutated.end(), bytes.begin() + 24, bytes.end());
    WriteBytes(path, mutated);
    auto read = TraceFile::Read(path);
    if (c.ok) {
      ASSERT_TRUE(read.ok()) << read.error().ToString();
      EXPECT_EQ(read.value().options.instances_per_context, c.pool);
    } else {
      ASSERT_FALSE(read.ok()) << "pool " << c.pool << " accepted";
      EXPECT_EQ(read.error().code, trace::kErrCorrupt);
    }
  }
  std::remove(path.c_str());
}

// The runtime clamps its pool option to the same ceiling, so every capture
// it writes decodes.
TEST(CorruptCapture, ClampedPoolOptionRoundTrips) {
  runtime::RuntimeOptions options;
  options.instances_per_context = size_t{1} << 30;
  options.trace_mode = trace::TraceMode::kFullCapture;
  runtime::Runtime rt(options);
  EXPECT_EQ(rt.options().instances_per_context, runtime::kMaxInstancesPerContext);
  const std::string path = TempPath("tesla_corrupt_clamp");
  ASSERT_TRUE(trace::WriteCapture(path, "test:clamp", rt).ok());
  auto read = TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(read.value().options.instances_per_context, runtime::kMaxInstancesPerContext);
  std::remove(path.c_str());
}

TEST(CorruptCapture, VersionPolicyGate) {
  // Readers accept v1–v6 and reject anything newer with the dedicated code
  // (so a fleet can distinguish "old reader" from "corrupt file"). An older
  // version digit over this v6 body must never crash: the body is not valid
  // v1–v5, so any verdict is fine as long as failures stay coded.
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_version");
  for (char digit = '7'; digit <= '9'; digit++) {
    std::vector<uint8_t> mutated = bytes;
    mutated[7] = static_cast<uint8_t>(digit);
    WriteBytes(path, mutated);
    auto read = TraceFile::Read(path);
    ASSERT_FALSE(read.ok()) << "v" << digit << " accepted";
    EXPECT_EQ(read.error().code, trace::kErrVersionMismatch) << "v" << digit;
  }
  for (char digit = '1'; digit <= '5'; digit++) {
    std::vector<uint8_t> mutated = bytes;
    mutated[7] = static_cast<uint8_t>(digit);
    WriteBytes(path, mutated);
    auto read = TraceFile::Read(path);
    if (!read.ok()) {
      ExpectCleanFailure(read.error());
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptCapture, EmptyAndGarbageFilesRejected) {
  const std::string path = TempPath("tesla_corrupt_misc");
  WriteBytes(path, {});
  auto empty = TraceFile::Read(path);
  ASSERT_FALSE(empty.ok());
  ExpectCleanFailure(empty.error());

  WriteBytes(path, std::vector<uint8_t>(4096, 0x41));
  auto garbage = TraceFile::Read(path);
  ASSERT_FALSE(garbage.ok());
  ExpectCleanFailure(garbage.error());
  std::remove(path.c_str());

  auto missing = TraceFile::Read("/nonexistent/capture.cap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, trace::kErrUnreadable);
}

}  // namespace
}  // namespace tesla

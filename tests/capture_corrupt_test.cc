// Adversarial TSLATRC reader coverage: a capture truncated at every byte
// boundary and bit-flipped at every byte must produce a clean Result error
// (or, for payload-only flips, a successful parse) — never a crash, hang or
// out-of-bounds read. This is the test the hardened reader exists for: a
// sidecar or merge job ingests captures from machines it does not control.
// The section framing is pinned too (unknown tags skipped; repeated,
// missing and overlong sections corrupt), and the plan section's pool size
// is bounded by the runtime's pool ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "metrics/snapshot.h"
#include "profile/snapshot.h"
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

// A small but fully-featured capture: every section, hinted plan inputs,
// records of every kind (args, return values, site vars, a truncation flag,
// timestamps), stats, violations, a full-mode metrics snapshot and a
// profile — every section decoder is on the attack surface.
std::vector<uint8_t> ValidCaptureBytes() {
  const std::string path = TempPath("tesla_corrupt_seed");
  TraceFile file;
  file.origin = "test:corrupt";
  file.options.global_shards = 3;
  file.plan_hints.classes.push_back({"corrupt-test", 24, 0});
  file.manifest_text = "synthetic-manifest-payload (not parsed by Read)";
  for (Symbol symbol = 0; symbol < GlobalInterner().size(); symbol++) {
    file.symbols.push_back(GlobalInterner().Spelling(symbol));
  }

  uint64_t seq = 0;
  int64_t args[] = {1, -2, 3};
  // One backwards timestamp step (100 → 50) exercises the signed delta, and
  // one zero (record 3) a producer that stamps nothing.
  const uint64_t ts[] = {100, 50, 120, 0, 125};
  auto append = [&](uint32_t ctx, Event event) {
    event.ts_ns = ts[seq];
    file.records.push_back(trace::MakeRecord(seq++, ctx, event));
  };
  append(0, Event::Call(InternString("corrupt_fn"), args));
  append(1, Event::Return(InternString("corrupt_fn"), args, -7));
  append(0, Event::FieldStore(InternString("corrupt_field"), 10, 20, 30));
  Binding bindings[] = {{1, -5}, {0, 8}};
  append(2, Event::Site(3, bindings));
  int64_t many[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  append(0, Event::Call(InternString("corrupt_fn"), many));

  trace::SemanticSummary& summary = file.summary;
  summary.dropped = 1;
  uint64_t value = 11;
  for (const trace::StatsField& field : trace::kStatsFields) {
    summary.stats.*field.field = value++;
  }
  summary.violations.emplace_back(runtime::ViolationKind::kBadSite, "corrupt-test");

  summary.has_metrics = true;
  summary.metrics.mode = metrics::MetricsMode::kFull;
  metrics::ClassSnapshot cls;
  cls.name = "corrupt-test";
  cls.counters[0] = 5;
  cls.transitions.push_back({1, 2, true, "NFA:0 --call corrupt_fn--> NFA:1"});
  summary.metrics.classes.push_back(cls);
  summary.metrics.histograms[0].count = 2;
  summary.metrics.histograms[0].sum_ns = 300;
  summary.metrics.histograms[0].buckets[4] = 2;

  summary.has_profile = true;
  summary.profile.pool_capacity = 64;
  summary.profile.pool_high_water = 9;
  profile::ClassProfile prof;
  prof.name = "corrupt-test";
  prof.key_vars = {0, 1};
  prof.cells[0] = 7;
  prof.var_partial[1] = 2;
  prof.sketch[0][0] = 0x5;
  summary.profile.classes.push_back(prof);

  EXPECT_TRUE(file.Write(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_GT(bytes.size(), 64u);
  return bytes;
}

// A capture split into its (tag, payload) sections, and the inverse — so a
// test can edit one section and keep every length field consistent.
using Sections = std::vector<std::pair<uint8_t, std::vector<uint8_t>>>;

Sections Split(const std::vector<uint8_t>& bytes) {
  Sections sections;
  trace::Cursor cursor{bytes.data(), bytes.size(), sizeof(trace::kTraceMagic)};
  while (cursor.remaining() > 0) {
    uint8_t tag = 0;
    uint64_t length = 0;
    cursor.Byte(&tag);
    cursor.Varint(&length);
    EXPECT_FALSE(cursor.failed);
    EXPECT_LE(length, cursor.remaining());
    const auto* begin = bytes.data() + cursor.pos;
    sections.emplace_back(tag, std::vector<uint8_t>(begin, begin + length));
    cursor.pos += length;
  }
  return sections;
}

std::vector<uint8_t> Join(const Sections& sections) {
  std::vector<uint8_t> bytes(std::begin(trace::kTraceMagic), std::end(trace::kTraceMagic));
  for (const auto& [tag, payload] : sections) {
    bytes.push_back(tag);
    trace::PutVarint(bytes, payload.size());
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  return bytes;
}

// The writer's section tags, in its write order (summary last).
constexpr uint8_t kPlanTag = 1, kSymbolsTag = 2, kRecordsTag = 3, kMetricsTag = 4,
                  kProfileTag = 5, kSummaryTag = 6;

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
  // The structural prefix (magic, version, section framing) must reject.
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

TEST(CorruptCapture, SectionsAndTimestampsRoundTrip) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const Sections sections = Split(bytes);
  std::vector<uint8_t> tags;
  for (const auto& section : sections) {
    tags.push_back(section.first);
  }
  EXPECT_EQ(tags, (std::vector<uint8_t>{kPlanTag, kSymbolsTag, kRecordsTag, kMetricsTag,
                                        kProfileTag, kSummaryTag}));
  EXPECT_EQ(Join(sections), bytes);

  const std::string path = TempPath("tesla_corrupt_ts_ok");
  WriteBytes(path, bytes);
  auto read = TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  const TraceFile& file = read.value();
  ASSERT_EQ(file.plan_hints.classes.size(), 1u);
  EXPECT_EQ(file.plan_hints.classes[0].capacity, 24u);
  EXPECT_TRUE(file.summary.has_metrics);
  EXPECT_EQ(file.summary.metrics.histograms[0].buckets[4], 2u);
  EXPECT_TRUE(file.summary.has_profile);
  ASSERT_EQ(file.summary.profile.classes.size(), 1u);
  EXPECT_EQ(file.summary.profile.classes[0].var_partial[1], 2u);
  ASSERT_EQ(file.records.size(), 5u);
  const uint64_t expected[] = {100, 50, 120, 0, 125};
  for (size_t i = 0; i < 5; i++) {
    EXPECT_EQ(file.records[i].ts_ns, expected[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

// Reads `bytes` and requires the reader to call it corrupt.
void ExpectCorrupt(const std::vector<uint8_t>& bytes, const std::string& what) {
  const std::string path = TempPath("tesla_corrupt_case");
  WriteBytes(path, bytes);
  auto read = TraceFile::Read(path);
  ASSERT_FALSE(read.ok()) << what << " accepted";
  EXPECT_EQ(read.error().code, trace::kErrCorrupt) << what << ": " << read.error().ToString();
  std::remove(path.c_str());
}

TEST(CorruptCapture, UnknownSectionIsSkipped) {
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  Sections sections = Split(bytes);
  sections.insert(sections.begin() + 1, {0x7f, {1, 2, 3}});
  const std::string path = TempPath("tesla_corrupt_unknown");
  WriteBytes(path, Join(sections));
  auto read = TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  // It reads identically: writing it back reproduces the original bytes.
  ASSERT_TRUE(read.value().Write(path).ok());
  std::ifstream in(path, std::ios::binary);
  EXPECT_EQ(std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>()),
            bytes);
  std::remove(path.c_str());
}

TEST(CorruptCapture, RepeatedOrMissingSectionsAndTrailingBytesRejected) {
  const Sections sections = Split(ValidCaptureBytes());
  Sections repeated = sections;
  repeated.push_back(sections.back());  // a second summary
  ExpectCorrupt(Join(repeated), "duplicate summary");

  for (uint8_t required : {kPlanTag, kSymbolsTag, kRecordsTag, kSummaryTag}) {
    Sections missing;
    for (const auto& section : sections) {
      if (section.first != required) {
        missing.push_back(section);
      }
    }
    ExpectCorrupt(Join(missing), "missing section " + std::to_string(required));
  }

  for (size_t i = 0; i < sections.size(); i++) {
    Sections trailing = sections;
    trailing[i].second.push_back(0);
    ExpectCorrupt(Join(trailing), "trailing byte in section " + std::to_string(i));
  }
}

// The plan section's pool size feeds an allocation on replay: a value past
// the runtime's pool ceiling is corrupt, never a multi-terabyte pool.
TEST(CorruptCapture, PoolSizePastTheCeilingRejected) {
  const Sections sections = Split(ValidCaptureBytes());
  ASSERT_EQ(sections[0].first, kPlanTag);
  const std::vector<uint8_t>& plan = sections[0].second;
  // origin "test:corrupt" (length byte + 12), flags byte 5, then the
  // pool-size varint 256 = {0x80, 0x02}.
  ASSERT_EQ(plan[0], 12u);
  ASSERT_EQ(plan[13], 5u);
  ASSERT_EQ(plan[14], 0x80u);
  ASSERT_EQ(plan[15], 0x02u);
  const std::string path = TempPath("tesla_corrupt_pool");
  const struct {
    uint64_t pool;
    bool ok;
  } cases[] = {{runtime::kMaxInstancesPerContext, true},
               {runtime::kMaxInstancesPerContext + 1, false},
               {uint64_t{1} << 40, false},
               {UINT64_MAX, false}};
  for (const auto& c : cases) {
    Sections mutated = sections;
    std::vector<uint8_t> patched(plan.begin(), plan.begin() + 14);
    trace::PutVarint(patched, c.pool);
    patched.insert(patched.end(), plan.begin() + 16, plan.end());
    mutated[0].second = patched;
    WriteBytes(path, Join(mutated));
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
  // The reader takes exactly its own layout and reports any other version
  // digit, older or newer, with the dedicated code — so a fleet can tell
  // "another format version" from "corrupt file".
  const std::vector<uint8_t> bytes = ValidCaptureBytes();
  const std::string path = TempPath("tesla_corrupt_version");
  for (char digit = '1'; digit <= '9'; digit++) {
    if (digit == trace::kTraceMagic[7]) {
      continue;
    }
    std::vector<uint8_t> mutated = bytes;
    mutated[7] = static_cast<uint8_t>(digit);
    WriteBytes(path, mutated);
    auto read = TraceFile::Read(path);
    ASSERT_FALSE(read.ok()) << "v" << digit << " accepted";
    EXPECT_EQ(read.error().code, trace::kErrVersionMismatch) << "v" << digit;
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

#include "trace/format.h"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "support/intern.h"
#include "trace/wire.h"

namespace tesla::trace {

CaptureOptions CaptureOptions::Of(const runtime::RuntimeOptions& options) {
  return {options.lazy_init, options.use_dfa, options.instance_index,
          options.instances_per_context, options.global_shards};
}

uint8_t CaptureOptions::flags() const {
  return static_cast<uint8_t>((lazy_init ? 1 : 0) | (use_dfa ? 2 : 0) |
                              (instance_index ? 4 : 0));
}

Result<CaptureOptions> CaptureOptions::Decode(uint8_t flags, uint64_t instances_per_context,
                                              uint64_t global_shards) {
  if ((flags & ~uint8_t{7}) != 0) {
    return Error{"invalid options flags", 0, 0, kErrCorrupt};
  }
  if (instances_per_context > runtime::kMaxInstancesPerContext) {
    return Error{"instances_per_context " + std::to_string(instances_per_context) +
                     " exceeds the pool ceiling " +
                     std::to_string(runtime::kMaxInstancesPerContext),
                 0, 0, kErrCorrupt};
  }
  return CaptureOptions{(flags & 1) != 0, (flags & 2) != 0, (flags & 4) != 0,
                        instances_per_context, global_shards};
}

namespace {

// Section tags. A changed section schema takes a new tag.
enum class Tag : uint8_t {
  kPlan = 1,
  kSymbols = 2,
  kRecords = 3,
  kMetrics = 4,
  kProfile = 5,
  kSummary = 6,
  kLast = kSummary,
};

constexpr const char* kSectionNames[] = {"", "plan", "symbols", "records",
                                         "metrics", "profile", "summary"};

Error Corrupt(const std::string& path, const std::string& what) {
  return Error{"'" + path + "': " + what, 0, 0, kErrCorrupt};
}

// A varint narrowed to the field it decodes into.
template <typename T>
T GetVarint(Cursor& in) {
  uint64_t value = 0;
  in.Varint(&value);
  return static_cast<T>(value);
}

int64_t GetSigned(Cursor& in) { return Unzigzag(GetVarint<uint64_t>(in)); }

// One Put/Get pair per section payload. Each Get is the exact inverse of its
// Put over a cursor bounded to the payload, and fails (the caller tags the
// error kErrCorrupt) on anything its Put cannot have written.
void PutRecords(std::vector<uint8_t>& out, const std::vector<TraceRecord>& records) {
  uint64_t prev_seq = 0;
  uint64_t prev_ts = 0;
  for (const TraceRecord& record : records) {
    out.push_back(record.kind);
    out.push_back(record.flags);
    PutVarint(out, record.ctx);
    PutVarint(out, record.seq - prev_seq);
    prev_seq = record.seq;
    // Timestamps delta well within one context but interleave across
    // contexts, so the delta is signed. Unstamped records (no timed clause
    // registered) encode a zero delta — one byte.
    PutVarint(out, Zigzag(static_cast<int64_t>(record.ts_ns - prev_ts)));
    prev_ts = record.ts_ns;
    PutVarint(out, record.target);
    out.push_back(record.count);
    for (uint8_t i = 0; i < record.count; i++) {
      PutVarint(out, Zigzag(record.values[i]));
    }
    const auto kind = static_cast<runtime::EventKind>(record.kind);
    if (kind == runtime::EventKind::kAssertionSite) {
      for (uint8_t i = 0; i < record.count; i++) {
        PutVarint(out, record.vars[i]);
      }
    }
    if (kind == runtime::EventKind::kFunctionReturn) {
      PutVarint(out, Zigzag(record.return_value));
    }
  }
}

Status GetRecords(Cursor& in, std::vector<TraceRecord>& records) {
  uint64_t seq = 0;
  uint64_t ts = 0;
  while (in.remaining() > 0) {
    TraceRecord record;
    in.Byte(&record.kind);
    if (record.kind > static_cast<uint8_t>(runtime::EventKind::kAssertionSite)) {
      return Error{"corrupt record kind"};
    }
    in.Byte(&record.flags);
    record.ctx = GetVarint<uint32_t>(in);
    seq += GetVarint<uint64_t>(in);
    ts += static_cast<uint64_t>(GetSigned(in));  // modular, as the writer's delta
    record.seq = seq;
    record.ts_ns = ts;
    record.target = GetVarint<uint32_t>(in);
    in.Byte(&record.count);
    if (record.count > runtime::kMaxEventArgs) {
      return Error{"corrupt record arity"};
    }
    for (uint8_t i = 0; i < record.count; i++) {
      record.values[i] = GetSigned(in);
    }
    const auto kind = static_cast<runtime::EventKind>(record.kind);
    if (kind == runtime::EventKind::kAssertionSite) {
      for (uint8_t i = 0; i < record.count; i++) {
        record.vars[i] = GetVarint<uint16_t>(in);
      }
    }
    if (kind == runtime::EventKind::kFunctionReturn) {
      record.return_value = GetSigned(in);
    }
    if (in.failed) {
      return Error{"truncated record"};
    }
    records.push_back(record);
  }
  return Status::Ok();
}

void PutPlan(std::vector<uint8_t>& out, const Plan& plan) {
  PutString(out, plan.origin);
  out.push_back(plan.options.flags());
  PutVarint(out, plan.options.instances_per_context);
  PutVarint(out, plan.options.global_shards);
  PutString(out, plan.manifest_text);
  PutString(out, profile::HintsToText(plan.plan_hints));
}

Status GetPlan(Cursor& in, Plan& plan) {
  uint8_t flags = 0;
  uint64_t instances_per_context = 0, global_shards = 0;
  std::string hints;
  in.String(&plan.origin);
  in.Byte(&flags);
  in.Varint(&instances_per_context);
  in.Varint(&global_shards);
  in.String(&plan.manifest_text);
  in.String(&hints);
  if (in.failed) {
    return Error{"truncated"};
  }
  Result<CaptureOptions> options =
      CaptureOptions::Decode(flags, instances_per_context, global_shards);
  if (!options.ok()) {
    return options.error();
  }
  plan.options = options.value();
  Result<profile::PlanHints> parsed = profile::ParseHints(hints);
  if (!parsed.ok()) {
    return parsed.error();
  }
  plan.plan_hints = std::move(parsed.value());
  return Status::Ok();
}

void PutSymbols(std::vector<uint8_t>& out, const std::vector<std::string>& symbols) {
  PutVarint(out, symbols.size());
  for (const std::string& symbol : symbols) {
    PutString(out, symbol);
  }
}

Status GetSymbols(Cursor& in, std::vector<std::string>& symbols) {
  const uint64_t count = GetVarint<uint64_t>(in);
  if (!in.FitsRemaining(count)) {
    return Error{"truncated"};
  }
  symbols.resize(static_cast<size_t>(count));
  for (std::string& symbol : symbols) {
    in.String(&symbol);
  }
  return in.failed ? Status(Error{"truncated"}) : Status::Ok();
}

void PutMetrics(std::vector<uint8_t>& out, const metrics::Snapshot& snap) {
  out.push_back(static_cast<uint8_t>(snap.mode));
  PutVarint(out, snap.classes.size());
  for (const metrics::ClassSnapshot& cls : snap.classes) {
    PutString(out, cls.name);
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      PutVarint(out, cls.counters[k]);
    }
    PutVarint(out, cls.transitions.size());
    for (const metrics::TransitionCoverage& transition : cls.transitions) {
      PutVarint(out, transition.state);
      PutVarint(out, transition.symbol);
      out.push_back(transition.fired ? 1 : 0);
      PutString(out, transition.description);
    }
  }
  if (snap.mode == metrics::MetricsMode::kFull) {
    for (const metrics::HistogramData& hist : snap.histograms) {
      PutVarint(out, hist.count);
      PutVarint(out, hist.sum_ns);
      uint64_t occupied = 0;
      for (uint64_t count : hist.buckets) {
        occupied += count != 0 ? 1 : 0;
      }
      PutVarint(out, occupied);
      for (size_t bucket = 0; bucket < metrics::kHistogramBuckets; bucket++) {
        if (hist.buckets[bucket] != 0) {
          PutVarint(out, bucket);
          PutVarint(out, hist.buckets[bucket]);
        }
      }
    }
  }
}

Status GetMetrics(Cursor& in, metrics::Snapshot& snap) {
  uint8_t mode = 0;
  in.Byte(&mode);
  if (mode > static_cast<uint8_t>(metrics::MetricsMode::kFull)) {
    return Error{"invalid metrics mode"};
  }
  snap.mode = static_cast<metrics::MetricsMode>(mode);
  const uint64_t class_count = GetVarint<uint64_t>(in);
  // Every class carries at least a name length and its counter varints.
  if (!in.FitsRemaining(class_count, 1 + metrics::kClassCounterCount)) {
    return Error{"truncated"};
  }
  snap.classes.resize(static_cast<size_t>(class_count));
  for (metrics::ClassSnapshot& cls : snap.classes) {
    in.String(&cls.name);
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      in.Varint(&cls.counters[k]);
    }
    const uint64_t transition_count = GetVarint<uint64_t>(in);
    // state + symbol + fired + description length: ≥ 4 bytes each.
    if (!in.FitsRemaining(transition_count, 4)) {
      return Error{"truncated"};
    }
    cls.transitions.resize(static_cast<size_t>(transition_count));
    for (metrics::TransitionCoverage& transition : cls.transitions) {
      uint8_t fired = 0;
      transition.state = GetVarint<uint32_t>(in);
      transition.symbol = GetVarint<uint16_t>(in);
      in.Byte(&fired);
      transition.fired = fired != 0;
      in.String(&transition.description);
    }
  }
  if (snap.mode == metrics::MetricsMode::kFull) {
    for (metrics::HistogramData& hist : snap.histograms) {
      in.Varint(&hist.count);
      in.Varint(&hist.sum_ns);
      const uint64_t occupied = GetVarint<uint64_t>(in);
      if (occupied > metrics::kHistogramBuckets) {
        return Error{"invalid histogram bucket count"};
      }
      for (uint64_t i = 0; i < occupied; i++) {
        const uint64_t bucket = GetVarint<uint64_t>(in);
        if (bucket >= metrics::kHistogramBuckets) {
          return Error{"invalid histogram bucket index"};
        }
        hist.buckets[bucket] = GetVarint<uint64_t>(in);
      }
    }
  }
  return in.failed ? Status(Error{"truncated"}) : Status::Ok();
}

void PutProfile(std::vector<uint8_t>& out, const profile::Snapshot& prof) {
  PutVarint(out, prof.pool_capacity);
  PutVarint(out, prof.pool_high_water);
  PutVarint(out, prof.classes.size());
  for (const profile::ClassProfile& cls : prof.classes) {
    PutString(out, cls.name);
    PutVarint(out, cls.key_vars.size());
    for (uint16_t var : cls.key_vars) {
      PutVarint(out, var);
    }
    for (uint64_t cell : cls.cells) {
      PutVarint(out, cell);
    }
    for (uint64_t partial : cls.var_partial) {
      PutVarint(out, partial);
    }
    for (const auto& sketch : cls.sketch) {
      for (uint64_t word : sketch) {
        PutVarint(out, word);
      }
    }
  }
}

Status GetProfile(Cursor& in, profile::Snapshot& prof) {
  in.Varint(&prof.pool_capacity);
  in.Varint(&prof.pool_high_water);
  const uint64_t class_count = GetVarint<uint64_t>(in);
  // Every class carries at least a name length, a key-var count and its
  // fixed cell, partial and sketch words.
  const uint64_t min_class_bytes = 2 + profile::kCellCount + profile::kMaxKeyVars +
                                   profile::kMaxKeyVars * profile::kSketchWords;
  if (!in.FitsRemaining(class_count, min_class_bytes)) {
    return Error{"truncated"};
  }
  prof.classes.resize(static_cast<size_t>(class_count));
  for (profile::ClassProfile& cls : prof.classes) {
    in.String(&cls.name);
    const uint64_t key_var_count = GetVarint<uint64_t>(in);
    if (key_var_count > profile::kMaxKeyVars) {
      return Error{"invalid key-var count"};
    }
    cls.key_vars.resize(static_cast<size_t>(key_var_count));
    for (uint16_t& var : cls.key_vars) {
      var = GetVarint<uint16_t>(in);
    }
    for (uint64_t& cell : cls.cells) {
      in.Varint(&cell);
    }
    for (uint64_t& partial : cls.var_partial) {
      in.Varint(&partial);
    }
    for (auto& sketch : cls.sketch) {
      for (uint64_t& word : sketch) {
        in.Varint(&word);
      }
    }
  }
  return in.failed ? Status(Error{"truncated"}) : Status::Ok();
}

void PutSummary(std::vector<uint8_t>& out, const SemanticSummary& summary) {
  PutVarint(out, summary.dropped);
  for (const StatsField& field : kStatsFields) {
    PutVarint(out, summary.stats.*field.field);
  }
  PutVarint(out, summary.violations.size());
  for (const auto& [kind, automaton] : summary.violations) {
    out.push_back(static_cast<uint8_t>(kind));
    PutString(out, automaton);
  }
}

Status GetSummary(Cursor& in, SemanticSummary& summary) {
  in.Varint(&summary.dropped);
  for (const StatsField& field : kStatsFields) {
    in.Varint(&(summary.stats.*field.field));
  }
  const uint64_t violation_count = GetVarint<uint64_t>(in);
  if (!in.FitsRemaining(violation_count, 2)) {  // kind byte + empty string
    return Error{"truncated"};
  }
  summary.violations.reserve(static_cast<size_t>(violation_count));
  for (uint64_t i = 0; i < violation_count; i++) {
    uint8_t kind = 0;
    std::string automaton;
    in.Byte(&kind);
    in.String(&automaton);
    if (kind > static_cast<uint8_t>(runtime::ViolationKind::kRateExceeded)) {
      return Error{"invalid violation kind"};
    }
    summary.violations.emplace_back(static_cast<runtime::ViolationKind>(kind),
                                    std::move(automaton));
  }
  return in.failed ? Status(Error{"truncated"}) : Status::Ok();
}

// Appends one section: tag, varint payload length, payload. The payload is
// encoded in place and its length spliced in ahead of it.
template <typename Encode>
void PutSection(std::vector<uint8_t>& out, Tag tag, Encode encode) {
  out.push_back(static_cast<uint8_t>(tag));
  const size_t start = out.size();
  encode(out);
  std::vector<uint8_t> length;
  PutVarint(length, out.size() - start);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(start), length.begin(), length.end());
}

}  // namespace

Plan Plan::Of(std::string origin, const runtime::RuntimeOptions& options,
              std::string manifest_text) {
  Plan plan;
  plan.origin = std::move(origin);
  plan.options = CaptureOptions::Of(options);
  plan.plan_hints = options.plan_hints;
  plan.manifest_text = std::move(manifest_text);
  return plan;
}

runtime::RuntimeOptions Plan::ToRuntimeOptions() const {
  runtime::RuntimeOptions runtime_options;
  runtime_options.lazy_init = options.lazy_init;
  runtime_options.use_dfa = options.use_dfa;
  runtime_options.instance_index = options.instance_index;
  runtime_options.instances_per_context = static_cast<size_t>(options.instances_per_context);
  runtime_options.global_shards = static_cast<size_t>(options.global_shards);
  runtime_options.plan_hints = plan_hints;
  return runtime_options;
}

std::vector<uint8_t> Plan::Encode() const {
  std::vector<uint8_t> out;
  PutPlan(out, *this);
  return out;
}

Result<Plan> Plan::Decode(const uint8_t* data, size_t size) {
  Cursor in{data, size};
  Plan plan;
  if (Status status = GetPlan(in, plan); !status.ok()) {
    return Error{"plan: " + status.error().message, 0, 0, kErrCorrupt};
  }
  if (in.remaining() != 0) {
    return Error{"plan has trailing bytes", 0, 0, kErrCorrupt};
  }
  return plan;
}

Status TraceFile::Write(const std::string& path) const {
  std::vector<uint8_t> out(std::begin(kTraceMagic), std::end(kTraceMagic));
  PutSection(out, Tag::kPlan, [this](std::vector<uint8_t>& o) { PutPlan(o, *this); });
  PutSection(out, Tag::kSymbols, [this](std::vector<uint8_t>& o) { PutSymbols(o, symbols); });
  PutSection(out, Tag::kRecords, [this](std::vector<uint8_t>& o) { PutRecords(o, records); });
  if (summary.has_metrics) {
    PutSection(out, Tag::kMetrics,
               [this](std::vector<uint8_t>& o) { PutMetrics(o, summary.metrics); });
  }
  if (summary.has_profile) {
    PutSection(out, Tag::kProfile,
               [this](std::vector<uint8_t>& o) { PutProfile(o, summary.profile); });
  }
  PutSection(out, Tag::kSummary, [this](std::vector<uint8_t>& o) { PutSummary(o, summary); });

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Error{"cannot open trace file '" + path + "' for writing", 0, 0, kErrUnreadable};
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size() &&
                  std::fflush(file) == 0;
  std::fclose(file);
  if (!ok) {
    return Error{"I/O error while writing '" + path + "'", 0, 0, kErrUnreadable};
  }
  return Status::Ok();
}

Result<TraceFile> TraceFile::Read(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Error{"cannot open trace file '" + path + "'", 0, 0, kErrUnreadable};
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return Error{"I/O error while reading '" + path + "'", 0, 0, kErrUnreadable};
  }

  // "TSLATRC<digit>": a well-formed magic with another digit is a capture
  // of another format version, reported as such (a distinct exit code in
  // the CLI) rather than as corruption.
  if (bytes.size() < sizeof(kTraceMagic) ||
      std::memcmp(bytes.data(), kTraceMagic, sizeof(kTraceMagic) - 1) != 0 ||
      bytes[7] < '0' || bytes[7] > '9') {
    return Corrupt(path, "not a TESLA trace capture (bad magic)");
  }
  if (bytes[7] != kTraceMagic[7]) {
    return Error{"'" + path + "' is a TSLATRC v" + std::string(1, bytes[7]) +
                     " capture; this build reads v" + std::string(1, kTraceMagic[7]),
                 0, 0, kErrVersionMismatch};
  }

  TraceFile file;
  Cursor cursor{bytes.data(), bytes.size(), sizeof(kTraceMagic)};
  uint32_t seen = 0;  // bit per known tag
  while (cursor.remaining() > 0) {
    uint8_t tag = 0;
    uint64_t length = 0;
    cursor.Byte(&tag);
    cursor.Varint(&length);
    if (cursor.failed || length > cursor.remaining()) {
      return Corrupt(path, "section overruns the end of the file");
    }
    Cursor section{bytes.data() + cursor.pos, static_cast<size_t>(length)};
    cursor.pos += static_cast<size_t>(length);
    if (tag == 0 || tag > static_cast<uint8_t>(Tag::kLast)) {
      continue;  // a section this reader does not know
    }
    const char* name = kSectionNames[tag];
    if ((seen & (1u << tag)) != 0) {
      return Corrupt(path, std::string("repeated ") + name + " section");
    }
    seen |= 1u << tag;
    Status status;
    switch (static_cast<Tag>(tag)) {
      case Tag::kPlan:
        status = GetPlan(section, file);
        break;
      case Tag::kSymbols:
        status = GetSymbols(section, file.symbols);
        break;
      case Tag::kRecords:
        status = GetRecords(section, file.records);
        break;
      case Tag::kMetrics:
        file.summary.has_metrics = true;
        status = GetMetrics(section, file.summary.metrics);
        break;
      case Tag::kProfile:
        file.summary.has_profile = true;
        status = GetProfile(section, file.summary.profile);
        break;
      case Tag::kSummary:
        status = GetSummary(section, file.summary);
        break;
    }
    if (!status.ok()) {
      return Corrupt(path, std::string(name) + " section: " + status.error().message);
    }
    if (section.remaining() != 0) {
      return Corrupt(path, std::string(name) + " section has trailing bytes");
    }
  }
  for (Tag tag : {Tag::kPlan, Tag::kSymbols, Tag::kRecords, Tag::kSummary}) {
    if ((seen & (1u << static_cast<uint8_t>(tag))) == 0) {
      return Corrupt(path, std::string("missing ") + kSectionNames[static_cast<uint8_t>(tag)] +
                               " section");
    }
  }
  file.summary.metrics.stats = file.summary.stats;
  return file;
}

void TraceFile::InternAndRemap() {
  std::vector<uint32_t> remap(symbols.size());
  for (size_t i = 0; i < symbols.size(); i++) {
    remap[i] = InternString(symbols[i]);
  }
  for (TraceRecord& record : records) {
    if (static_cast<runtime::EventKind>(record.kind) == runtime::EventKind::kAssertionSite) {
      continue;  // site targets are automaton ids, not symbols
    }
    if (record.target < remap.size()) {
      record.target = remap[record.target];
    }
  }
}

}  // namespace tesla::trace

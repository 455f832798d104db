#include "trace/format.h"

#include <cstring>

#include "trace/wire.h"

namespace tesla::trace {
namespace {

constexpr uint8_t kEndMarker = 0xFF;

Error Corrupt(const std::string& path, const std::string& what) {
  return Error{"'" + path + "': " + what, 0, 0, kErrCorrupt};
}

}  // namespace

CaptureOptions CaptureOptions::Of(const runtime::RuntimeOptions& options) {
  return {options.lazy_init, options.use_dfa, options.instance_index,
          options.instances_per_context, options.global_shards};
}

runtime::RuntimeOptions CaptureOptions::ToRuntimeOptions() const {
  runtime::RuntimeOptions options;
  options.lazy_init = lazy_init;
  options.use_dfa = use_dfa;
  options.instance_index = instance_index;
  options.instances_per_context = static_cast<size_t>(instances_per_context);
  options.global_shards = static_cast<size_t>(global_shards);
  return options;
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

TraceWriter::~TraceWriter() {
  if (out_ != nullptr) {
    std::fclose(out_);
  }
}

Status TraceWriter::Open(const std::string& path, const std::string& origin,
                         const CaptureOptions& options, const StringInterner& interner,
                         const std::string& manifest_text) {
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    return Error{"cannot open trace file '" + path + "' for writing", 0, 0, kErrUnreadable};
  }
  buffer_.assign(kTraceMagic, kTraceMagic + sizeof(kTraceMagic));
  PutString(buffer_, origin);
  buffer_.push_back(options.flags());
  PutVarint(buffer_, options.instances_per_context);
  PutVarint(buffer_, options.global_shards);
  PutString(buffer_, manifest_text);
  PutVarint(buffer_, interner.size());
  for (Symbol symbol = 0; symbol < interner.size(); symbol++) {
    PutString(buffer_, interner.Spelling(symbol));
  }
  std::fwrite(buffer_.data(), 1, buffer_.size(), out_);
  prev_seq_ = 0;
  prev_ts_ = 0;
  base_ts_ = 0;
  last_ts_ = 0;
  any_ts_ = false;
  return Status::Ok();
}

void TraceWriter::Append(const TraceRecord& record) {
  buffer_.clear();
  buffer_.push_back(record.kind);
  buffer_.push_back(record.flags);
  PutVarint(buffer_, record.ctx);
  PutVarint(buffer_, record.seq - prev_seq_);
  prev_seq_ = record.seq;
  // Timestamps delta well within one context but interleave across contexts,
  // so the delta is signed (zigzag). Unstamped records (no timed clause
  // registered) encode a zero delta — one byte.
  PutVarint(buffer_, Zigzag(static_cast<int64_t>(record.ts_ns - prev_ts_)));
  prev_ts_ = record.ts_ns;
  if (record.ts_ns != 0) {
    if (!any_ts_) {
      base_ts_ = record.ts_ns;
      any_ts_ = true;
    }
    last_ts_ = record.ts_ns;
  }
  PutVarint(buffer_, record.target);
  buffer_.push_back(record.count);
  for (uint8_t i = 0; i < record.count; i++) {
    PutVarint(buffer_, Zigzag(record.values[i]));
  }
  if (static_cast<runtime::EventKind>(record.kind) == runtime::EventKind::kAssertionSite) {
    for (uint8_t i = 0; i < record.count; i++) {
      PutVarint(buffer_, record.vars[i]);
    }
  }
  if (static_cast<runtime::EventKind>(record.kind) == runtime::EventKind::kFunctionReturn) {
    PutVarint(buffer_, Zigzag(record.return_value));
  }
  std::fwrite(buffer_.data(), 1, buffer_.size(), out_);
}

Status TraceWriter::Finish(const SemanticSummary& summary) {
  buffer_.clear();
  buffer_.push_back(kEndMarker);
  PutVarint(buffer_, summary.dropped);
  // v3 footers are self-describing: the field count precedes the fields, so
  // a reader built before a future schema append can still parse the file.
  PutVarint(buffer_, runtime::kRuntimeStatsFieldCount);
  for (const StatsField& field : kStatsFields) {
    PutVarint(buffer_, summary.stats.*field.field);
  }
  PutVarint(buffer_, summary.violations.size());
  for (const auto& [kind, automaton] : summary.violations) {
    buffer_.push_back(static_cast<uint8_t>(kind));
    PutString(buffer_, automaton);
  }
  buffer_.push_back(summary.has_metrics ? 1 : 0);
  if (summary.has_metrics) {
    const metrics::Snapshot& snap = summary.metrics;
    buffer_.push_back(static_cast<uint8_t>(snap.mode));
    PutVarint(buffer_, snap.classes.size());
    for (const metrics::ClassSnapshot& cls : snap.classes) {
      PutString(buffer_, cls.name);
      for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
        PutVarint(buffer_, cls.counters[k]);
      }
      PutVarint(buffer_, cls.transitions.size());
      for (const metrics::TransitionCoverage& transition : cls.transitions) {
        PutVarint(buffer_, transition.state);
        PutVarint(buffer_, transition.symbol);
        buffer_.push_back(transition.fired ? 1 : 0);
        PutString(buffer_, transition.description);
      }
    }
    if (snap.mode == metrics::MetricsMode::kFull) {
      for (size_t kind = 0; kind < metrics::kEventKinds; kind++) {
        const metrics::HistogramData& hist = snap.histograms[kind];
        PutVarint(buffer_, hist.count);
        PutVarint(buffer_, hist.sum_ns);
        uint64_t occupied = 0;
        for (uint64_t count : hist.buckets) {
          occupied += count != 0 ? 1 : 0;
        }
        PutVarint(buffer_, occupied);
        for (size_t bucket = 0; bucket < metrics::kHistogramBuckets; bucket++) {
          if (hist.buckets[bucket] != 0) {
            PutVarint(buffer_, bucket);
            PutVarint(buffer_, hist.buckets[bucket]);
          }
        }
      }
    }
  }
  buffer_.push_back(summary.has_profile ? 1 : 0);
  if (summary.has_profile) {
    const profile::Snapshot& prof = summary.profile;
    PutVarint(buffer_, prof.pool_capacity);
    PutVarint(buffer_, prof.pool_high_water);
    PutVarint(buffer_, prof.classes.size());
    for (const profile::ClassProfile& cls : prof.classes) {
      PutString(buffer_, cls.name);
      PutVarint(buffer_, cls.key_vars.size());
      for (uint16_t var : cls.key_vars) {
        PutVarint(buffer_, var);
      }
      // Cell count precedes the cells so the schema X-macro may append
      // without breaking older readers (same policy as the stats footer).
      PutVarint(buffer_, profile::kCellCount);
      for (size_t i = 0; i < profile::kCellCount; i++) {
        PutVarint(buffer_, cls.cells[i]);
      }
      for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
        PutVarint(buffer_, cls.var_partial[p]);
      }
      for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
        for (size_t w = 0; w < profile::kSketchWords; w++) {
          PutVarint(buffer_, cls.sketch[p][w]);
        }
      }
    }
  }
  // v6 timestamp footer: present only when some record carried a nonzero
  // timestamp. Self-describing field count, same append policy as the stats
  // footer — a reader discards fields a newer writer appended.
  buffer_.push_back(any_ts_ ? 1 : 0);
  if (any_ts_) {
    PutVarint(buffer_, 2);  // field count: base ts, last ts
    PutVarint(buffer_, base_ts_);
    PutVarint(buffer_, last_ts_);
  }
  std::fwrite(buffer_.data(), 1, buffer_.size(), out_);
  const bool ok = std::fflush(out_) == 0 && std::ferror(out_) == 0;
  std::fclose(out_);
  out_ = nullptr;
  if (!ok) {
    return Error{"I/O error while writing trace file"};
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

  // "TSLATRC<digit>": v1–v3 files are still readable — v1 ends after the
  // violation list with no metrics section, v1/v2 carry the fixed legacy
  // stats footer instead of the self-describing one, and only v4 embeds a
  // manifest. A well-formed magic with a *newer* digit is a version
  // mismatch, reported as such (distinct exit code in the CLI) rather than
  // as corruption.
  if (bytes.size() < sizeof(kTraceMagic) ||
      std::memcmp(bytes.data(), kTraceMagic, sizeof(kTraceMagic) - 1) != 0) {
    return Corrupt(path, "not a TESLA trace capture (bad magic)");
  }
  if (bytes[7] < '1' || bytes[7] > '9') {
    return Corrupt(path, "not a TESLA trace capture (bad version byte)");
  }
  if (bytes[7] > '0' + kTraceVersion) {
    return Error{"'" + path + "' is a TSLATRC v" + std::string(1, bytes[7]) +
                     " capture; this build reads up to v" + std::to_string(kTraceVersion),
                 0, 0, kErrVersionMismatch};
  }

  TraceFile file;
  file.version = static_cast<uint32_t>(bytes[7] - '0');
  Cursor cursor{bytes.data(), bytes.size(), sizeof(kTraceMagic)};

  uint8_t flags = 0;
  uint64_t value = 0;
  uint64_t instances_per_context = 0, global_shards = 0;
  cursor.String(&file.origin);
  cursor.Byte(&flags);
  cursor.Varint(&instances_per_context);
  cursor.Varint(&global_shards);
  if (!cursor.failed) {
    Result<CaptureOptions> options =
        CaptureOptions::Decode(flags, instances_per_context, global_shards);
    if (!options.ok()) {
      return Corrupt(path, options.error().message);
    }
    file.options = options.value();
  }
  if (file.version >= 4) {
    cursor.String(&file.manifest_text);
  }

  uint64_t symbol_count = 0;
  cursor.Varint(&symbol_count);
  if (!cursor.FitsRemaining(symbol_count)) {
    return Corrupt(path, "truncated trace header");
  }
  file.symbols.resize(static_cast<size_t>(symbol_count));
  for (auto& symbol : file.symbols) {
    cursor.String(&symbol);
  }
  if (cursor.failed) {
    return Corrupt(path, "truncated symbol table");
  }

  uint64_t seq = 0;
  uint64_t ts = 0;
  while (!cursor.failed) {
    uint8_t kind = 0;
    if (!cursor.Byte(&kind)) {
      return Corrupt(path, "trace stream ended without a footer");
    }
    if (kind == kEndMarker) {
      break;
    }
    if (kind > static_cast<uint8_t>(runtime::EventKind::kAssertionSite)) {
      return Corrupt(path, "corrupt record kind");
    }
    TraceRecord record;
    record.kind = kind;
    cursor.Byte(&record.flags);
    cursor.Varint(&value);
    record.ctx = static_cast<uint32_t>(value);
    cursor.Varint(&value);
    seq += value;
    record.seq = seq;
    if (file.version >= 6) {
      cursor.Varint(&value);
      ts = static_cast<uint64_t>(static_cast<int64_t>(ts) + Unzigzag(value));
      record.ts_ns = ts;
    }
    cursor.Varint(&value);
    record.target = static_cast<uint32_t>(value);
    cursor.Byte(&record.count);
    if (!cursor.failed && record.count > runtime::kMaxEventArgs) {
      return Corrupt(path, "corrupt record arity");
    }
    for (uint8_t i = 0; i < record.count; i++) {
      cursor.Varint(&value);
      record.values[i] = Unzigzag(value);
    }
    if (static_cast<runtime::EventKind>(kind) == runtime::EventKind::kAssertionSite) {
      for (uint8_t i = 0; i < record.count; i++) {
        cursor.Varint(&value);
        record.vars[i] = static_cast<uint16_t>(value);
      }
    }
    if (static_cast<runtime::EventKind>(kind) == runtime::EventKind::kFunctionReturn) {
      cursor.Varint(&value);
      record.return_value = Unzigzag(value);
    }
    if (cursor.failed) {
      return Corrupt(path, "truncated record");
    }
    file.records.push_back(record);
  }

  cursor.Varint(&file.summary.dropped);
  // v3+ footers lead with a field count; v1/v2 carry exactly the legacy
  // prefix of today's schema. Either way, fields we don't know about (a
  // capture from a newer build) are read and discarded, and fields the
  // capture predates stay zero.
  uint64_t footer_fields = kLegacyFooterStatsFields;
  if (file.version >= 3) {
    cursor.Varint(&footer_fields);
    if (!cursor.FitsRemaining(footer_fields)) {
      return Corrupt(path, "truncated footer");
    }
  }
  for (uint64_t i = 0; i < footer_fields; i++) {
    cursor.Varint(&value);
    if (i < runtime::kRuntimeStatsFieldCount) {
      file.summary.stats.*kStatsFields[i].field = value;
    }
  }
  uint64_t violation_count = 0;
  cursor.Varint(&violation_count);
  if (!cursor.FitsRemaining(violation_count, 2)) {  // kind byte + empty string
    return Corrupt(path, "truncated footer");
  }
  file.summary.violations.reserve(static_cast<size_t>(violation_count));
  for (uint64_t i = 0; i < violation_count; i++) {
    uint8_t kind = 0;
    std::string automaton;
    cursor.Byte(&kind);
    cursor.String(&automaton);
    if (cursor.failed) {
      return Corrupt(path, "truncated footer");
    }
    if (kind > static_cast<uint8_t>(runtime::ViolationKind::kRateExceeded)) {
      return Corrupt(path, "invalid violation kind");
    }
    file.summary.violations.emplace_back(static_cast<runtime::ViolationKind>(kind),
                                         std::move(automaton));
  }
  if (cursor.failed) {
    return Corrupt(path, "truncated footer");
  }

  if (file.version >= 2) {
    // The presence byte is mandatory in v2+ — a capture ending before it was
    // cut mid-footer, even though every field so far decoded cleanly.
    uint8_t has_metrics = 0;
    cursor.Byte(&has_metrics);
    if (cursor.failed) {
      return Corrupt(path, "truncated footer");
    }
    if (has_metrics > 1) {
      return Corrupt(path, "invalid metrics presence byte");
    }
    if (has_metrics != 0) {
      file.summary.has_metrics = true;
      metrics::Snapshot& snap = file.summary.metrics;
      snap.stats = file.summary.stats;
      uint8_t mode = 0;
      cursor.Byte(&mode);
      if (!cursor.failed && mode > static_cast<uint8_t>(metrics::MetricsMode::kFull)) {
        return Corrupt(path, "invalid metrics mode");
      }
      snap.mode = static_cast<metrics::MetricsMode>(mode);
      uint64_t class_count = 0;
      cursor.Varint(&class_count);
      // Every class carries at least a name length and its counter varints.
      if (!cursor.FitsRemaining(class_count, 1 + metrics::kClassCounterCount)) {
        return Corrupt(path, "truncated metrics section");
      }
      snap.classes.resize(static_cast<size_t>(class_count));
      for (metrics::ClassSnapshot& cls : snap.classes) {
        cursor.String(&cls.name);
        for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
          cursor.Varint(&cls.counters[k]);
        }
        uint64_t transition_count = 0;
        cursor.Varint(&transition_count);
        // state + symbol + fired + description length: ≥ 4 bytes each.
        if (!cursor.FitsRemaining(transition_count, 4)) {
          return Corrupt(path, "truncated metrics section");
        }
        cls.transitions.resize(static_cast<size_t>(transition_count));
        for (metrics::TransitionCoverage& transition : cls.transitions) {
          uint8_t fired = 0;
          cursor.Varint(&value);
          transition.state = static_cast<uint32_t>(value);
          cursor.Varint(&value);
          transition.symbol = static_cast<uint16_t>(value);
          cursor.Byte(&fired);
          transition.fired = fired != 0;
          cursor.String(&transition.description);
        }
      }
      if (snap.mode == metrics::MetricsMode::kFull) {
        for (size_t kind = 0; kind < metrics::kEventKinds; kind++) {
          metrics::HistogramData& hist = snap.histograms[kind];
          cursor.Varint(&hist.count);
          cursor.Varint(&hist.sum_ns);
          uint64_t occupied = 0;
          cursor.Varint(&occupied);
          if (cursor.failed || occupied > metrics::kHistogramBuckets) {
            return Corrupt(path, "truncated metrics section");
          }
          for (uint64_t i = 0; i < occupied; i++) {
            uint64_t bucket = 0;
            cursor.Varint(&bucket);
            cursor.Varint(&value);
            if (bucket < metrics::kHistogramBuckets) {
              hist.buckets[bucket] = value;
            }
          }
        }
      }
      if (cursor.failed) {
        return Corrupt(path, "truncated metrics section");
      }
    }
  }

  if (file.version >= 5) {
    uint8_t has_profile = 0;
    cursor.Byte(&has_profile);
    if (cursor.failed) {
      return Corrupt(path, "truncated footer");
    }
    if (has_profile > 1) {
      return Corrupt(path, "invalid profile presence byte");
    }
    if (has_profile != 0) {
      file.summary.has_profile = true;
      profile::Snapshot& prof = file.summary.profile;
      cursor.Varint(&prof.pool_capacity);
      cursor.Varint(&prof.pool_high_water);
      uint64_t class_count = 0;
      cursor.Varint(&class_count);
      // Every class carries at least a name length, a key-var count, a cell
      // count, and the fixed partial/sketch words.
      const uint64_t min_class_bytes =
          3 + profile::kMaxKeyVars + profile::kMaxKeyVars * profile::kSketchWords;
      if (!cursor.FitsRemaining(class_count, min_class_bytes)) {
        return Corrupt(path, "truncated profile section");
      }
      prof.classes.resize(static_cast<size_t>(class_count));
      for (profile::ClassProfile& cls : prof.classes) {
        cursor.String(&cls.name);
        uint64_t key_var_count = 0;
        cursor.Varint(&key_var_count);
        if (cursor.failed || key_var_count > profile::kMaxKeyVars) {
          return Corrupt(path, "truncated profile section");
        }
        cls.key_vars.resize(static_cast<size_t>(key_var_count));
        for (uint16_t& var : cls.key_vars) {
          cursor.Varint(&value);
          var = static_cast<uint16_t>(value);
        }
        uint64_t cell_count = 0;
        cursor.Varint(&cell_count);
        if (!cursor.FitsRemaining(cell_count)) {
          return Corrupt(path, "truncated profile section");
        }
        // Cells a newer writer appended are read and discarded; cells the
        // capture predates stay zero.
        for (uint64_t i = 0; i < cell_count; i++) {
          cursor.Varint(&value);
          if (i < profile::kCellCount) {
            cls.cells[i] = value;
          }
        }
        for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
          cursor.Varint(&cls.var_partial[p]);
        }
        for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
          for (size_t w = 0; w < profile::kSketchWords; w++) {
            cursor.Varint(&cls.sketch[p][w]);
          }
        }
        if (cursor.failed) {
          return Corrupt(path, "truncated profile section");
        }
      }
    }
  }

  if (file.version >= 6) {
    uint8_t has_timestamps = 0;
    cursor.Byte(&has_timestamps);
    if (cursor.failed) {
      return Corrupt(path, "truncated footer");
    }
    if (has_timestamps > 1) {
      return Corrupt(path, "invalid timestamp presence byte");
    }
    if (has_timestamps != 0) {
      file.summary.has_timestamps = true;
      uint64_t ts_fields = 0;
      cursor.Varint(&ts_fields);
      if (!cursor.FitsRemaining(ts_fields)) {
        return Corrupt(path, "truncated timestamp section");
      }
      // Fields a newer writer appended are read and discarded (same policy
      // as the stats footer); fields the capture predates stay zero.
      for (uint64_t i = 0; i < ts_fields; i++) {
        cursor.Varint(&value);
        if (i == 0) {
          file.summary.ts_base_ns = value;
        } else if (i == 1) {
          file.summary.ts_last_ns = value;
        }
      }
      if (cursor.failed) {
        return Corrupt(path, "truncated timestamp section");
      }
    }
  }
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

#include "profile/hints.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace tesla::profile {
namespace {

// Smallest power of two ≥ n (for capacity hints; pools like round sizes).
uint32_t RoundUpPow2(uint64_t n) {
  uint32_t p = 1;
  while (p < n && p < (1u << 20)) {
    p <<= 1;
  }
  return p;
}

// Reads `label` then an optional '-' (when `min` < 0) and 1–7 decimal
// digits at `line[*pos]`, into `*value` within [min, max]. On failure
// returns a message and leaves `*pos` at the offending byte.
const char* ParseField(std::string_view line, size_t* pos, std::string_view label, long min,
                       long max, long* value) {
  if (line.substr(*pos, label.size()) != label) {
    return "plan hints: malformed fields after class name";
  }
  *pos += label.size();
  const bool negative = min < 0 && *pos < line.size() && line[*pos] == '-';
  if (negative) {
    ++*pos;
  }
  const size_t digits_start = *pos;
  long magnitude = 0;
  while (*pos < line.size() && line[*pos] >= '0' && line[*pos] <= '9') {
    if (*pos - digits_start == 7) {
      return "plan hints: field out of range";
    }
    magnitude = magnitude * 10 + (line[*pos] - '0');
    ++*pos;
  }
  if (*pos == digits_start) {
    return "plan hints: field is not a decimal number";
  }
  *value = negative ? -magnitude : magnitude;
  if (*value < min || *value > max) {
    *pos = digits_start;
    return "plan hints: field out of range";
  }
  return nullptr;
}

}  // namespace

PlanHints HintsFromSnapshot(const Snapshot& snapshot) {
  PlanHints hints;
  for (const ClassProfile& cls : snapshot.classes) {
    const uint64_t dispatches = cls.cell(Cell::dispatches);
    const uint64_t peak = cls.cell(Cell::fanout_peak);
    if (dispatches == 0 && peak == 0) {
      continue;  // class never exercised: nothing to learn
    }
    ClassHint hint;
    hint.name = cls.name;
    // Capacity: headroom of 2× the observed peak, floor of 16 so a class
    // that bursts slightly past its profile window doesn't overflow.
    hint.capacity = std::max<uint32_t>(16, RoundUpPow2(peak * 2));

    // Prefix key: scans dominated by partially-bound dispatches (rather
    // than by scans below the index population gate), where one tracked key
    // variable was bound in most of them. Pick the most-bound variable
    // (lowest position wins ties — deterministic).
    const uint64_t scans = cls.cell(Cell::scan_fallbacks);
    const uint64_t partial = cls.cell(Cell::partial_bound);
    if (partial > 0 && partial >= scans - std::min(scans, partial)) {
      size_t best = kMaxKeyVars;
      uint64_t best_count = 0;
      const size_t tracked = std::min(cls.key_vars.size(), kMaxKeyVars);
      for (size_t p = 0; p < tracked; p++) {
        if (cls.var_partial[p] > best_count) {
          best = p;
          best_count = cls.var_partial[p];
        }
      }
      if (best < kMaxKeyVars) {
        hint.prefix_key_pos = static_cast<int32_t>(best);
      }
    }
    hints.classes.push_back(std::move(hint));
  }
  return hints;
}

std::string HintsToText(const PlanHints& hints) {
  std::string out;
  out.append("# tesla plan hints v2 — emitted from a workload profile.\n");
  out.append("# class <len>:<name> capacity=<n> prefix_key_pos=<n>\n");
  for (const ClassHint& hint : hints.classes) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "class %zu:", hint.name.size());
    out.append(buf);
    out.append(hint.name);
    std::snprintf(buf, sizeof(buf), " capacity=%" PRIu32 " prefix_key_pos=%" PRId32 "\n",
                  hint.capacity, hint.prefix_key_pos);
    out.append(buf);
  }
  return out;
}

Result<PlanHints> ParseHints(const std::string& text) {
  PlanHints hints;
  size_t start = 0;
  int lineno = 0;
  while (start < text.size()) {
    size_t eol = text.find('\n', start);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    const std::string_view line(text.data() + start, eol - start);
    start = eol + 1;
    lineno++;
    auto fail = [lineno](const char* message, size_t pos) {
      return Error{message, lineno, static_cast<int>(pos) + 1};
    };
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line.substr(0, 6) != "class ") {
      return fail("plan hints: expected 'class' directive", 0);
    }
    size_t pos = 6;
    size_t name_len = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9' && pos < 6 + 7) {
      name_len = name_len * 10 + static_cast<size_t>(line[pos] - '0');
      pos++;
    }
    if (pos == 6 || pos >= line.size() || line[pos] != ':' ||
        name_len > line.size() - pos - 1) {
      return fail("plan hints: bad name length", pos);
    }
    ClassHint hint;
    hint.name = std::string(line.substr(pos + 1, name_len));
    pos += 1 + name_len;
    if (const size_t v1 = line.find(" min_population=", pos); v1 != std::string_view::npos) {
      return fail("plan hints: min_population is a v1 field; the index population gate is "
                  "fixed — re-emit the hints from the profile",
                  v1 + 1);
    }
    long capacity = 0, prefix = -1;
    if (const char* error = ParseField(line, &pos, " capacity=", 0, 1 << 20, &capacity)) {
      return fail(error, pos);
    }
    if (const char* error = ParseField(line, &pos, " prefix_key_pos=", -1,
                                       static_cast<long>(kMaxKeyVars) - 1, &prefix)) {
      return fail(error, pos);
    }
    if (pos != line.size()) {
      return fail("plan hints: trailing bytes after prefix_key_pos", pos);
    }
    hint.capacity = static_cast<uint32_t>(capacity);
    hint.prefix_key_pos = static_cast<int32_t>(prefix);
    hints.classes.push_back(std::move(hint));
  }
  return hints;
}

Status WriteHintsFile(const std::string& path, const PlanHints& hints) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Error{"cannot open '" + path + "' for writing"};
  }
  const std::string text = HintsToText(hints);
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  if (written != text.size()) {
    return Error{"short write to '" + path + "'"};
  }
  return Status::Ok();
}

Result<PlanHints> ReadHintsFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Error{"cannot open plan-hints file '" + path + "'"};
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, n);
  }
  std::fclose(file);
  return ParseHints(text);
}

}  // namespace tesla::profile

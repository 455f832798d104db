#include "profile/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <map>
#include <numeric>

#include "support/strings.h"

namespace tesla::profile {
namespace {

size_t SketchPopcount(const uint64_t* words) {
  size_t ones = 0;
  for (size_t w = 0; w < kSketchWords; w++) {
    ones += static_cast<size_t>(__builtin_popcountll(words[w]));
  }
  return ones;
}

}  // namespace

double ClassProfile::EstimatedDistinct(size_t p) const {
  if (p >= kMaxKeyVars) {
    return 0;
  }
  const size_t ones = SketchPopcount(sketch[p]);
  if (ones == 0) {
    return 0;
  }
  if (ones >= kSketchBits) {
    return static_cast<double>(kSketchBits);  // saturated: "at least this many"
  }
  const double m = static_cast<double>(kSketchBits);
  const double zero_fraction = (m - static_cast<double>(ones)) / m;
  return -m * std::log(zero_fraction);
}

double ClassProfile::MeanFanout() const {
  const uint64_t dispatches = cell(Cell::dispatches);
  if (dispatches == 0) {
    return 0;
  }
  return static_cast<double>(cell(Cell::fanout_sum)) / static_cast<double>(dispatches);
}

void MergeInto(Snapshot* inout, const Snapshot& in) {
  inout->pool_high_water = std::max(inout->pool_high_water, in.pool_high_water);
  inout->pool_capacity = std::max(inout->pool_capacity, in.pool_capacity);
  // Union by name through an ordered map so the merged class order is a
  // function of the class *set*, never of input order.
  std::map<std::string, ClassProfile> merged;
  for (const ClassProfile& cls : inout->classes) {
    merged[cls.name] = cls;
  }
  for (const ClassProfile& cls : in.classes) {
    auto [it, fresh] = merged.emplace(cls.name, cls);
    if (fresh) {
      continue;
    }
    ClassProfile& dst = it->second;
    if (dst.key_vars.empty()) {
      dst.key_vars = cls.key_vars;
    }
    for (size_t i = 0; i < kCellCount; i++) {
      if (kCellMerge[i] == MergeRule::kMax) {
        dst.cells[i] = std::max(dst.cells[i], cls.cells[i]);
      } else {
        dst.cells[i] += cls.cells[i];
      }
    }
    for (size_t p = 0; p < kMaxKeyVars; p++) {
      dst.var_partial[p] += cls.var_partial[p];
      for (size_t w = 0; w < kSketchWords; w++) {
        dst.sketch[p][w] |= cls.sketch[p][w];
      }
    }
  }
  inout->classes.clear();
  inout->classes.reserve(merged.size());
  for (auto& [name, cls] : merged) {
    inout->classes.push_back(std::move(cls));
  }
}

std::string ToJson(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  AppendF(&out,
          "{\n  \"pool_capacity\": %" PRIu64 ",\n  \"pool_high_water\": %" PRIu64
          ",\n  \"classes\": [",
          snapshot.pool_capacity, snapshot.pool_high_water);
  for (size_t c = 0; c < snapshot.classes.size(); c++) {
    const ClassProfile& cls = snapshot.classes[c];
    AppendF(&out, "%s\n    {\"name\": ", c == 0 ? "" : ",");
    AppendJsonString(&out, cls.name);
    out.append(", \"cells\": {");
    for (size_t i = 0; i < kCellCount; i++) {
      AppendF(&out, "%s\"%s\": %" PRIu64, i == 0 ? "" : ", ", kCellNames[i],
              cls.cells[i]);
    }
    AppendF(&out, "},\n     \"mean_fanout\": %.2f, \"keys\": [", cls.MeanFanout());
    size_t tracked = 0;
    for (size_t p = 0; p < cls.key_vars.size() && p < kMaxKeyVars; p++, tracked++) {
      AppendF(&out,
              "%s\n       {\"var\": %u, \"partial_bound\": %" PRIu64
              ", \"distinct_estimate\": %.1f}",
              p == 0 ? "" : ",", cls.key_vars[p], cls.var_partial[p],
              cls.EstimatedDistinct(p));
    }
    out.append(tracked == 0 ? "]}" : "\n     ]}");
  }
  out.append(snapshot.classes.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out;
}

std::string ToPrometheus(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  AppendF(&out,
          "# HELP tesla_profile_pool_capacity instance-pool slots per context\n"
          "# TYPE tesla_profile_pool_capacity gauge\n"
          "tesla_profile_pool_capacity %" PRIu64 "\n"
          "# HELP tesla_profile_pool_high_water peak live instances in any context pool\n"
          "# TYPE tesla_profile_pool_high_water gauge\n"
          "tesla_profile_pool_high_water %" PRIu64 "\n",
          snapshot.pool_capacity, snapshot.pool_high_water);
  for (size_t i = 0; i < kCellCount; i++) {
    // Peaks are gauges (they rewind across ResetStats); the rest are
    // monotone counters.
    const bool gauge = kCellMerge[i] == MergeRule::kMax;
    AppendF(&out, "# HELP tesla_profile_%s%s %s\n# TYPE tesla_profile_%s%s %s\n",
            kCellNames[i], gauge ? "" : "_total", kCellHelp[i], kCellNames[i],
            gauge ? "" : "_total", gauge ? "gauge" : "counter");
    for (const ClassProfile& cls : snapshot.classes) {
      AppendF(&out, "tesla_profile_%s%s{automaton=\"", kCellNames[i],
              gauge ? "" : "_total");
      AppendPromLabel(&out, cls.name);
      AppendF(&out, "\"} %" PRIu64 "\n", cls.cells[i]);
    }
  }
  out.append(
      "# HELP tesla_profile_key_distinct_estimate linear-counting distinct-value "
      "estimate per key variable\n"
      "# TYPE tesla_profile_key_distinct_estimate gauge\n");
  for (const ClassProfile& cls : snapshot.classes) {
    size_t tracked = 0;
    for (size_t p = 0; p < cls.key_vars.size() && p < kMaxKeyVars; p++, tracked++) {
      out.append("tesla_profile_key_distinct_estimate{automaton=\"");
      AppendPromLabel(&out, cls.name);
      AppendF(&out, "\",var=\"%u\"} %.1f\n", cls.key_vars[p], cls.EstimatedDistinct(p));
    }
  }
  out.append(
      "# HELP tesla_profile_key_partial_bound_total scan fallbacks where this key "
      "variable was bound\n"
      "# TYPE tesla_profile_key_partial_bound_total counter\n");
  for (const ClassProfile& cls : snapshot.classes) {
    size_t tracked = 0;
    for (size_t p = 0; p < cls.key_vars.size() && p < kMaxKeyVars; p++, tracked++) {
      out.append("tesla_profile_key_partial_bound_total{automaton=\"");
      AppendPromLabel(&out, cls.name);
      AppendF(&out, "\",var=\"%u\"} %" PRIu64 "\n", cls.key_vars[p], cls.var_partial[p]);
    }
  }
  return out;
}

std::string RenderReport(const Snapshot& snapshot) {
  std::string out;
  out.append("workload profile\n");
  AppendF(&out, "  context pool: %" PRIu64 "/%" PRIu64 " slots at peak (%.0f%% headroom)\n",
          snapshot.pool_high_water, snapshot.pool_capacity,
          snapshot.pool_capacity > 0
              ? 100.0 * (1.0 - static_cast<double>(snapshot.pool_high_water) /
                                   static_cast<double>(snapshot.pool_capacity))
              : 0.0);

  // Hot-class ranking: by dispatch volume, descending (name-ordered ties).
  std::vector<const ClassProfile*> ranked;
  ranked.reserve(snapshot.classes.size());
  for (const ClassProfile& cls : snapshot.classes) {
    ranked.push_back(&cls);
  }
  std::sort(ranked.begin(), ranked.end(), [](const ClassProfile* a, const ClassProfile* b) {
    if (a->cell(Cell::dispatches) != b->cell(Cell::dispatches)) {
      return a->cell(Cell::dispatches) > b->cell(Cell::dispatches);
    }
    return a->name < b->name;
  });

  out.append("\nhot classes (by dispatch volume):\n");
  AppendF(&out, "  %-40s %12s %10s %10s %10s %10s\n", "automaton", "dispatches",
          "probes", "scans", "fanout", "peak");
  size_t shown = 0;
  for (const ClassProfile* cls : ranked) {
    if (cls->cell(Cell::dispatches) == 0 || shown++ >= 20) {
      continue;
    }
    AppendF(&out, "  %-40s %12" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10.1f %10" PRIu64 "\n",
            cls->name.c_str(), cls->cell(Cell::dispatches),
            cls->cell(Cell::index_probes),
            cls->cell(Cell::scan_fallbacks), cls->MeanFanout(),
            cls->cell(Cell::fanout_peak));
  }

  out.append("\nscan-fallback offenders:\n");
  bool offender = false;
  for (const ClassProfile* cls : ranked) {
    const uint64_t scans = cls->cell(Cell::scan_fallbacks);
    if (scans == 0) {
      continue;
    }
    offender = true;
    AppendF(&out, "  %s: %" PRIu64 " scans (%" PRIu64 " partial-bound, %" PRIu64
                  " under the population gate)\n",
            cls->name.c_str(), scans, cls->cell(Cell::partial_bound),
            scans - std::min(scans, cls->cell(Cell::partial_bound)));
    const size_t tracked = std::min(cls->key_vars.size(), kMaxKeyVars);
    for (size_t p = 0; p < tracked; p++) {
      if (cls->var_partial[p] == 0) {
        continue;
      }
      AppendF(&out,
              "    key var %u bound in %" PRIu64 " of them (≈%.0f distinct values)"
              " — prefix-index candidate\n",
              cls->key_vars[p], cls->var_partial[p], cls->EstimatedDistinct(p));
    }
  }
  if (!offender) {
    out.append("  none — every indexed dispatch probed\n");
  }

  const ClassProfile* peak_cls = nullptr;
  for (const ClassProfile* cls : ranked) {
    if (peak_cls == nullptr ||
        cls->cell(Cell::fanout_peak) > peak_cls->cell(Cell::fanout_peak)) {
      peak_cls = cls;
    }
  }
  if (peak_cls != nullptr && peak_cls->cell(Cell::fanout_peak) > 0) {
    AppendF(&out, "\ncapacity: peak per-class fan-out %" PRIu64 " (%s)\n",
            peak_cls->cell(Cell::fanout_peak), peak_cls->name.c_str());
  }
  const uint64_t samples =
      std::accumulate(ranked.begin(), ranked.end(), uint64_t{0},
                      [](uint64_t acc, const ClassProfile* cls) {
                        return acc + cls->cell(Cell::latency_samples);
                      });
  if (samples > 0) {
    uint64_t ns = 0;
    for (const ClassProfile* cls : ranked) {
      ns += cls->cell(Cell::latency_ns);
    }
    AppendF(&out, "sampled dispatch latency: %.0f ns/event over %" PRIu64 " samples\n",
            static_cast<double>(ns) / static_cast<double>(samples), samples);
  }
  return out;
}

}  // namespace tesla::profile

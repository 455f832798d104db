// Fleet aggregation (ipc/merge.h): stats summing, the violation census,
// coverage OR / counter sums across shards, grid-mismatch rejection,
// input-order determinism of the rendered reports, and the error-code
// contract the CLI's exit codes build on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ipc/merge.h"
#include "metrics/metrics.h"
#include "metrics/snapshot.h"
#include "trace/format.h"

namespace tesla {
namespace {

using ipc::FleetReport;
using ipc::MergeCaptureFiles;
using ipc::MergeCaptures;
using runtime::ViolationKind;
using trace::TraceFile;

// A capture whose every stats field is `base + field index`, with `records`
// empty records and the given violations — enough structure to check the
// merge arithmetic without running a workload.
TraceFile Shard(uint64_t base, size_t records,
                std::vector<std::pair<ViolationKind, std::string>> violations) {
  TraceFile file;
  file.origin = "test:merge";
  file.summary.dropped = base;
  uint64_t value = base;
  for (const trace::StatsField& field : trace::kStatsFields) {
    file.summary.stats.*field.field = value++;
  }
  file.summary.violations = std::move(violations);
  file.records.resize(records);
  return file;
}

metrics::ClassSnapshot Class(const std::string& name, uint64_t counter0,
                             std::vector<bool> fired) {
  metrics::ClassSnapshot cls;
  cls.name = name;
  cls.counters[0] = counter0;
  for (size_t i = 0; i < fired.size(); i++) {
    metrics::TransitionCoverage transition;
    transition.state = static_cast<uint32_t>(i);
    transition.symbol = static_cast<uint16_t>(i);
    transition.fired = fired[i];
    transition.description = name + ":t" + std::to_string(i);
    cls.transitions.push_back(transition);
  }
  return cls;
}

TEST(Merge, SumsStatsDropsEventsAndViolations) {
  std::vector<TraceFile> captures;
  captures.push_back(Shard(100, 7, {{ViolationKind::kBadSite, "b"},
                                    {ViolationKind::kBadSite, "a"}}));
  captures.push_back(Shard(1000, 13, {{ViolationKind::kBadSite, "a"},
                                      {ViolationKind::kStrictEvent, "a"}}));
  auto merged = MergeCaptures(captures, {"one", "two"});
  ASSERT_TRUE(merged.ok()) << merged.error().ToString();
  const FleetReport& report = merged.value();

  EXPECT_EQ(report.shards, 2u);
  EXPECT_EQ(report.dropped, 1100u);
  EXPECT_EQ(report.events, 20u);
  uint64_t index = 0;
  for (const trace::StatsField& field : trace::kStatsFields) {
    EXPECT_EQ(report.stats.*field.field, 1100 + 2 * index) << field.name;
    index++;
  }

  // Census: (kind, automaton) sorted, occurrences counted across shards.
  ASSERT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations[0].automaton, "a");
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kBadSite);
  EXPECT_EQ(report.violations[0].count, 2u);
  EXPECT_EQ(report.violations[1].automaton, "b");
  EXPECT_EQ(report.violations[1].count, 1u);
  EXPECT_EQ(report.violations[2].kind, ViolationKind::kStrictEvent);
  EXPECT_EQ(report.violations[2].count, 1u);
  EXPECT_FALSE(report.has_metrics);
}

TEST(Merge, CountersSumAndCoverageOrs) {
  std::vector<TraceFile> captures;
  for (int shard = 0; shard < 2; shard++) {
    TraceFile file = Shard(0, 0, {});
    file.summary.has_metrics = true;
    file.summary.metrics.mode = metrics::MetricsMode::kCounters;
    // Shard 0 fires transition 0, shard 1 fires transition 2; transition 1
    // is dead fleet-wide.
    file.summary.metrics.classes.push_back(
        Class("alpha", shard == 0 ? 10 : 32,
              {shard == 0, false, shard == 1}));
    // Only shard 1 knows "beta": per-class merge is by name, not position.
    if (shard == 1) {
      file.summary.metrics.classes.push_back(Class("beta", 5, {true}));
    }
    file.summary.metrics.histograms[0].count = 4;
    file.summary.metrics.histograms[0].sum_ns = 400;
    file.summary.metrics.histograms[0].buckets[3] = 4;
    captures.push_back(std::move(file));
  }

  auto merged = MergeCaptures(captures, {"one", "two"});
  ASSERT_TRUE(merged.ok()) << merged.error().ToString();
  const FleetReport& report = merged.value();
  EXPECT_TRUE(report.has_metrics);
  EXPECT_EQ(report.metric_shards, 2u);

  ASSERT_EQ(report.metrics.classes.size(), 2u);  // sorted by name
  const metrics::ClassSnapshot& alpha = report.metrics.classes[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.counters[0], 42u);
  ASSERT_EQ(alpha.transitions.size(), 3u);
  EXPECT_TRUE(alpha.transitions[0].fired);
  EXPECT_FALSE(alpha.transitions[1].fired);  // dead fleet-wide
  EXPECT_TRUE(alpha.transitions[2].fired);
  EXPECT_EQ(report.metrics.classes[1].name, "beta");
  EXPECT_EQ(report.metrics.classes[1].counters[0], 5u);

  EXPECT_EQ(report.metrics.histograms[0].count, 8u);
  EXPECT_EQ(report.metrics.histograms[0].sum_ns, 800u);
  EXPECT_EQ(report.metrics.histograms[0].buckets[3], 8u);
}

TEST(Merge, MismatchedTransitionGridsRejected) {
  std::vector<TraceFile> captures;
  for (int shard = 0; shard < 2; shard++) {
    TraceFile file = Shard(0, 0, {});
    file.summary.has_metrics = true;
    // Same class name, different transition description: recorded against
    // different assertion sets — coverage bits are incomparable.
    metrics::ClassSnapshot cls = Class("gamma", 1, {true});
    if (shard == 1) {
      cls.transitions[0].description = "a different clause";
    }
    file.summary.metrics.classes.push_back(cls);
    captures.push_back(std::move(file));
  }
  auto merged = MergeCaptures(captures, {"one", "two"});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code, trace::kErrVersionMismatch);
  EXPECT_NE(merged.error().ToString().find("gamma"), std::string::npos);
  EXPECT_NE(merged.error().ToString().find("two"), std::string::npos);
}

TEST(Merge, OutputIsInputOrderIndependent) {
  std::vector<TraceFile> captures;
  captures.push_back(Shard(3, 1, {{ViolationKind::kBadSite, "z"}}));
  captures.push_back(Shard(5, 2, {{ViolationKind::kBadSite, "a"}}));
  TraceFile with_metrics = Shard(7, 3, {});
  with_metrics.summary.has_metrics = true;
  with_metrics.summary.metrics.classes.push_back(Class("only", 9, {true, false}));
  captures.push_back(std::move(with_metrics));

  std::vector<size_t> order = {0, 1, 2};
  std::string first_json, first_prom;
  do {
    std::vector<TraceFile> permuted;
    std::vector<std::string> labels;
    for (size_t index : order) {
      permuted.push_back(captures[index]);
      labels.push_back("shard");  // identical labels: outputs must not differ
    }
    auto merged = MergeCaptures(permuted, labels);
    ASSERT_TRUE(merged.ok());
    const std::string json = FleetToJson(merged.value());
    const std::string prom = FleetToPrometheus(merged.value());
    if (first_json.empty()) {
      first_json = json;
      first_prom = prom;
    } else {
      EXPECT_EQ(json, first_json);
      EXPECT_EQ(prom, first_prom);
    }
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_NE(first_json.find("\"fleet\""), std::string::npos);
}

TEST(Merge, PrometheusOutputCarriesFleetFamilies) {
  std::vector<TraceFile> captures;
  captures.push_back(Shard(2, 4, {{ViolationKind::kBadSite, "noisy"}}));
  auto merged = MergeCaptures(captures, {"one"});
  ASSERT_TRUE(merged.ok());
  const std::string prom = FleetToPrometheus(merged.value());
  EXPECT_NE(prom.find("# TYPE tesla_fleet_shards gauge"), std::string::npos);
  EXPECT_NE(prom.find("tesla_fleet_shards 1"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE tesla_fleet_capture_drops_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("tesla_fleet_violations_total{"), std::string::npos);
  EXPECT_NE(prom.find("automaton=\"noisy\""), std::string::npos);
}

TEST(Merge, EmptyInputRejected) {
  auto merged = MergeCaptures({}, {});
  ASSERT_FALSE(merged.ok());
}

TEST(MergeFiles, MissingFileKeepsUnreadableCode) {
  auto merged = MergeCaptureFiles({"/nonexistent/fleet/shard.cap"});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().code, trace::kErrUnreadable);
}

}  // namespace
}  // namespace tesla

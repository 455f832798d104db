// buildsim: a model of the TESLA build pipeline's cost (paper §5.1, fig. 10).
//
// The paper measures the OpenSSL build under the TESLA toolchain: a clean
// build pays ~2.5x (every translation unit runs through the analyser and the
// instrumenter), but an *incremental* build pays ~500x, because any change to
// the program-wide .tesla manifest forces re-instrumentation of every IR
// file — "a fundamental problem with one-to-many dependencies".
//
// buildsim reproduces that shape with the real pipeline: it generates a
// synthetic multi-unit corpus (each unit in the cfront dialect, with
// cross-unit calls and optional inline TESLA assertions), then drives
// cfront + analyser + instrumenter through the four build configurations
// (clean/incremental x default/TESLA), timed in thread CPU time. The
// smart-incremental mode models the paper's suggested "further build
// optimisation": only units that define or call a function hooked by the
// modified unit's automata are re-instrumented.
#ifndef TESLA_BUILDSIM_BUILDSIM_H_
#define TESLA_BUILDSIM_BUILDSIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.h"

namespace tesla::buildsim {

struct CorpusOptions {
  size_t units = 16;
  size_t functions_per_unit = 8;
  size_t statements_per_function = 6;
  // Every Nth unit carries an inline TESLA assertion (1 = all units, the
  // paper's OpenSSL-like dense case). Values above `units` leave only unit 0
  // asserted — the sparse case where smart re-instrumentation pays off.
  size_t assertion_every = 1;
};

// Per-unit metadata recorded at generation time; MeasureBuild's smart
// incremental mode uses it as its (conservative) dependency oracle.
struct UnitInfo {
  std::string name;
  std::vector<std::string> defines;  // functions defined by the unit
  std::vector<std::string> calls;    // functions the unit calls
  bool has_assertion = false;
};

struct Corpus {
  std::vector<std::string> unit_names;
  std::vector<std::string> unit_sources;   // TESLA-build inputs (with assertions)
  std::vector<std::string> plain_sources;  // default-build inputs (stripped)
  std::vector<UnitInfo> units;
};

Corpus GenerateCorpus(const CorpusOptions& options = {});

struct BuildOptions {
  // Incremental rebuilds to time (the fastest rebuild is reported, so one
  // scheduler blip cannot swamp a microsecond-scale measurement).
  size_t incremental_repeats = 3;
  // Re-instrument only units affected by the modified unit's automata
  // instead of every unit (§5.1's proposed optimisation).
  bool smart_incremental = false;
  // Which unit the incremental rebuild touches. Defaults to unit 1: an
  // ordinary source edit (fig. 10's incremental case is touching one .c
  // file, not the assertion itself) — unit 0 carries the sparse corpus's
  // only assertion, and recompiling the assertion would dominate the
  // rebuild and mask the re-instrumentation cost being measured.
  size_t modified_unit = 1;
};

struct BuildTimes {
  size_t units = 0;

  // The paper's four bars (seconds of the measuring thread's CPU time).
  double clean_default_s = 0.0;
  double clean_tesla_s = 0.0;
  double incremental_default_s = 0.0;
  double incremental_tesla_s = 0.0;

  // Hooks woven across all units by the clean TESLA build.
  uint64_t instrumented_hooks = 0;
  // Units re-instrumented per incremental TESLA rebuild (naive: all).
  size_t incremental_units_reinstrumented = 0;

  double CleanSlowdown() const {
    return clean_default_s > 0.0 ? clean_tesla_s / clean_default_s : 0.0;
  }
  double IncrementalSlowdown() const {
    return incremental_default_s > 0.0 ? incremental_tesla_s / incremental_default_s : 0.0;
  }
};

// Runs the four build configurations over `corpus` and reports timings.
// Fails if any unit fails to compile or instrument.
Result<BuildTimes> MeasureBuild(const Corpus& corpus, const BuildOptions& options = {});

}  // namespace tesla::buildsim

#endif  // TESLA_BUILDSIM_BUILDSIM_H_

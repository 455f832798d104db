#include "buildsim/buildsim.h"

#include <time.h>

#include <set>
#include <utility>

#include "automata/manifest.h"
#include "cfront/cfront.h"
#include "instr/instrument.h"
#include "support/intern.h"

namespace tesla::buildsim {

namespace {

// Sections are timed in the calling thread's CPU time. The simulated build
// is single-threaded, so on an idle host this is its wall time; on a loaded
// one (a parallel ctest run) preemption cannot inflate one side of a
// default-vs-TESLA ratio.
double ThreadSeconds() {
  timespec now;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

std::string FunctionName(size_t unit, size_t index) {
  return "u" + std::to_string(unit) + "_f" + std::to_string(index);
}

// One compiled "object file": the per-unit IR plus the unit's .tesla output.
struct CompiledUnit {
  ir::Module module;
  automata::Manifest manifest;
  std::vector<cfront::SiteInfo> sites;
};

Result<CompiledUnit> CompileUnit(const std::string& source, const std::string& name) {
  cfront::Compiler compiler;
  auto status = compiler.AddUnit(source, name);
  if (!status.ok()) {
    return status.error();
  }
  CompiledUnit unit;
  unit.module = std::move(compiler.module());
  unit.manifest = compiler.manifest();
  unit.sites = compiler.sites();
  return unit;
}

// Units whose instrumentation can change when `modified`'s automata change:
// the modified unit itself plus every unit defining or calling a function
// the modified unit's manifest hooks (callee- or caller-side).
std::vector<size_t> AffectedUnits(const Corpus& corpus, size_t modified,
                                  const automata::Manifest& modified_manifest) {
  std::vector<size_t> affected;
  if (corpus.units.size() != corpus.unit_sources.size()) {
    // No dependency metadata: be conservative, re-instrument everything.
    for (size_t u = 0; u < corpus.unit_sources.size(); u++) {
      affected.push_back(u);
    }
    return affected;
  }
  std::set<std::string> hooked;
  automata::InstrumentationRequirements reqs = modified_manifest.ComputeRequirements();
  for (Symbol symbol : reqs.call_hooks) {
    hooked.insert(SymbolName(symbol));
  }
  for (Symbol symbol : reqs.return_hooks) {
    hooked.insert(SymbolName(symbol));
  }
  for (Symbol symbol : reqs.caller_side) {
    hooked.insert(SymbolName(symbol));
  }
  for (Symbol symbol : reqs.stack_queries) {
    hooked.insert(SymbolName(symbol));
  }
  for (size_t u = 0; u < corpus.units.size(); u++) {
    if (u == modified) {
      affected.push_back(u);
      continue;
    }
    const UnitInfo& info = corpus.units[u];
    bool touches = false;
    for (const std::string& name : info.defines) {
      if (hooked.count(name) != 0) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      for (const std::string& name : info.calls) {
        if (hooked.count(name) != 0) {
          touches = true;
          break;
        }
      }
    }
    if (touches) {
      affected.push_back(u);
    }
  }
  return affected;
}

}  // namespace

Corpus GenerateCorpus(const CorpusOptions& options) {
  Corpus corpus;
  const size_t units = options.units > 0 ? options.units : 1;
  const size_t functions = options.functions_per_unit > 0 ? options.functions_per_unit : 1;
  const size_t statements = options.statements_per_function;
  const size_t assertion_every = options.assertion_every > 0 ? options.assertion_every : 1;

  for (size_t u = 0; u < units; u++) {
    UnitInfo info;
    info.name = "unit_" + std::to_string(u) + ".c";
    info.has_assertion = u % assertion_every == 0;
    const size_t assertion_fn = functions > 1 ? 1 : 0;

    std::string tesla_source;
    std::string plain_source;
    for (size_t f = 0; f < functions; f++) {
      const std::string name = FunctionName(u, f);
      info.defines.push_back(name);

      std::string body;
      body += "int " + name + "(int x) {\n";
      body += "  int acc = x;\n";
      for (size_t s = 0; s < statements; s++) {
        body += "  acc = acc * 3 + " + std::to_string(s + 1) + ";\n";
      }
      // Call edges: an intra-unit chain plus one cross-unit edge per unit, so
      // instrumenting one unit's automata touches its neighbours (caller-side
      // hooks) — the one-to-many dependency fig. 10 is about.
      if (f > 0) {
        const std::string callee = FunctionName(u, f - 1);
        info.calls.push_back(callee);
        body += "  int c = " + callee + "(acc);\n  acc = acc + c;\n";
      } else if (u > 0) {
        const std::string callee = FunctionName(u - 1, functions - 1);
        info.calls.push_back(callee);
        body += "  int c = " + callee + "(acc);\n  acc = acc + c;\n";
      }

      std::string assertion;
      if (info.has_assertion && f == assertion_fn) {
        const std::string checked = FunctionName(u, 0);
        info.calls.push_back(checked);
        body += "  int chk = " + checked + "(x);\n  chk = chk;\n";
        assertion = "  TESLA_WITHIN(" + name + ", previously(" + checked + "(x) == 0));\n";
      }
      body += "%ASSERTION%  return acc;\n}\n";

      std::string tesla_body = body;
      tesla_body.replace(tesla_body.find("%ASSERTION%"), 11, assertion);
      std::string plain_body = body;
      plain_body.replace(plain_body.find("%ASSERTION%"), 11, "");
      tesla_source += tesla_body;
      plain_source += plain_body;
    }

    corpus.unit_names.push_back(info.name);
    corpus.unit_sources.push_back(std::move(tesla_source));
    corpus.plain_sources.push_back(std::move(plain_source));
    corpus.units.push_back(std::move(info));
  }
  return corpus;
}

Result<BuildTimes> MeasureBuild(const Corpus& corpus, const BuildOptions& options) {
  BuildTimes times;
  times.units = corpus.unit_sources.size();
  if (times.units == 0) {
    return Error{"empty corpus"};
  }
  if (corpus.plain_sources.size() != times.units) {
    return Error{"corpus is missing its default-build (plain) sources"};
  }
  const size_t modified =
      options.modified_unit < times.units ? options.modified_unit : times.units - 1;
  const size_t repeats = options.incremental_repeats > 0 ? options.incremental_repeats : 1;

  // All sections are measured warmed-up and as a minimum over a couple of
  // passes: the first compile in a process pays one-time costs (allocator,
  // lazy binding) and the sections are small enough that a single scheduler
  // blip would otherwise dominate a one-shot reading. The default and TESLA
  // sides of each ratio alternate pass by pass, so a load spike (e.g. a
  // parallel ctest run) lands on both sides instead of skewing one.
  constexpr size_t kCleanPasses = 2;

  // --- clean default build: compile every unit, no TESLA machinery ---
  auto clean_default = [&]() -> Status {
    for (size_t u = 0; u < times.units; u++) {
      auto unit = CompileUnit(corpus.plain_sources[u], corpus.unit_names[u]);
      if (!unit.ok()) {
        return unit.error();
      }
    }
    return Status::Ok();
  };
  // --- clean TESLA build: compile + analyse every unit, merge the
  // program-wide manifest, instrument every unit against it ---
  std::vector<CompiledUnit> objects;
  auto clean_tesla = [&]() -> Status {
    std::vector<CompiledUnit> pass_objects;
    pass_objects.reserve(times.units);
    for (size_t u = 0; u < times.units; u++) {
      auto unit = CompileUnit(corpus.unit_sources[u], corpus.unit_names[u]);
      if (!unit.ok()) {
        return unit.error();
      }
      pass_objects.push_back(std::move(unit.value()));
    }
    automata::Manifest merged;
    for (const CompiledUnit& object : pass_objects) {
      merged.Merge(object.manifest);
    }
    uint64_t hooks = 0;
    for (const CompiledUnit& object : pass_objects) {
      auto instrumented = instr::Instrument(object.module, merged,
                                            std::vector<cfront::SiteInfo>(object.sites));
      if (!instrumented.ok()) {
        return instrumented.error();
      }
      hooks += instrumented->hooks_inserted;
    }
    times.instrumented_hooks = hooks;
    objects = std::move(pass_objects);
    return Status::Ok();
  };
  // --- incremental default build: recompile only the touched unit ---
  auto incremental_default = [&]() -> Status {
    auto unit = CompileUnit(corpus.plain_sources[modified], corpus.unit_names[modified]);
    return unit.ok() ? Status::Ok() : Status(unit.error());
  };
  // --- incremental TESLA build: recompile the touched unit, re-merge the
  // program-wide manifest, then re-instrument — naively every unit (any
  // .tesla change invalidates all instrumented IR), or, in smart mode, only
  // units the modified unit's automata can reach ---
  auto incremental_tesla = [&]() -> Status {
    auto rebuilt = CompileUnit(corpus.unit_sources[modified], corpus.unit_names[modified]);
    if (!rebuilt.ok()) {
      return rebuilt.error();
    }
    automata::Manifest remerged;
    for (size_t u = 0; u < times.units; u++) {
      remerged.Merge(u == modified ? rebuilt->manifest : objects[u].manifest);
    }
    std::vector<size_t> to_instrument;
    if (options.smart_incremental) {
      to_instrument = AffectedUnits(corpus, modified, rebuilt->manifest);
    } else {
      for (size_t u = 0; u < times.units; u++) {
        to_instrument.push_back(u);
      }
    }
    times.incremental_units_reinstrumented = to_instrument.size();
    for (size_t u : to_instrument) {
      const CompiledUnit& object = u == modified ? rebuilt.value() : objects[u];
      auto instrumented = instr::Instrument(object.module, remerged,
                                            std::vector<cfront::SiteInfo>(object.sites));
      if (!instrumented.ok()) {
        return instrumented.error();
      }
    }
    return Status::Ok();
  };
  // Runs one section and keeps the fastest time in `best`.
  auto timed = [](auto& section, double& best, size_t pass) -> Status {
    const double start = ThreadSeconds();
    Status status = section();
    const double elapsed = ThreadSeconds() - start;
    if (pass == 0 || elapsed < best) {
      best = elapsed;
    }
    return status;
  };

  Status status = clean_default();  // untimed warm-up
  for (size_t pass = 0; pass < kCleanPasses && status.ok(); pass++) {
    status = timed(clean_default, times.clean_default_s, pass);
    if (status.ok()) {
      status = timed(clean_tesla, times.clean_tesla_s, pass);
    }
  }
  // Incremental rebuilds are microseconds of work, so a single scheduler
  // blip can swamp them; warm up untimed, then report the fastest rebuild.
  if (status.ok()) {
    status = incremental_default();
  }
  for (size_t r = 0; r < repeats && status.ok(); r++) {
    status = timed(incremental_default, times.incremental_default_s, r);
    if (status.ok()) {
      status = timed(incremental_tesla, times.incremental_tesla_s, r);
    }
  }
  if (!status.ok()) {
    return status.error();
  }
  return times;
}

}  // namespace tesla::buildsim

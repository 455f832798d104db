// teslac: the TESLA toolchain driver.
//
// Wraps the three pipeline components (paper §4: analyser, instrumenter,
// libtesla) behind one command-line tool:
//
//   teslac analyse  a.c b.c -o program.tesla     parse + lower assertions,
//                                                write the combined manifest
//   teslac dump     program.tesla                pretty-print a manifest
//   teslac dot      program.tesla -n NAME        emit Graphviz for one automaton
//   teslac run      a.c b.c --entry main [args]  compile, instrument, execute
//                                                with libtesla live
//
// `run` exits non-zero if the program traps or any assertion is violated
// (violations are reported, not fail-stopped, so all of them are visible).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "automata/determinize.h"
#include "automata/dot.h"
#include "automata/manifest.h"
#include "cfront/cfront.h"
#include "instr/bridge.h"
#include "instr/instrument.h"
#include "ir/interp.h"
#include "runtime/runtime.h"
#include "support/log.h"

namespace {

using namespace tesla;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  teslac analyse <src.c>... [-o out.tesla]\n"
               "  teslac dump <manifest.tesla>\n"
               "  teslac dot <manifest.tesla> -n <automaton>\n"
               "  teslac run <src.c>... --entry <fn> [--arg N]... [--show-ir]\n"
               "             [--emit-manifest out.tesla]   write the registered\n"
               "             assertion set as a standalone manifest blob (usable\n"
               "             as a file:<path> capture origin on any machine)\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error{"cannot open '" + path + "'"};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compiles every listed source file into one Compiler.
Result<cfront::Compiler> CompileSources(const std::vector<std::string>& sources) {
  cfront::Compiler compiler;
  for (const std::string& path : sources) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      return text.error();
    }
    if (auto status = compiler.AddUnit(*text, path); !status.ok()) {
      return status.error();
    }
  }
  return compiler;
}

int CmdAnalyse(const std::vector<std::string>& sources, const std::string& output) {
  auto compiler = CompileSources(sources);
  if (!compiler.ok()) {
    std::fprintf(stderr, "teslac: %s\n", compiler.error().ToString().c_str());
    return 1;
  }
  std::string manifest = compiler->manifest().Serialize();
  if (output.empty() || output == "-") {
    std::fputs(manifest.c_str(), stdout);
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "teslac: cannot write '%s'\n", output.c_str());
      return 1;
    }
    out << manifest;
    std::printf("teslac: wrote %zu automata to %s\n", compiler->manifest().automata.size(),
                output.c_str());
  }
  return 0;
}

int CmdDump(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "teslac: %s\n", text.error().ToString().c_str());
    return 1;
  }
  auto manifest = automata::Manifest::Deserialize(*text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "teslac: %s: %s\n", path.c_str(),
                 manifest.error().ToString().c_str());
    return 1;
  }
  for (const automata::Automaton& automaton : manifest->automata) {
    std::printf("%s\n  source: %s\n%s\n", automaton.name.c_str(),
                automaton.source_text.c_str(), automaton.ToString().c_str());
  }
  return 0;
}

int CmdDot(const std::string& path, const std::string& name) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "teslac: %s\n", text.error().ToString().c_str());
    return 1;
  }
  auto manifest = automata::Manifest::Deserialize(*text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "teslac: %s\n", manifest.error().ToString().c_str());
    return 1;
  }
  int index = name.empty() && !manifest->automata.empty() ? 0 : manifest->Find(name);
  if (index < 0) {
    std::fprintf(stderr, "teslac: no automaton named '%s'\n", name.c_str());
    return 1;
  }
  automata::Automaton& automaton = manifest->automata[static_cast<size_t>(index)];
  automaton.Finalize();
  automata::Dfa dfa = automata::Determinize(automaton);
  std::fputs(automata::ToDot(automaton, dfa).c_str(), stdout);
  return 0;
}

class ReportingHandler : public runtime::EventHandler {
 public:
  void OnViolation(const runtime::ClassInfo& cls, const runtime::Violation& violation) override {
    std::fprintf(stderr, "teslac: VIOLATION [%s]: %s — %s\n", violation.automaton.c_str(),
                 runtime::ViolationKindName(violation.kind), violation.detail.c_str());
  }
};

int CmdRun(const std::vector<std::string>& sources, const std::string& entry,
           const std::vector<int64_t>& args, bool show_ir,
           const std::string& emit_manifest) {
  SetLogLevel(LogLevel::kSilent);  // the handler reports; no duplicate log lines
  auto compiler = CompileSources(sources);
  if (!compiler.ok()) {
    std::fprintf(stderr, "teslac: %s\n", compiler.error().ToString().c_str());
    return 1;
  }
  auto instrumented =
      instr::Instrument(std::move(compiler->module()), compiler->manifest(),
                        std::vector<cfront::SiteInfo>(compiler->sites()));
  if (!instrumented.ok()) {
    std::fprintf(stderr, "teslac: %s\n", instrumented.error().ToString().c_str());
    return 1;
  }
  if (show_ir) {
    std::fputs(ir::ToString(instrumented->module).c_str(), stdout);
  }

  runtime::RuntimeOptions options;
  options.fail_stop = false;
  runtime::Runtime rt(options);
  if (auto status = rt.Register(compiler->manifest()); !status.ok()) {
    std::fprintf(stderr, "teslac: %s\n", status.error().ToString().c_str());
    return 1;
  }
  if (!emit_manifest.empty()) {
    // The *registered* manifest, re-serialised: what a capture embeds,
    // with automaton ids fixed by registration order — the exact blob a
    // file:<path> origin re-registers elsewhere.
    std::ofstream out(emit_manifest);
    if (!out) {
      std::fprintf(stderr, "teslac: cannot write '%s'\n", emit_manifest.c_str());
      return 1;
    }
    out << rt.ManifestText();
    std::fprintf(stderr, "teslac: wrote manifest to %s\n", emit_manifest.c_str());
  }
  ReportingHandler handler;
  rt.AddHandler(&handler);

  runtime::ThreadContext ctx(rt);
  ir::Interpreter interpreter(instrumented->module);
  instr::RuntimeBridge bridge(*instrumented, rt, ctx);
  interpreter.SetDispatcher(&bridge);

  auto result = interpreter.Call(entry, args);
  if (!result.ok()) {
    std::fprintf(stderr, "teslac: runtime error: %s\n", result.error().ToString().c_str());
    return 1;
  }
  std::printf("%s returned %lld\n", entry.c_str(), static_cast<long long>(*result));
  std::printf("teslac: %llu events, %llu transitions, %llu accepts, %llu violations\n",
              static_cast<unsigned long long>(rt.stats().events),
              static_cast<unsigned long long>(rt.stats().transitions),
              static_cast<unsigned long long>(rt.stats().accepts),
              static_cast<unsigned long long>(rt.stats().violations));
  return rt.stats().violations == 0 ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];

  std::vector<std::string> positional;
  std::string output;
  std::string entry = "main";
  std::string name;
  std::string emit_manifest;
  std::vector<int64_t> run_args;
  bool show_ir = false;

  for (int i = 2; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--entry" && i + 1 < argc) {
      entry = argv[++i];
    } else if (arg == "-n" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--arg" && i + 1 < argc) {
      run_args.push_back(std::strtoll(argv[++i], nullptr, 0));
    } else if (arg == "--emit-manifest" && i + 1 < argc) {
      emit_manifest = argv[++i];
    } else if (arg == "--show-ir") {
      show_ir = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "teslac: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (command == "analyse" || command == "analyze") {
    return positional.empty() ? Usage() : CmdAnalyse(positional, output);
  }
  if (command == "dump") {
    return positional.size() == 1 ? CmdDump(positional[0]) : Usage();
  }
  if (command == "dot") {
    return positional.size() == 1 ? CmdDot(positional[0], name) : Usage();
  }
  if (command == "run") {
    return positional.empty() ? Usage()
                              : CmdRun(positional, entry, run_args, show_ir, emit_manifest);
  }
  return Usage();
}

// loomcheck: offline trace checker — the library as a command-line tool.
//
// See kUsage below for the interface.  Properties are compiled once each
// (mon::CompiledProperty); --backend picks the monitor construction, with
// `auto` delegating to the psl::cost_model choice per property.
//
// Exit status: 0 when every property passes, 1 on any violation, 2 on
// usage/parse errors.  With no arguments, runs a built-in demo.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "abv/campaign.hpp"
#include "abv/checker.hpp"
#include "abv/trace.hpp"
#include "mon/compiled.hpp"
#include "support/args.hpp"
#include "spec/export.hpp"
#include "spec/parser.hpp"
#include "spec/wellformed.hpp"

namespace {

using namespace loom;

// The one usage text: --help, the unknown-option path and the no-argument
// demo all print this same string, so they cannot drift apart.
constexpr const char* kUsage =
    "usage: loomcheck PROPERTIES.lo TRACE.txt [options]\n"
    "\n"
    "  PROPERTIES.lo  one property per line ('#' comments allowed), e.g.\n"
    "      (({set_imgAddr, set_glAddr, set_glSize}, &) << start, false)\n"
    "      (start => read_img[1,60000] < set_irq, 2ms)\n"
    "  TRACE.txt      one \"name@picoseconds\" entry per line (the format\n"
    "                 written by abv::to_text and the platform recorder)\n"
    "\n"
    "options:\n"
    "  --backend=auto|drct|viapsl|vm  monitor construction (default auto:\n"
    "                              per-property psl::cost_model choice;\n"
    "                              vm runs the compiled bytecode backend)\n"
    "  --psl                       shorthand for --backend=viapsl\n"
    "  --incremental=on|off        exercise the checkpoint snapshot/restore\n"
    "                              machinery while replaying (default off;\n"
    "                              a self-check — result-identical by the\n"
    "                              mon::Snapshot contract)\n"
    "  --checkpoint-stride=N       events between snapshot round-trips\n"
    "                              (default 64, N >= 1)\n"
    "  --dot OUT.dot               write the first property's syntax tree\n"
    "  --worker [--worker-timeout-ms=N]  hidden: speak the campaign worker\n"
    "                              wire protocol on stdin/stdout; N bounds\n"
    "                              the wait for the request frame (0 = off)\n"
    "  --help                      print this text and exit\n"
    "\n"
    "exit status: 0 all properties pass, 1 violation found, 2 usage/parse\n"
    "error; with no arguments a built-in demo runs instead.\n";

std::optional<std::string> slurp(const char* path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run_demo() {
  std::printf("%s\nrunning the built-in demo instead:\n\n", kUsage);
  spec::Alphabet ab;
  support::DiagnosticSink sink;
  auto p = spec::parse_property("(({cfg_a, cfg_b}, &) << go, true)", ab, sink);
  auto monitor = mon::CompiledProperty::compile(*p, ab).instantiate();
  const char* events[] = {"cfg_b", "cfg_a", "go", "cfg_a", "go"};
  sim::Time now;
  for (const char* name : events) {
    now += sim::Time::ns(5);
    std::printf("  observe %-8s", name);
    monitor->observe(ab.name(name), now);
    std::printf("-> %s\n", mon::to_string(monitor->verdict()));
  }
  if (monitor->violation()) {
    std::printf("  %s\n", monitor->violation()->to_string(ab).c_str());
  }
  return 0;
}

int usage_error(const char* fmt, const char* what) {
  std::fprintf(stderr, fmt, what);
  std::fprintf(stderr, "\n%s", kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Hidden worker mode: when a cross-process campaign execs this binary
  // (CampaignOptions::worker_command = {"loomcheck", "--worker"}), it
  // speaks the versioned wire protocol on stdin/stdout and exits with the
  // pinned worker codes.  Checked before anything else — a worker must
  // never print usage text into its frame stream.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    // Optional request deadline: an exec'd worker whose parent dies before
    // writing the request frame exits (code 3) instead of blocking on
    // stdin forever.  Bad values exit 2 like every other flag, but onto
    // stderr only — the frame stream on stdout stays clean.
    std::size_t request_timeout_ms = 0;
    for (int k = 2; k < argc; ++k) {
      if (std::strncmp(argv[k], "--worker-timeout-ms=", 20) == 0) {
        const auto parsed = support::parse_nonneg(argv[k] + 20);
        if (!parsed) {
          std::fprintf(stderr,
                       "bad --worker-timeout-ms value (want a count, 0 = "
                       "off): %s\n",
                       argv[k] + 20);
          return 2;
        }
        request_timeout_ms = *parsed;
      } else {
        std::fprintf(stderr, "unknown --worker option: %s\n", argv[k]);
        return 2;
      }
    }
    return abv::run_campaign_worker(0, 1, request_timeout_ms);
  }
  for (int k = 1; k < argc; ++k) {
    if (std::strcmp(argv[k], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    }
  }
  if (argc < 3) return run_demo();

  mon::Backend backend = mon::Backend::Auto;
  const char* dot_path = nullptr;
  // Off by default: the round-trip is a self-check of the checkpoint
  // machinery, not something a plain trace check should pay for.
  bool incremental = false;
  std::size_t checkpoint_stride = 64;
  for (int k = 3; k < argc; ++k) {
    if (std::strcmp(argv[k], "--psl") == 0) {
      backend = mon::Backend::ViaPSL;
    } else if (std::strncmp(argv[k], "--backend=", 10) == 0) {
      const auto parsed = mon::parse_backend(argv[k] + 10);
      if (!parsed) return usage_error("bad backend: %s\n", argv[k] + 10);
      backend = *parsed;
    } else if (std::strncmp(argv[k], "--incremental=", 14) == 0) {
      const auto parsed = support::parse_on_off(argv[k] + 14);
      if (!parsed) {
        return usage_error("bad --incremental value (want on|off): %s\n",
                           argv[k] + 14);
      }
      incremental = *parsed;
    } else if (std::strncmp(argv[k], "--checkpoint-stride=", 20) == 0) {
      const auto parsed = support::parse_positive(argv[k] + 20);
      if (!parsed) {
        return usage_error(
            "bad --checkpoint-stride value (want a positive count): %s\n",
            argv[k] + 20);
      }
      checkpoint_stride = *parsed;
    } else if (std::strcmp(argv[k], "--dot") == 0 && k + 1 < argc) {
      dot_path = argv[++k];
    } else {
      return usage_error("unknown option: %s\n", argv[k]);
    }
  }

  const auto prop_text = slurp(argv[1]);
  const auto trace_text = slurp(argv[2]);
  if (!prop_text || !trace_text) {
    return usage_error("cannot read %s\n", !prop_text ? argv[1] : argv[2]);
  }

  spec::Alphabet ab;
  std::vector<spec::Property> properties;
  std::vector<std::string> lines_kept;

  std::istringstream lines(*prop_text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    support::DiagnosticSink sink;
    auto p = spec::parse_property(line, ab, sink);
    if (!p || !spec::check_wellformed(*p, ab, sink)) {
      std::fprintf(stderr, "%s:%zu: bad property:\n%s\n", argv[1], line_no,
                   sink.to_string().c_str());
      return 2;
    }
    properties.push_back(*p);
    lines_kept.push_back(line);
  }
  if (properties.empty()) {
    return usage_error("%s: no properties\n", argv[1]);
  }

  // Translate each property exactly once, then stamp its monitor; with
  // `auto` the cost model may pick a different side per property.  A
  // forced --backend=viapsl can be untranslatable (shape or clause
  // budget): that is a usage error, not a crash.
  abv::Checker checker;
  mon::CompileOptions copt;
  copt.backend = backend;
  bool any_viapsl = false;
  for (std::size_t i = 0; i < properties.size(); ++i) {
    try {
      auto compiled = mon::CompiledProperty::compile(properties[i], ab, copt);
      any_viapsl = any_viapsl || compiled.chosen() == mon::Backend::ViaPSL;
      checker.add(lines_kept[i] + "  [" + mon::to_string(compiled.chosen()) +
                      "]",
                  compiled.instantiate());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cannot compile for backend %s: %s\n",
                   lines_kept[i].c_str(), mon::to_string(backend), e.what());
      return 2;
    }
  }

  support::DiagnosticSink trace_sink;
  auto trace = abv::from_text(*trace_text, ab, trace_sink);
  if (!trace) {
    std::fprintf(stderr, "%s: bad trace:\n%s\n", argv[2],
                 trace_sink.to_string().c_str());
    return 2;
  }

  if (dot_path != nullptr) {
    std::ofstream dot(dot_path);
    dot << spec::to_dot(properties.front(), ab);
    std::printf("wrote %s (syntax tree of the first property)\n", dot_path);
  }

  // With --incremental=on the replay snapshot/restores every monitor each
  // `checkpoint_stride` events — the checkpoint machinery the campaign
  // engine's suffix-only replay builds on, exercised live on this trace;
  // the verdicts are identical either way by the snapshot contract.
  checker.run(*trace,
              trace->empty() ? sim::Time::zero() : trace->back().time,
              incremental ? checkpoint_stride : 0);
  std::printf("%zu events checked against %zu properties (backend %s%s)\n\n",
              trace->size(), checker.size(), mon::to_string(backend),
              backend == mon::Backend::Auto
                  ? (any_viapsl ? ", resolved per property" : ", all drct")
                  : "");
  std::printf("%s", checker.summary(ab).c_str());
  return checker.all_passing() ? 0 : 1;
}

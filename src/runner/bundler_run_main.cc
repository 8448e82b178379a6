// bundler_run: list and execute registered experiment scenarios.
//
//   bundler_run --list
//   bundler_run --scenario fig09_fct [--trials N] [--threads N]
//               [--seed-base N] [--out DIR] [--quiet]
//
// Expands the scenario's variants x sweep grid x seeds, runs the trials on a
// worker pool, prints a per-cell summary table, and writes DIR/<name>.json
// and DIR/<name>.csv. For a fixed seed base the emitted files are
// byte-identical regardless of --threads.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "src/obs/trace.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/result_sink.h"
#include "src/runner/trial_runner.h"
#include "src/util/table.h"

namespace bundler {
namespace runner {
namespace {

void PrintUsage(std::FILE* out) {
  // Built from the tracer's own names, so the help cannot drift from them.
  std::string cats;
  for (size_t c = 0; c < static_cast<size_t>(obs::TraceCat::kNumCats); ++c) {
    cats += std::string(c == 0 ? "" : ",") +
            obs::TraceCatName(static_cast<obs::TraceCat>(c));
  }
  std::fprintf(out,
               "usage: bundler_run --list\n"
               "       bundler_run --list-names\n"
               "       bundler_run --dump-topology NAME\n"
               "       bundler_run --scenario NAME [--trials N] [--threads N]\n"
               "                   [--seed-base N] [--out DIR] [--quiet]\n"
               "                   [--trace CATS] [--trace-out FILE] [--trace-ring N]\n"
               "\n"
               "--dump-topology builds NAME's topology graph (validating it) and\n"
               "prints Graphviz DOT on stdout.\n"
               "\n"
               "--trace arms the per-trial flight recorder, before the trial builds\n"
               "its topology, for a comma-separated list of categories, or 'all':\n"
               "  %s\n"
               "Every trial's trace is captured and written as JSONL, in plan order,\n"
               "to --trace-out (default DIR/NAME.trace.jsonl); --trace-ring sets the\n"
               "per-trial ring capacity in records (default %zu, 40 bytes each,\n"
               "oldest evicted first). Both need --trace. See README\n"
               "\"Observability\" for the record schema.\n",
               cats.c_str(), RunnerOptions().trace_ring);
}

void PrintList() {
  Table table({"scenario", "variants", "sweep", "trials", "summary"});
  for (const Scenario* s : ScenarioRegistry::Global().List()) {
    std::string variants;
    for (const std::string& v : s->spec.variants) {
      variants += (variants.empty() ? "" : ",") + v;
    }
    std::string sweep;
    for (const SweepAxis& axis : s->spec.axes) {
      sweep += (sweep.empty() ? "" : " x ") + axis.name + "[" +
               std::to_string(axis.values.size()) + "]";
    }
    table.AddRow({s->spec.name, variants, sweep.empty() ? std::string("-") : sweep,
                  std::to_string(s->spec.default_trials), s->spec.summary});
  }
  table.Print();
}

std::string ParamString(const CellSummary& cell) {
  std::string out;
  for (const auto& [axis, value] : cell.params) {
    out += (out.empty() ? "" : " ") + axis + "=" + Table::Num(value, 0);
  }
  return out.empty() ? "-" : out;
}

void PrintSummary(const ScenarioSummary& summary) {
  Table table({"variant", "params", "metric", "n", "mean", "median", "p95", "ci95"});
  for (const CellSummary& cell : summary.cells) {
    for (const auto& [metric, s] : cell.scalars) {
      table.AddRow({cell.variant, ParamString(cell), metric, std::to_string(s.n),
                    Table::Num(s.mean), Table::Num(s.median), "-",
                    "+-" + Table::Num(s.ci95_half)});
    }
    for (const auto& [metric, s] : cell.samples) {
      table.AddRow({cell.variant, ParamString(cell), metric, std::to_string(s.n),
                    Table::Num(s.mean), Table::Num(s.median), Table::Num(s.p95), "-"});
    }
  }
  table.Print();
}

int Main(int argc, char** argv) {
  RegisterBuiltinScenarios();

  bool list = false;
  bool list_names = false;
  bool quiet = false;
  std::string scenario_name;
  std::string dump_topology_name;
  std::string out_dir = "results";
  int trials = 0;
  int threads = 1;
  uint64_t seed_base = 0;
  bool seed_base_set = false;
  std::string trace_spec;
  std::string trace_out;
  size_t trace_ring = RunnerOptions().trace_ring;
  const char* trace_option = nullptr;  // the last trace option given

  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        PrintUsage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    // The whole value must be a decimal integer in [min, max]; anything else
    // (junk, a trailing suffix, a sign, overflow) is a usage error.
    auto next_integer = [&](const char* flag, uint64_t min, uint64_t max) {
      const char* value = next_value(flag);
      const char* end = value + std::strlen(value);
      uint64_t v = 0;
      auto [ptr, ec] = std::from_chars(value, end, v);
      if (ec != std::errc() || ptr != end || v < min || v > max) {
        std::fprintf(stderr, "%s must be a decimal integer from %llu to %llu, got '%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), value);
        std::exit(2);
      }
      return v;
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--list-names") {
      list_names = true;
    } else if (arg == "--dump-topology") {
      dump_topology_name = next_value("--dump-topology");
    } else if (arg == "--scenario") {
      scenario_name = next_value("--scenario");
    } else if (arg == "--trials") {
      trials = static_cast<int>(next_integer("--trials", 1, kIntMax));
    } else if (arg == "--threads") {
      threads = static_cast<int>(next_integer("--threads", 1, kIntMax));
    } else if (arg == "--seed-base") {
      seed_base = next_integer("--seed-base", 0, std::numeric_limits<uint64_t>::max());
      seed_base_set = true;
    } else if (arg == "--out") {
      out_dir = next_value("--out");
    } else if (arg == "--trace") {
      trace_spec = next_value("--trace");
    } else if (arg == "--trace-out") {
      trace_out = next_value("--trace-out");
      trace_option = "--trace-out";
    } else if (arg == "--trace-ring") {
      trace_ring = next_integer("--trace-ring", 1, std::numeric_limits<size_t>::max());
      trace_option = "--trace-ring";
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }

  // A trace option without --trace would be silently ignored.
  if (trace_option != nullptr && trace_spec.empty()) {
    std::fprintf(stderr, "%s needs --trace\n", trace_option);
    return 2;
  }

  if (list) {
    PrintList();
    return 0;
  }
  if (list_names) {
    for (const Scenario* s : ScenarioRegistry::Global().List()) {
      std::printf("%s\n", s->spec.name.c_str());
    }
    return 0;
  }
  if (!dump_topology_name.empty()) {
    const Scenario* s = ScenarioRegistry::Global().Find(dump_topology_name);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s'; --list shows the registry\n",
                   dump_topology_name.c_str());
      return 2;
    }
    if (!s->topology) {
      std::fprintf(stderr, "scenario '%s' registered no topology provider\n",
                   dump_topology_name.c_str());
      return 1;
    }
    // Building the graph inside the provider doubles as a construction smoke
    // test: a malformed topology CHECK-fails here with a readable message.
    std::printf("%s", s->topology().c_str());
    return 0;
  }
  if (scenario_name.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  const Scenario* scenario = ScenarioRegistry::Global().Find(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; --list shows the registry\n",
                 scenario_name.c_str());
    return 2;
  }

  ScenarioSpec spec = scenario->spec;
  if (seed_base_set) {
    spec.seed_base = seed_base;
  }

  RunnerOptions options;
  options.threads = threads;
  options.trials = trials;
  options.progress = !quiet;
  const bool tracing = !trace_spec.empty();
  if (tracing && (!obs::ParseTraceCats(trace_spec, &options.trace_mask) ||
                  options.trace_mask == 0)) {
    std::fprintf(stderr, "--trace: no or unknown category in '%s' (see --help for the list)\n",
                 trace_spec.c_str());
    return 2;
  }
  options.trace_ring = trace_ring;
  TrialRunner runner(options);

  // The trace file opens before any trial runs, so an unwritable path fails
  // first. Each trial's block is appended, in plan order, and freed as soon
  // as the trials before it are done.
  std::string trace_path;
  std::ofstream trace_file;
  TrialRunner::ResultFn write_trace;
  if (tracing) {
    trace_path =
        trace_out.empty() ? out_dir + "/" + spec.name + ".trace.jsonl" : trace_out;
    if (!OpenForWriting(trace_path, &trace_file)) {
      return 1;
    }
    write_trace = [&trace_file](size_t, TrialResult* r) {
      trace_file << r->trace;
      std::string().swap(r->trace);
    };
  }

  std::vector<TrialPoint> plan = ExpandTrials(spec, trials);
  if (!quiet) {
    std::fprintf(stderr, "%s: %zu trials (%zu variants), %d thread(s)\n",
                 spec.name.c_str(), plan.size(), spec.variants.size(),
                 runner.options().threads);
  }
  Scenario to_run = *scenario;
  to_run.spec = spec;
  // Wall time is reporting-only (stripped from golden comparisons).
  auto wall_start = std::chrono::steady_clock::now();  // lint:allow(wall-clock)
  std::vector<TrialResult> results = runner.Run(to_run, plan, write_trace);
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)  // lint:allow(wall-clock)
                      .count();
  ScenarioSummary summary = Aggregate(spec, plan, results);

  // Wall-clock throughput metadata (satellite of the observability work):
  // total simulator events dispatched across the plan over the pool's wall
  // time. Serialized as a separate single line; see ScenarioSummary.
  double total_events = 0;
  for (const TrialResult& r : results) {
    auto it = r.scalars.find("sim.events_dispatched");
    if (it != r.scalars.end()) {
      total_events += it->second;
    }
  }
  summary.wall_seconds = wall_s;
  summary.events_dispatched = static_cast<uint64_t>(total_events);
  summary.events_per_sec = wall_s > 0 ? total_events / wall_s : 0;

  PrintSummary(summary);

  std::string json_path = out_dir + "/" + spec.name + ".json";
  std::string csv_path = out_dir + "/" + spec.name + ".csv";
  bool ok = WriteFile(json_path, ToJson(summary)) && WriteFile(csv_path, ToCsv(summary));
  if (!ok) {
    return 1;
  }
  std::printf("\nwrote %s and %s\n", json_path.c_str(), csv_path.c_str());

  if (tracing) {
    trace_file.close();
    if (!trace_file) {
      std::fprintf(stderr, "write to %s failed\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace runner
}  // namespace bundler

int main(int argc, char** argv) { return bundler::runner::Main(argc, argv); }

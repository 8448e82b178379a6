// Aggregates per-trial metrics into per-cell statistics and serializes them.
// A "cell" is one (variant, sweep point); its `trials` seeded repetitions are
// consecutive in the expanded plan. Scalar metrics aggregate across the
// cell's seeds (mean, median, min/max, normal-approximation 95% CI); sample
// metrics pool every seed's samples before quantiles are taken. Aggregation
// walks trials in plan order, so the output — including the serialized JSON
// bytes — is identical for a given seed base no matter how many worker
// threads executed the plan.
#ifndef SRC_RUNNER_RESULT_SINK_H_
#define SRC_RUNNER_RESULT_SINK_H_

#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/runner/scenario.h"

namespace bundler {
namespace runner {

// Statistics over one scalar metric's per-seed values within a cell.
struct ScalarStat {
  size_t n = 0;
  double mean = 0;
  double stddev = 0;
  double min = 0;
  double max = 0;
  double median = 0;
  double ci95_half = 0;  // 1.96 * stddev / sqrt(n); 0 when n < 2
};

// Statistics over one sample metric pooled across a cell's seeds.
struct SampleStat {
  size_t n = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double p95 = 0;
  double p99 = 0;
};

struct CellSummary {
  std::string variant;
  std::vector<std::pair<std::string, double>> params;  // axis order
  size_t trials = 0;
  std::map<std::string, ScalarStat> scalars;
  std::map<std::string, SampleStat> samples;
};

struct ScenarioSummary {
  std::string scenario;
  int trials = 0;
  uint64_t seed_base = 1;
  std::vector<CellSummary> cells;  // plan order

  // Optional wall-clock runtime metadata, filled by the CLI after the run.
  // Non-deterministic by nature, so it is serialized as a single separate
  // line (JSON "runtime" member / CSV trailing comment) only when
  // events_per_sec > 0 — tools comparing outputs across thread counts strip
  // that one line and the rest stays a pure function of the results.
  double wall_seconds = 0;
  uint64_t events_dispatched = 0;
  double events_per_sec = 0;
};

// Groups `results` (ordered like `plan`) into cells and reduces them.
// CHECK-fails if plan and results disagree in size.
ScenarioSummary Aggregate(const ScenarioSpec& spec, const std::vector<TrialPoint>& plan,
                          const std::vector<TrialResult>& results);

// Cell lookup by variant and (optionally) sweep params; nullptr if absent.
const CellSummary* FindCell(
    const ScenarioSummary& summary, const std::string& variant,
    const std::vector<std::pair<std::string, double>>& params = {});

// Deterministic serializations: map iteration is ordered and doubles are
// printed with a fixed "%.12g" format, so equal inputs give equal bytes.
std::string ToJson(const ScenarioSummary& summary);
std::string ToCsv(const ScenarioSummary& summary);

// Opens `path` for writing (truncating), creating parent directories.
// Returns false and logs to stderr on failure.
bool OpenForWriting(const std::string& path, std::ofstream* f);

// Writes `content` to `path`, creating parent directories. Returns false and
// logs to stderr on failure.
bool WriteFile(const std::string& path, const std::string& content);

}  // namespace runner
}  // namespace bundler

#endif  // SRC_RUNNER_RESULT_SINK_H_

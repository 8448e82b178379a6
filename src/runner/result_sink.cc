#include "src/runner/result_sink.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

ScalarStat ReduceScalar(const std::vector<double>& values) {
  ScalarStat s;
  RunningStats moments;
  QuantileEstimator q;
  for (double v : values) {
    moments.Add(v);
    q.Add(v);
  }
  s.n = moments.count();
  s.mean = moments.mean();
  s.stddev = moments.Stddev();
  s.min = moments.min();
  s.max = moments.max();
  s.median = q.empty() ? 0.0 : q.Median();
  s.ci95_half = s.n >= 2 ? 1.96 * s.stddev / std::sqrt(static_cast<double>(s.n)) : 0.0;
  return s;
}

SampleStat ReduceSamples(const std::vector<double>& pooled) {
  SampleStat s;
  QuantileEstimator q;
  q.AddAll(pooled);
  s.n = q.count();
  if (q.empty()) {
    return s;
  }
  s.mean = q.Mean();
  s.min = q.Min();
  s.max = q.Max();
  s.p25 = q.Quantile(0.25);
  s.median = q.Median();
  s.p75 = q.Quantile(0.75);
  s.p95 = q.Quantile(0.95);
  s.p99 = q.Quantile(0.99);
  return s;
}

// JSON has no inf/nan literals; represent them as null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string CsvNumber(double v) {
  if (!std::isfinite(v)) {
    return "";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Metric and variant names are plain identifiers; escape defensively anyway.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

}  // namespace

ScenarioSummary Aggregate(const ScenarioSpec& spec, const std::vector<TrialPoint>& plan,
                          const std::vector<TrialResult>& results) {
  BUNDLER_CHECK_MSG(plan.size() == results.size(),
                    "plan has %zu trials but %zu results", plan.size(), results.size());
  ScenarioSummary summary;
  summary.scenario = spec.name;
  summary.seed_base = spec.seed_base;

  // Cells occupy consecutive plan slots (seeds are the innermost expansion
  // dimension), so a linear walk that watches for (variant, params) changes
  // recovers them in plan order.
  struct CellAccum {
    std::map<std::string, std::vector<double>> scalar_values;
    std::map<std::string, std::vector<double>> pooled_samples;
  };
  CellAccum accum;
  CellSummary* cell = nullptr;

  auto flush = [&]() {
    if (cell == nullptr) {
      return;
    }
    for (const auto& [metric, values] : accum.scalar_values) {
      cell->scalars[metric] = ReduceScalar(values);
    }
    for (const auto& [metric, pooled] : accum.pooled_samples) {
      cell->samples[metric] = ReduceSamples(pooled);
    }
    accum = CellAccum();
  };

  for (size_t i = 0; i < plan.size(); ++i) {
    const TrialPoint& point = plan[i];
    if (cell == nullptr || cell->variant != point.variant ||
        cell->params != point.params) {
      flush();
      summary.cells.emplace_back();
      cell = &summary.cells.back();
      cell->variant = point.variant;
      cell->params = point.params;
    }
    ++cell->trials;
    summary.trials = std::max(summary.trials, static_cast<int>(cell->trials));
    for (const auto& [metric, value] : results[i].scalars) {
      accum.scalar_values[metric].push_back(value);
    }
    for (const auto& [metric, samples] : results[i].samples) {
      std::vector<double>& pooled = accum.pooled_samples[metric];
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
  }
  flush();
  return summary;
}

const CellSummary* FindCell(const ScenarioSummary& summary, const std::string& variant,
                            const std::vector<std::pair<std::string, double>>& params) {
  for (const CellSummary& cell : summary.cells) {
    if (cell.variant != variant) {
      continue;
    }
    bool match = true;
    for (const auto& [name, value] : params) {
      bool found = false;
      for (const auto& [cell_name, cell_value] : cell.params) {
        if (cell_name == name) {
          found = cell_value == value;
          break;
        }
      }
      if (!found) {
        match = false;
        break;
      }
    }
    if (match) {
      return &cell;
    }
  }
  return nullptr;
}

std::string ToJson(const ScenarioSummary& summary) {
  std::string out;
  out += "{\n";
  out += "  \"scenario\": " + JsonString(summary.scenario) + ",\n";
  out += "  \"trials\": " + std::to_string(summary.trials) + ",\n";
  out += "  \"seed_base\": " + std::to_string(summary.seed_base) + ",\n";
  if (summary.events_per_sec > 0) {
    out += "  \"runtime\": {\"wall_seconds\": " + JsonNumber(summary.wall_seconds) +
           ", \"events_dispatched\": " + std::to_string(summary.events_dispatched) +
           ", \"events_per_sec\": " + JsonNumber(summary.events_per_sec) + "},\n";
  }
  out += "  \"cells\": [";
  for (size_t c = 0; c < summary.cells.size(); ++c) {
    const CellSummary& cell = summary.cells[c];
    out += c == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"variant\": " + JsonString(cell.variant) + ",\n";
    out += "      \"params\": {";
    for (size_t p = 0; p < cell.params.size(); ++p) {
      out += p == 0 ? "" : ", ";
      out += JsonString(cell.params[p].first) + ": " + JsonNumber(cell.params[p].second);
    }
    out += "},\n";
    out += "      \"trials\": " + std::to_string(cell.trials) + ",\n";
    out += "      \"scalars\": {";
    size_t i = 0;
    for (const auto& [metric, s] : cell.scalars) {
      out += i++ == 0 ? "\n" : ",\n";
      out += "        " + JsonString(metric) + ": {\"n\": " + std::to_string(s.n) +
             ", \"mean\": " + JsonNumber(s.mean) + ", \"stddev\": " + JsonNumber(s.stddev) +
             ", \"min\": " + JsonNumber(s.min) + ", \"max\": " + JsonNumber(s.max) +
             ", \"median\": " + JsonNumber(s.median) +
             ", \"ci95_half\": " + JsonNumber(s.ci95_half) + "}";
    }
    out += i == 0 ? "},\n" : "\n      },\n";
    out += "      \"samples\": {";
    i = 0;
    for (const auto& [metric, s] : cell.samples) {
      out += i++ == 0 ? "\n" : ",\n";
      out += "        " + JsonString(metric) + ": {\"n\": " + std::to_string(s.n) +
             ", \"mean\": " + JsonNumber(s.mean) + ", \"min\": " + JsonNumber(s.min) +
             ", \"max\": " + JsonNumber(s.max) + ", \"p25\": " + JsonNumber(s.p25) +
             ", \"median\": " + JsonNumber(s.median) + ", \"p75\": " + JsonNumber(s.p75) +
             ", \"p95\": " + JsonNumber(s.p95) + ", \"p99\": " + JsonNumber(s.p99) + "}";
    }
    out += i == 0 ? "}\n" : "\n      }\n";
    out += "    }";
  }
  out += summary.cells.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string ToCsv(const ScenarioSummary& summary) {
  // Axis names are identical across cells; take them from the first cell.
  std::string out = "scenario,variant";
  if (!summary.cells.empty()) {
    for (const auto& [axis, value] : summary.cells.front().params) {
      (void)value;
      out += "," + axis;
    }
  }
  out +=
      ",kind,metric,n,mean,stddev,min,max,p25,median,p75,p95,p99,ci95_half\n";
  for (const CellSummary& cell : summary.cells) {
    std::string prefix = summary.scenario + "," + cell.variant;
    for (const auto& [axis, value] : cell.params) {
      (void)axis;
      prefix += "," + CsvNumber(value);
    }
    for (const auto& [metric, s] : cell.scalars) {
      out += prefix + ",scalar," + metric + "," + std::to_string(s.n) + "," +
             CsvNumber(s.mean) + "," + CsvNumber(s.stddev) + "," + CsvNumber(s.min) +
             "," + CsvNumber(s.max) + ",," + CsvNumber(s.median) + ",,,," +
             CsvNumber(s.ci95_half) + "\n";
    }
    for (const auto& [metric, s] : cell.samples) {
      out += prefix + ",sample," + metric + "," + std::to_string(s.n) + "," +
             CsvNumber(s.mean) + ",," + CsvNumber(s.min) + "," + CsvNumber(s.max) + "," +
             CsvNumber(s.p25) + "," + CsvNumber(s.median) + "," + CsvNumber(s.p75) + "," +
             CsvNumber(s.p95) + "," + CsvNumber(s.p99) + ",\n";
    }
  }
  if (summary.events_per_sec > 0) {
    out += "# runtime wall_seconds=" + CsvNumber(summary.wall_seconds) +
           " events_dispatched=" + std::to_string(summary.events_dispatched) +
           " events_per_sec=" + CsvNumber(summary.events_per_sec) + "\n";
  }
  return out;
}

bool OpenForWriting(const std::string& path, std::ofstream* f) {
  std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  f->open(p, std::ios::binary | std::ios::trunc);
  if (!*f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f;
  if (!OpenForWriting(path, &f)) {
    return false;
  }
  f << content;
  f.close();
  if (!f) {
    std::fprintf(stderr, "write to %s failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace runner
}  // namespace bundler

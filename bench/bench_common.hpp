// Shared scaffolding for the figure-reproduction benches.
//
// Every bench is a standalone binary that prints the figure's series as a
// table plus an ASCII plot, and writes the raw numbers to
// results/results_<bench>.csv under the working directory.  Scale knobs
// (env vars):
//   MRIS_BENCH_SCALE  multiplies job counts (default 1.0)
//   MRIS_SEED         base RNG seed (default 42)
//   MRIS_REPS         replications per data point (default 10, as in the
//                     paper's Section 7.1)
//
// Scale note (DESIGN.md §3): the paper runs N up to 64000 on M = 20
// machines.  Laptop-default benches keep the same *load per machine* with
// proportionally fewer machines and jobs so that CADP's O(n^2/eps) cost
// stays interactive; MRIS_BENCH_SCALE=8 with M overrides reproduces the
// paper's absolute scale.
#pragma once

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "exp/ascii.hpp"
#include "exp/runner.hpp"
#include "trace/generator.hpp"
#include "trace/sampling.hpp"
#include "util/env.hpp"

namespace mris::bench {

/// Scales a job count by MRIS_BENCH_SCALE.
inline std::size_t scaled(std::size_t n) {
  const double s = util::bench_scale();
  const auto v = static_cast<std::size_t>(static_cast<double>(n) * s);
  return v > 0 ? v : 1;
}

/// Generates the bench's base workload (paper-like defaults: 12.5-day
/// window, heavy-tailed durations, contended VM mix), merged to 4 resources.
inline trace::Workload base_workload(std::size_t base_jobs,
                                     std::uint64_t seed_offset = 0) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = base_jobs;
  cfg.seed = util::bench_seed() + seed_offset;
  return merge_storage(trace::generate_azure_like(cfg));
}

/// Instance factory for one (N, machines) data point: replication `rep`
/// downsamples the base workload with a distinct offset, as in Sec 7.1.
/// `offsets` must come from trace::sample_offsets(factor, reps, ...).
inline std::function<Instance(std::size_t)> downsample_factory(
    const trace::Workload& base, std::size_t factor,
    std::vector<std::size_t> offsets, int machines) {
  return [&base, factor, offsets = std::move(offsets),
          machines](std::size_t rep) {
    return to_instance(trace::downsample(base, factor, offsets.at(rep)),
                       machines);
  };
}

/// Prints the standard bench header.
inline void print_header(const char* name, const char* paper_ref) {
  std::printf("\n=== %s — reproduces %s ===\n", name, paper_ref);
  std::printf("seed=%llu reps=%zu scale=%.2f\n",
              static_cast<unsigned long long>(util::bench_seed()),
              util::bench_reps(), util::bench_scale());
}

/// Path of the bench's raw-output CSV: results/results_<bench>.csv under
/// the working directory.  Creates results/ on first use so benches can be
/// run from a fresh build tree or the repo root alike.
inline std::string results_csv_path(const std::string& bench_name) {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);  // best-effort
  return "results/results_" + bench_name + ".csv";
}

/// Path of the bench's machine-readable summary: results/BENCH_<bench>.json.
inline std::string results_json_path(const std::string& bench_name) {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);  // best-effort
  return "results/BENCH_" + bench_name + ".json";
}

// Build provenance, baked in by bench/CMakeLists.txt at configure time.
// Constant for a given build, so seeded double runs of one binary still
// produce byte-identical JSON (the determinism CI job depends on that).
#ifndef MRIS_BENCH_GIT_SHA
#define MRIS_BENCH_GIT_SHA "unknown"
#endif
#ifndef MRIS_BENCH_COMPILER
#define MRIS_BENCH_COMPILER "unknown"
#endif
#ifndef MRIS_BENCH_FLAGS
#define MRIS_BENCH_FLAGS ""
#endif

/// Escapes a string for embedding in a JSON double-quoted literal
/// (compiler flags can contain quotes and backslashes).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trippable JSON number (matches the CSV convention).
inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lf", &parsed);
  if (parsed == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[64];
      std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
      std::sscanf(shorter, "%lf", &parsed);
      if (parsed == v) return shorter;
    }
  }
  return buf;
}

inline void json_array(std::FILE* f, const std::vector<double>& xs) {
  std::fputc('[', f);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) std::fputs(", ", f);
    std::fputs(json_num(xs[i]).c_str(), f);
  }
  std::fputc(']', f);
}

/// The shared provenance object (git SHA, compiler, flags), without
/// surrounding whitespace — every BENCH_*.json writer embeds exactly this,
/// so the block never drifts between benches.
inline std::string provenance_json() {
  return std::string("\"provenance\": {\"git_sha\": \"") +
         json_escape(MRIS_BENCH_GIT_SHA) + "\", \"compiler\": \"" +
         json_escape(MRIS_BENCH_COMPILER) + "\", \"flags\": \"" +
         json_escape(MRIS_BENCH_FLAGS) + "\"}";
}

/// Writes the per-bench JSON summary (schema 2): bench name, seed/reps/
/// scale config, build provenance (git SHA, compiler, flags — fixed per
/// build), and the series as parallel x/y/ci arrays.  Deliberately carries
/// NO wall-clock timings — seeded double runs must produce byte-identical
/// files (the determinism CI job diffs them).
inline bool write_series_json(const std::string& path,
                              const std::string& bench_name,
                              const std::vector<exp::Series>& series) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 2,\n"
               "  \"bench\": \"%s\",\n"
               "  \"config\": {\"seed\": %llu, \"reps\": %zu, "
               "\"scale\": %s},\n"
               "  %s,\n"
               "  \"series\": [\n",
               bench_name.c_str(),
               static_cast<unsigned long long>(util::bench_seed()),
               util::bench_reps(), json_num(util::bench_scale()).c_str(),
               provenance_json().c_str());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const exp::Series& s = series[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"x\": ", s.name.c_str());
    json_array(f, s.x);
    std::fputs(", \"y\": ", f);
    json_array(f, s.y);
    std::fputs(", \"ci95_half_width\": ", f);
    json_array(f, s.ci);
    std::fprintf(f, "}%s\n", i + 1 < series.size() ? "," : "");
  }
  std::fputs("  ]\n}\n", f);
  return std::fclose(f) == 0;
}

/// Emits the table + plot + CSV + JSON summary for a finished sweep.
inline void emit(const std::string& bench_name,
                 const std::vector<exp::Series>& series,
                 exp::PlotOptions opts,
                 const std::vector<std::vector<std::string>>& table) {
  std::printf("%s", exp::render_table(table).c_str());
  std::printf("\n%s", exp::render_plot(series, opts).c_str());
  const std::string csv = results_csv_path(bench_name);
  if (exp::write_series_csv(csv, series)) {
    std::printf("raw series written to %s\n", csv.c_str());
  }
  const std::string json = results_json_path(bench_name);
  if (write_series_json(json, bench_name, series)) {
    std::printf("json summary written to %s\n", json.c_str());
  }
}

}  // namespace mris::bench

// Shared scaffolding for the per-figure/table bench binaries.
//
// Every bench runs one campaign at CURTAIN_SCALE (default 0.05 of the
// paper's five months; CURTAIN_SCALE=1 reproduces the full 28k-experiment
// study) and prints the rows/series of its paper figure or table.
#pragma once

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "analysis/figures.h"
#include "core/study.h"
#include "net/rng.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/csv.h"
#include "util/flags.h"

namespace curtain::bench {

/// Rng stream for one micro-bench, derived from CURTAIN_SEED via the same
/// mix_key/hash_tag discipline as the simulator's own streams.
inline net::Rng bench_rng(std::string_view tag) {  // lint: rng-seed
  return net::Rng(net::mix_key(util::study_seed(), net::hash_tag(tag)));
}

// Wall-clock use below is waived: it feeds only the bench run records'
// wall_ms field, never a simulated result.

/// Wall-clock anchor for the whole bench process (first call wins).
inline std::chrono::steady_clock::time_point& bench_start() {  // lint: wallclock
  static auto start = std::chrono::steady_clock::now();  // lint: wallclock, shared-static (process-wide bench anchor)
  return start;
}

/// Emits the bench's one-line machine-readable run record to stdout:
/// name, wall-clock, peak RSS, and the headline obs counters. Greppable
/// as `"bench_record"` from a loop over `build/bench/*`.
inline void emit_json_record(const std::string& name) {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - bench_start())  // lint: wallclock
          .count();
  const auto snapshot = obs::metrics().snapshot();
  static constexpr const char* kKeyCounters[] = {
      "curtain_dns_queries_total",        "curtain_dns_cache_hits_total",
      "curtain_cdn_mapping_lookups_total", "curtain_measure_experiments_total",
      "curtain_measure_resolutions_total"};
  std::string out = "{\"bench_record\":\"" + name + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"wall_ms\":%.1f", wall_ms);
  out += buf;
  // Peak RSS belongs in the perf evidence alongside wall-clock: a change
  // that trades memory for speed must show up in the same record.
  std::snprintf(buf, sizeof(buf), ",\"peak_rss_mb\":%.1f",
                static_cast<double>(obs::read_peak_rss_bytes()) /
                    (1024.0 * 1024.0));
  out += buf;
  for (const char* key : kKeyCounters) {
    std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", key,
                  static_cast<unsigned long long>(snapshot.counter_value(key)));
    out += buf;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
}

/// Name registered by banner(); the atexit hook emits its record.
inline std::string& bench_name() {
  static std::string name;  // lint: shared-static (single-threaded bench harness)
  return name;
}

namespace detail {
inline void emit_record_at_exit() {
  if (!bench_name().empty()) emit_json_record(bench_name());
}
}  // namespace detail

/// When CURTAIN_BENCH_CSV_DIR is set, every CDF a bench prints is also
/// written as `<dir>/<exp_id>.csv` (label,quantile,value rows) for
/// external plotting.
class CsvSink {
 public:
  explicit CsvSink(const std::string& exp_id) {
    const std::string dir = util::bench_csv_dir();
    if (dir.empty()) return;
    std::string slug;
    for (const char c : exp_id) {
      slug += std::isalnum(static_cast<unsigned char>(c))
                  ? static_cast<char>(std::tolower(c))
                  : '_';
    }
    file_ = std::make_unique<util::CsvFile>(dir + "/" + slug + ".csv");
    if (!file_->valid()) {
      file_.reset();
      return;
    }
    file_->writer().row({"series", "quantile", "value"});
  }

  void add(const std::string& label, const analysis::Ecdf& cdf) {
    if (!file_) return;
    for (const auto& [p, v] : cdf.curve(41)) {
      file_->writer().typed_row(label, p, v);
    }
  }

 private:
  std::unique_ptr<util::CsvFile> file_;
};

/// Process-wide sink bound by banner(); null until then.
inline std::unique_ptr<CsvSink>& csv_sink() {
  static std::unique_ptr<CsvSink> sink;  // lint: shared-static (single-threaded bench harness)
  return sink;
}

/// Builds, runs and returns the study for this bench process.
inline core::Study& study() {
  static core::Study* instance = [] {  // lint: shared-static (one campaign per bench process)
    auto* s = new core::Study(core::Scenario::from_env());
    std::fprintf(stderr,
                 "[bench] running campaign: scale=%.3f seed=%llu shards=%d ...\n",
                 s->scenario().scale,
                 static_cast<unsigned long long>(s->scenario().seed),
                 s->scenario().shards);
    s->run();
    std::fprintf(stderr, "[bench] campaign done: %s\n", s->summary().c_str());
    return s;
  }();
  return *instance;
}

inline void banner(const char* exp_id, const char* description) {
  bench_start();
  if (bench_name().empty()) {
    bench_name() = exp_id;
    std::atexit(detail::emit_record_at_exit);
  }
  csv_sink() = std::make_unique<CsvSink>(exp_id);
  std::printf("================================================================\n");
  std::printf("%s — %s\n", exp_id, description);
  std::printf("  (Behind the Curtain, IMC'14 reproduction; dataset: %s)\n",
              study().summary().c_str());
  std::printf("================================================================\n");
}

/// Prints one labelled CDF as a quantile row (and mirrors it to the CSV
/// sink when CURTAIN_BENCH_CSV_DIR is set; `series` names the CSV series,
/// defaulting to the display label).
inline void print_cdf_row(const std::string& label, const analysis::Ecdf& cdf,
                          const std::string& series = {}) {
  std::printf("  %-22s %s\n", label.c_str(), analysis::describe_cdf(cdf).c_str());
  if (csv_sink()) csv_sink()->add(series.empty() ? label : series, cdf);
}

/// Prints a group of CDFs (one figure panel).
inline void print_group(const std::string& title,
                        const analysis::CdfGroup& group) {
  std::printf("%s\n", title.c_str());
  for (const auto& [label, cdf] : group) {
    print_cdf_row(label, cdf, title + "/" + label);
  }
}

/// Prints full CDF curves as CSV-ish series rows for external plotting.
inline void print_curves(const analysis::CdfGroup& group, int points = 11) {
  for (const auto& [label, cdf] : group) {
    if (cdf.empty()) continue;
    std::printf("    series,%s", label.c_str());
    for (const auto& [p, v] : cdf.curve(points)) {
      std::printf(",%.0f%%=%.1f", p * 100.0, v);
    }
    std::printf("\n");
  }
}

#ifdef BENCHMARK_BENCHMARK_H_
/// main() body for the micro benches (include benchmark/benchmark.h before
/// this header): runs google-benchmark, then emits the same one-line JSON
/// run record the figure benches print.
inline int run_micro_benchmarks(const char* name, int argc, char** argv) {
  bench_start();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json_record(name);
  return 0;
}
#endif

}  // namespace curtain::bench

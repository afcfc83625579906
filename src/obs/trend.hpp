#pragma once
/// \file trend.hpp
/// \brief Bench-trajectory records ("pkifmm.run.v1") and trend
/// analysis over BENCH_history.jsonl.
///
/// This is the one perf-regression gate: "is this run worse than the
/// last K comparable runs, phase by phase?". Every bench appends one
/// compact line per run:
///
///   {
///     "schema": "pkifmm.run.v1",
///     "bench": "<name>",            // which bench produced it
///     "git_sha": "<sha|unknown>",   // --git-sha / PKIFMM_GIT_SHA /
///                                   // GITHUB_SHA
///     "nranks": <int>, "nruns": <int>,
///     "config": { ... },            // free-form bench configuration
///     "phases": {                   // cross-rank SUMS per phase
///       "<phase>": { "wall", "cpu", "flops", "msgs_sent",
///                    "bytes_sent",
///                    // present only for --flow-trace runs (warn-only
///                    // gate):
///                    "wait_seconds" }, ...
///     },
///     "mem": {
///       "peak_rss_bytes": <process VmHWM at record time>,
///       // owner byte gauges "mem.<owner>.<what>" from the summary's
///       // "gauges" section, summed over ranks and averaged over runs,
///       // keyed without "mem." (warn-only gate):
///       "owned": { "let.total_bytes": <bytes>,
///                  "eval.fft_chunk_bytes": <bytes>, ... }
///     },
///     // present only for health-enabled runs (warn-only gate):
///     "health": { "sampled_rel_err": <double>, "sample_count": <double> }
///   }
///
/// One JSON document per line (JSONL): appends are atomic enough for
/// sequential bench runs, the file diffs line-per-run in git, and a
/// truncated last line (crashed bench) only loses that run.
///
/// trend_analyze compares the newest record against the *median* of
/// the previous `window` comparable records per (phase, metric) — the
/// median keeps one noisy CI machine from poisoning the reference. A
/// record is comparable when it has the newest record's rank count and
/// the same value for every config key both carry. Time and work
/// metrics hard-fail; blocked-recv wait time, owner memory and sampled
/// error only ever WARN, because they move with the scheduler, the
/// thread count and the allocator. Records written by the retired hardware
/// sampler still read; its per-phase fields are ignored.

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pkifmm::obs {

inline constexpr const char* kRunSchema = "pkifmm.run.v1";

/// Builds a run record from a validated summary document ("phases"
/// sums + `wait.<phase>.seconds` metric sums + the `mem.*` gauge sums
/// + the current process peak RSS). `config` is stored verbatim (pass
/// Json::object() for none).
Json run_record_from_summary(const Json& summary, const std::string& bench,
                             const std::string& git_sha,
                             const Json& config);

/// Validates the structural schema of one run record; throws
/// CheckFailure describing the first violation.
void validate_run_json(const Json& doc);

/// Appends one record as a single JSONL line (creates the file if
/// missing). Throws CheckFailure if the record fails validation or
/// the file cannot be written.
void append_run_record(const std::string& path, const Json& record);

/// Reads a JSONL history file; skips blank lines, throws CheckFailure
/// on unreadable files or lines that fail to parse/validate.
std::vector<Json> read_run_history(const std::string& path);

/// Thresholds for trend_analyze. Work metrics (flops, msgs, bytes) are
/// exactly reproducible run-over-run, so their ratio is tight; wall/cpu
/// time depends on the machine, so its ratio is loose and values below
/// the floors are skipped (simulated ranks are threads of one process,
/// so sub-50 ms phase walls are scheduler noise). Owner memory gets its
/// own ratio and is warn-only regardless.
struct TrendOptions {
  int window = 8;             ///< reference = median of the last
                              ///< `window` comparable records
  double time_ratio = 1.6;    ///< hard bound for wall & cpu
  double work_ratio = 1.25;   ///< hard bound for flops / msgs / bytes
  double mem_ratio = 1.5;     ///< WARN bound for each "mem.owned" key
  double min_seconds = 5e-2;  ///< floors: skip values below these
  double min_flops = 1e4;
  double min_msgs = 16;
  double min_bytes = 4096;
  double min_mem_bytes = 1e6; ///< ignore owned bytes below this
  /// WARN bound for the sampled relative error of health-enabled runs
  /// (run record field "health.sampled_rel_err"): warn when fresh
  /// exceeds err_ratio × the reference median. Generous because the
  /// sample set varies per step and small samples are noisy; the hard
  /// accuracy contract stays in the offline tests.
  double err_ratio = 4.0;
  double min_err = 1e-12;     ///< ignore errors below this (p large
                              ///< enough that the sample underflows)
  /// Promote the warn-only wait/mem/health findings to hard failures
  /// ("ok" = false when any warning fires). For CI lanes pinned to one
  /// machine class, where those signals ARE comparable run-over-run.
  bool strict = false;
};

/// Analyzes records of ONE bench, ordered oldest -> newest. The newest
/// record is compared per phase against the median of up to
/// opt.window preceding comparable records (same "nranks", equal
/// values for the "config" keys both records carry). Returns
///   { "ok": bool,                  // no hard regressions
///     "checked": <int>, "window": <int>,  // references actually used
///     "references": [<int>, ...],  // their indices, oldest first
///     "newest_sha": "<sha>",
///     "regressions": [ { "phase", "metric", "reference", "fresh",
///                        "ratio", "limit" }, ... ],
///     "warnings":   [ ...same shape, warn-only metrics; owner
///                     memory has phase "mem.owned" and the owned
///                     key as metric... ] }
/// A phase the newest reference has but the newest record lacks is a
/// regression with metric "missing". No comparable reference yields ok
/// with window = checked = 0 (nothing to compare yet). Throws
/// CheckFailure if any record fails validate_run_json.
Json trend_analyze(const std::vector<Json>& records,
                   const TrendOptions& opt = {});

}  // namespace pkifmm::obs

#pragma once
/// \file trend.hpp
/// \brief Bench-trajectory records ("pkifmm.run.v1") and trend
/// analysis over BENCH_history.jsonl.
///
/// The perf gate (aggregate.hpp compare_summaries) answers "is this
/// run worse than the one checked-in baseline?". Trend records answer
/// the longitudinal question — "how has each phase moved over the last
/// K runs?" — which is what catches the slow drift a single baseline
/// ratio absorbs. Every bench appends one compact line per run:
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
/// the previous `window` records per (phase, metric) — the median
/// keeps one noisy CI machine from poisoning the reference. Time and
/// work metrics gate with the same ratios/floors as GateOptions
/// (hard-fail); blocked-recv wait time, owner memory and sampled error
/// only ever WARN, because they move with the scheduler, the thread
/// count and the allocator. Records written by the retired hardware
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

/// Thresholds for trend_analyze. Time/work ratios and floors mirror
/// GateOptions; owner memory gets its own ratio and is warn-only
/// regardless.
struct TrendOptions {
  int window = 8;             ///< reference = median of last `window`
                              ///< records before the newest
  double time_ratio = 1.6;    ///< hard bound for wall & cpu
  double work_ratio = 1.25;   ///< hard bound for flops / msgs / bytes
  double mem_ratio = 1.5;     ///< WARN bound for each "mem.owned" key
  double min_seconds = 5e-2;  ///< floors, as in GateOptions
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
/// opt.window preceding records. Returns
///   { "ok": bool,                  // no hard regressions
///     "checked": <int>, "window": <int>,  // references actually used
///     "newest_sha": "<sha>",
///     "regressions": [ { "phase", "metric", "reference", "fresh",
///                        "ratio", "limit" }, ... ],
///     "warnings":   [ ...same shape, warn-only metrics; owner
///                     memory has phase "mem.owned" and the owned
///                     key as metric... ] }
/// A phase present in every reference record but missing from the
/// newest is a regression with metric "missing". Fewer than 2 records
/// yields ok with checked = 0 (nothing to compare yet). Throws
/// CheckFailure if any record fails validate_run_json.
Json trend_analyze(const std::vector<Json>& records,
                   const TrendOptions& opt = {});

}  // namespace pkifmm::obs

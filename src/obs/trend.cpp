#include "obs/trend.hpp"

#include <algorithm>
#include <fstream>

#include "obs/aggregate.hpp"
#include "obs/hw.hpp"

namespace pkifmm::obs {

namespace {

/// Hard-gated metrics: ratio bound and absolute floor, resolved from
/// TrendOptions at check time.
struct HardMetric {
  const char* key;
  double TrendOptions::* ratio;
  double TrendOptions::* floor;
};
const HardMetric kHardMetrics[] = {
    {"wall", &TrendOptions::time_ratio, &TrendOptions::min_seconds},
    {"cpu", &TrendOptions::time_ratio, &TrendOptions::min_seconds},
    {"flops", &TrendOptions::work_ratio, &TrendOptions::min_flops},
    {"msgs_sent", &TrendOptions::work_ratio, &TrendOptions::min_msgs},
    {"bytes_sent", &TrendOptions::work_ratio, &TrendOptions::min_bytes},
};

double median(std::vector<double> v) {
  PKIFMM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// True when `ref` may serve as a reference for `fresh`: same rank
/// count, and every config key both records carry has the same value
/// (keys only one of them carries are ignored, so records written
/// before or after a config key was added still compare).
bool comparable(const Json& fresh, const Json& ref) {
  if (fresh.at("nranks").as_int() != ref.at("nranks").as_int()) return false;
  if (!fresh.contains("config") || !ref.contains("config")) return true;
  const Json& fc = fresh.at("config");
  const Json& rc = ref.at("config");
  for (const std::string& key : fc.keys())
    if (rc.contains(key) && rc.at(key) != fc.at(key)) return false;
  return true;
}

Json finding(const std::string& phase, const std::string& metric,
             double reference, double fresh, double ratio, double limit) {
  Json f = Json::object();
  f.set("phase", phase);
  f.set("metric", metric);
  f.set("reference", reference);
  f.set("fresh", fresh);
  f.set("ratio", ratio);
  f.set("limit", limit);
  return f;
}

}  // namespace

Json run_record_from_summary(const Json& summary, const std::string& bench,
                             const std::string& git_sha,
                             const Json& config) {
  validate_summary_json(summary);
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", bench);
  rec.set("git_sha", git_sha.empty() ? "unknown" : git_sha);
  rec.set("nranks", summary.at("nranks").as_int());
  rec.set("nruns", summary.at("nruns").as_int());

  const Json& metrics = summary.at("metrics");
  auto metric_sum = [&](const std::string& name) -> double {
    return metrics.contains(name) ? metrics.at(name).at("sum").as_double()
                                  : -1.0;
  };
  rec.set("config", config);

  Json phases = Json::object();
  for (const std::string& name : summary.at("phases").keys()) {
    const Json& sp = summary.at("phases").at(name);
    Json p = Json::object();
    for (const char* f : {"wall", "cpu", "flops", "msgs_sent", "bytes_sent"})
      p.set(f, sp.at(f).at("sum").as_double());
    // Blocked-recv seconds, present only for --flow-trace runs.
    const double wait = metric_sum("wait." + name + ".seconds");
    if (wait >= 0.0) p.set("wait_seconds", wait);
    phases.set(name, std::move(p));
  }
  rec.set("phases", std::move(phases));

  // Owner-reported byte gauges ("mem.<owner>.<what>"), summed over
  // ranks and averaged over runs, keyed without the "mem." prefix.
  Json owned = Json::object();
  if (summary.contains("gauges")) {
    const Json& gauges = summary.at("gauges");
    const double nruns = static_cast<double>(
        std::max<std::int64_t>(1, summary.at("nruns").as_int()));
    for (const std::string& name : gauges.keys())
      if (name.starts_with("mem."))
        owned.set(name.substr(4),
                  gauges.at(name).at("sum").as_double() / nruns);
  }
  Json mem = Json::object();
  mem.set("peak_rss_bytes",
          static_cast<std::int64_t>(peak_rss_bytes()));
  mem.set("owned", std::move(owned));
  rec.set("mem", std::move(mem));

  // Optional numerical-health summary (FmmOptions::health runs): the
  // sampled relative error becomes a warn-gated longitudinal signal
  // alongside the perf metrics.
  if (summary.contains("health")) {
    const Json& hs = summary.at("health").at("sample");
    Json health = Json::object();
    health.set("sampled_rel_err", hs.at("rel_err").as_double());
    health.set("sample_count", hs.at("count").as_double());
    rec.set("health", std::move(health));
  }
  return rec;
}

void validate_run_json(const Json& doc) {
  PKIFMM_CHECK_MSG(doc.type() == Json::Type::kObject,
                   "run record is not an object");
  PKIFMM_CHECK_MSG(doc.contains("schema") &&
                       doc.at("schema").as_string() == kRunSchema,
                   "run record schema is not '" << kRunSchema << "'");
  for (const char* key : {"bench", "git_sha"})
    PKIFMM_CHECK_MSG(doc.contains(key) && doc.at(key).type() ==
                                              Json::Type::kString,
                     "run record missing string field '" << key << "'");
  for (const char* key : {"nranks", "nruns"})
    PKIFMM_CHECK_MSG(doc.contains(key) && doc.at(key).is_number(),
                     "run record missing numeric field '" << key << "'");
  PKIFMM_CHECK_MSG(doc.contains("phases") &&
                       doc.at("phases").type() == Json::Type::kObject,
                   "run record missing 'phases' object");
  PKIFMM_CHECK_MSG(!doc.contains("config") ||
                       doc.at("config").type() == Json::Type::kObject,
                   "run record 'config' is not an object");
  for (const std::string& name : doc.at("phases").keys()) {
    const Json& p = doc.at("phases").at(name);
    PKIFMM_CHECK_MSG(p.type() == Json::Type::kObject,
                     "run phase '" << name << "' is not an object");
    for (const char* f : {"wall", "cpu", "flops"})
      PKIFMM_CHECK_MSG(p.contains(f) && p.at(f).is_number(),
                       "run phase '" << name << "' missing '" << f << "'");
  }
  // Optional: records written before owner gauges existed have no
  // "mem.owned" (and the oldest no "mem").
  if (doc.contains("mem") && doc.at("mem").contains("owned")) {
    const Json& owned = doc.at("mem").at("owned");
    PKIFMM_CHECK_MSG(owned.type() == Json::Type::kObject,
                     "run record 'mem.owned' is not an object");
    for (const std::string& key : owned.keys())
      PKIFMM_CHECK_MSG(owned.at(key).is_number(),
                       "run record 'mem.owned." << key << "' is not a number");
  }
}

void append_run_record(const std::string& path, const Json& record) {
  validate_run_json(record);
  std::ofstream out(path, std::ios::app);
  PKIFMM_CHECK_MSG(out.good(),
                   "append_run_record: cannot open '" << path << "'");
  out << record.dump() << "\n";
  PKIFMM_CHECK_MSG(out.good(),
                   "append_run_record: write to '" << path << "' failed");
}

std::vector<Json> read_run_history(const std::string& path) {
  std::ifstream in(path);
  PKIFMM_CHECK_MSG(in.good(),
                   "read_run_history: cannot open '" << path << "'");
  std::vector<Json> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json rec;
    try {
      rec = Json::parse(line);
      validate_run_json(rec);
    } catch (const std::exception& e) {
      PKIFMM_CHECK_MSG(false, "read_run_history: " << path << ":" << lineno
                                                   << ": " << e.what());
    }
    out.push_back(std::move(rec));
  }
  return out;
}

Json trend_analyze(const std::vector<Json>& records,
                   const TrendOptions& opt) {
  for (const Json& r : records) validate_run_json(r);

  Json regressions = Json::array();
  Json warnings = Json::array();
  std::int64_t checked = 0;

  // References: up to opt.window records before the newest that are
  // comparable with it, newest first. A record from another rank count
  // or configuration never counts, however recent.
  std::vector<std::size_t> refs;
  if (!records.empty()) {
    const std::size_t want =
        static_cast<std::size_t>(std::max(1, opt.window));
    for (std::size_t i = records.size() - 1; i-- > 0 && refs.size() < want;)
      if (comparable(records.back(), records[i])) refs.push_back(i);
  }

  // Compares one fresh value with the median of its reference values.
  // A fresh value under `floor` is noise and passes unchecked; the
  // reference is clamped to the floor so growth from ~0 still shows.
  auto check = [&](const std::string& phase, const std::string& metric,
                   const std::vector<double>& vals, double now,
                   double floor, double limit, Json& sink) {
    if (vals.empty() || now < floor) return;
    ++checked;
    const double ref = median(vals);
    const double ratio = now / std::max(ref, floor);
    if (ratio > limit)
      sink.push_back(finding(phase, metric, ref, now, ratio, limit));
  };

  if (!refs.empty()) {
    const Json& fresh = records.back();
    const Json& fphases = fresh.at("phases");

    // Union of phase names across the references, in first-seen order.
    std::vector<std::string> phase_names;
    for (std::size_t i : refs)
      for (const std::string& name : records[i].at("phases").keys())
        if (std::find(phase_names.begin(), phase_names.end(), name) ==
            phase_names.end())
          phase_names.push_back(name);

    for (const std::string& phase : phase_names) {
      // Values of (phase, metric) over the references that have it.
      auto ref_values = [&](const char* metric) {
        std::vector<double> vals;
        for (std::size_t i : refs) {
          const Json& ph = records[i].at("phases");
          if (ph.contains(phase) && ph.at(phase).contains(metric))
            vals.push_back(ph.at(phase).at(metric).as_double());
        }
        return vals;
      };

      if (!fphases.contains(phase)) {
        // Missing when the newest reference still ran the phase; one
        // that only older references have was already gone before.
        const Json& newest = records[refs.front()].at("phases");
        if (newest.contains(phase))
          regressions.push_back(
              finding(phase, "missing",
                      newest.at(phase).at("wall").as_double(), 0.0, 0.0,
                      0.0));
        continue;
      }
      const Json& fp = fphases.at(phase);
      for (const HardMetric& m : kHardMetrics)
        if (fp.contains(m.key))
          check(phase, m.key, ref_values(m.key), fp.at(m.key).as_double(),
                opt.*(m.floor), opt.*(m.ratio), regressions);
      // Blocked-recv time (--flow-trace runs): warn-only, because wait
      // time moves with the scheduler and a loaded CI box would fail.
      if (fp.contains("wait_seconds"))
        check(phase, "wait_seconds", ref_values("wait_seconds"),
              fp.at("wait_seconds").as_double(), opt.min_seconds,
              opt.time_ratio, warnings);
    }

    // Owner byte gauges: warn-only, like the other machine-dependent
    // signals (scratch capacities follow the thread count and the
    // allocator's growth policy).
    auto owned_of = [](const Json& r) -> const Json* {
      return r.contains("mem") && r.at("mem").contains("owned")
                 ? &r.at("mem").at("owned")
                 : nullptr;
    };
    if (const Json* fowned = owned_of(fresh)) {
      for (const std::string& key : fowned->keys()) {
        std::vector<double> vals;
        for (std::size_t i : refs) {
          const Json* o = owned_of(records[i]);
          if (o != nullptr && o->contains(key))
            vals.push_back(o->at(key).as_double());
        }
        check("mem.owned", key, vals, fowned->at(key).as_double(),
              opt.min_mem_bytes, opt.mem_ratio, warnings);
      }
    }

    // Sampled-error trend (health-enabled runs): warn-only, against the
    // median of the references that carry the field. Accuracy is
    // configuration-determined, not machine-determined, but benches mix
    // health-on and health-off records in one history, so a hard gate
    // would mis-fire whenever the field's presence flips.
    if (fresh.contains("health") &&
        fresh.at("health").contains("sampled_rel_err")) {
      std::vector<double> vals;
      for (std::size_t i : refs)
        if (records[i].contains("health"))
          vals.push_back(
              records[i].at("health").at("sampled_rel_err").as_double());
      check("health", "sampled_rel_err", vals,
            fresh.at("health").at("sampled_rel_err").as_double(),
            opt.min_err, opt.err_ratio, warnings);
    }
  }

  Json references = Json::array();
  for (auto it = refs.rbegin(); it != refs.rend(); ++it)
    references.push_back(Json(static_cast<std::int64_t>(*it)));

  Json report = Json::object();
  report.set("ok", regressions.size() == 0 &&
                       (!opt.strict || warnings.size() == 0));
  report.set("checked", checked);
  report.set("window", static_cast<std::int64_t>(refs.size()));
  report.set("references", std::move(references));
  report.set("newest_sha",
             records.empty() ? "" : records.back().at("git_sha").as_string());
  report.set("regressions", std::move(regressions));
  report.set("warnings", std::move(warnings));
  return report;
}

}  // namespace pkifmm::obs

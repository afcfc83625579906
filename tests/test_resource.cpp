/// Resource-observability tests: JSON string-escaping edge cases and
/// the non-finite-number policy, the process peak-RSS read, run.v1
/// record round-trips (new and old record shapes), and trend_analyze
/// regression/warning semantics against synthetic bench trajectories,
/// including which records are comparable references and the
/// owner-memory warn gate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/hw.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trend.hpp"
#include "util/check.hpp"

namespace pkifmm::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonEscaping, ControlCharactersRoundTrip) {
  std::string raw;
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);  // 0x01 .. 0x1f
  Json obj = Json::object();
  obj.set("ctl", raw);
  const std::string text = obj.dump();
  // Everything below 0x20 must be escaped — either the short forms or
  // \u00xx — so the emitted document contains no raw control bytes.
  for (char c : text) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_EQ(Json::parse(text).at("ctl").as_string(), raw);
}

TEST(JsonEscaping, ShortEscapesRoundTrip) {
  const std::string raw = "b\b f\f n\n r\r t\t q\" s\\";
  Json obj = Json::object();
  obj.set("esc", raw);
  EXPECT_EQ(Json::parse(obj.dump()).at("esc").as_string(), raw);
  EXPECT_EQ(Json::parse(obj.dump(2)).at("esc").as_string(), raw);
}

TEST(JsonEscaping, NonAsciiUtf8PassesThrough) {
  // Multi-byte UTF-8 (2-, 3- and 4-byte sequences) is not escaped —
  // the bytes travel verbatim and survive a dump/parse round-trip.
  const std::string raw = "caf\xc3\xa9 \xe2\x88\x91 \xf0\x9f\x8c\x8d";
  Json obj = Json::object();
  obj.set("text", raw);
  const std::string text = obj.dump();
  EXPECT_NE(text.find(raw), std::string::npos);
  EXPECT_EQ(Json::parse(text).at("text").as_string(), raw);
}

TEST(JsonEscaping, NonFiniteNumbersAreRejected) {
  // JSON has no NaN/Inf literal; the policy is fail-fast at dump()
  // time rather than emitting an unparseable document.
  Json obj = Json::object();
  obj.set("nan", std::nan(""));
  EXPECT_THROW(obj.dump(), CheckFailure);
  obj = Json::object();
  obj.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_THROW(obj.dump(), CheckFailure);
  EXPECT_THROW(obj.dump(2), CheckFailure);
  // Finite values still dump fine.
  obj = Json::object();
  obj.set("ok", 1.5);
  EXPECT_DOUBLE_EQ(Json::parse(obj.dump()).at("ok").as_double(), 1.5);
}

// ------------------------------------------------------------ peak RSS

TEST(PeakRss, ReadsAreSane) {
  const std::uint64_t peak = peak_rss_bytes();
  ASSERT_GT(peak, 0u);
  // Touch fresh pages: the high-water mark never goes down.
  std::vector<char> pages(1 << 22);
  for (std::size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;
  EXPECT_GE(peak_rss_bytes(), peak);
}

// ---------------------------------------------------------- run.v1

/// A minimal-but-valid run record with one "eval" phase and two owner
/// byte gauges; `fft_bytes` is the evaluator's FFT chunk footprint.
Json make_record(const std::string& sha, double wall, double fft_bytes) {
  Json phase = Json::object();
  phase.set("wall", wall);
  phase.set("cpu", wall * 0.9);
  phase.set("flops", 2e8);
  phase.set("msgs_sent", 128.0);
  phase.set("bytes_sent", 1e6);
  Json phases = Json::object();
  phases.set("eval", phase);
  Json owned = Json::object();
  owned.set("eval.fft_chunk_bytes", fft_bytes);
  owned.set("let.total_bytes", 8e6);
  Json mem = Json::object();
  mem.set("peak_rss_bytes", 5e8);
  mem.set("owned", owned);
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", "synthetic");
  rec.set("git_sha", sha);
  rec.set("nranks", 4);
  rec.set("nruns", 1);
  rec.set("config", Json::object());
  rec.set("phases", phases);
  rec.set("mem", mem);
  return rec;
}

/// A record in the shape written before owner gauges: a sampler-source
/// tag, per-phase fault and peak-RSS-delta fields, and no "mem.owned".
Json make_old_record(const std::string& sha, double wall, double faults) {
  Json phase = Json::object();
  phase.set("wall", wall);
  phase.set("cpu", wall * 0.9);
  phase.set("flops", 2e8);
  phase.set("msgs_sent", 128.0);
  phase.set("bytes_sent", 1e6);
  phase.set("minor_faults", faults);
  phase.set("peak_rss_delta_bytes", 3e6);
  Json phases = Json::object();
  phases.set("eval", phase);
  Json mem = Json::object();
  mem.set("peak_rss_bytes", 5e8);
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", "synthetic");
  rec.set("git_sha", sha);
  rec.set("nranks", 4);
  rec.set("nruns", 1);
  rec.set("hw_source", "fallback");
  rec.set("config", Json::object());
  rec.set("phases", phases);
  rec.set("mem", mem);
  return rec;
}

TEST(RunRecord, AppendReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "pkifmm_history.jsonl";
  std::remove(path.c_str());
  append_run_record(path, make_record("aaa", 1.0, 4e6));
  append_run_record(path, make_record("bbb", 1.1, 4e6));
  const std::vector<Json> back = read_run_history(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].at("git_sha").as_string(), "aaa");
  EXPECT_EQ(back[1].at("git_sha").as_string(), "bbb");
  EXPECT_EQ(back[1], make_record("bbb", 1.1, 4e6));
  std::remove(path.c_str());
}

TEST(RunRecord, ValidateRejectsBadDocuments) {
  Json wrong = make_record("aaa", 1.0, 2e6);
  wrong.set("schema", "pkifmm.metrics.v1");
  EXPECT_THROW(validate_run_json(wrong), CheckFailure);
  EXPECT_THROW(validate_run_json(Json::parse("{}")), CheckFailure);
  Json no_phases = make_record("aaa", 1.0, 2e6);
  no_phases.set("phases", Json::array());
  EXPECT_THROW(validate_run_json(no_phases), CheckFailure);
  Json bad_owned = make_record("aaa", 1.0, 2e6);
  Json mem = bad_owned.at("mem");
  Json owned = Json::object();
  owned.set("eval.fft_chunk_bytes", "lots");
  mem.set("owned", owned);
  bad_owned.set("mem", mem);
  EXPECT_THROW(validate_run_json(bad_owned), CheckFailure);
}

TEST(RunRecord, OldShapeHistoryStillReadsAndAnalyzes) {
  // A history written before owner gauges, then one new-shape record.
  // The old lines read, the trend gate compares the shared fields, and
  // the retired per-phase fields neither gate nor warn (the fault
  // count quadruples between the old records and nothing fires).
  const std::string path = ::testing::TempDir() + "pkifmm_old_history.jsonl";
  std::remove(path.c_str());
  for (int i = 0; i < 3; ++i)
    append_run_record(path, make_old_record("old" + std::to_string(i), 1.0,
                                            i == 2 ? 8e6 : 2e6));
  append_run_record(path, make_record("new", 1.05, 4e6));
  const std::vector<Json> back = read_run_history(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back[0].at("hw_source").as_string(), "fallback");

  const Json r = trend_analyze(back);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("window").as_int(), 3);
  EXPECT_GT(r.at("checked").as_int(), 0);
  EXPECT_EQ(r.at("regressions").size(), 0u);
  EXPECT_EQ(r.at("warnings").size(), 0u);  // no reference for mem.owned

  // An old-shape record as the newest one analyzes too.
  const Json r2 = trend_analyze({back[0], back[1], back[2]});
  EXPECT_TRUE(r2.at("ok").as_bool());
  EXPECT_EQ(r2.at("warnings").size(), 0u);
}

TEST(RunRecord, FromRealSummaryUnderFallback) {
  // Drive a Recorder the way comm::Runtime does (spans closed, owner
  // gauges set, the epoch gauge added), summarize, and condense into a
  // run record.
  Recorder rec(0);
  {
    auto eval = rec.span("eval");
    rec.add_flops(1000000);
    rec.add_sent(10, 4096);
  }
  rec.gauge_set("mem.eval.fft_chunk_bytes", 3e6);
  rec.gauge_set("sched.workers", 2.0);
  RankMetrics m = rec.snapshot();
  m.gauges["obs.epoch"] = rec.epoch();
  const Json summary = summarize_runs("mini", {{m}});

  Json config = Json::object();
  config.set("p", 1);
  const Json record = run_record_from_summary(summary, "mini", "sha1", config);
  validate_run_json(record);
  EXPECT_FALSE(record.contains("hw_source"));
  EXPECT_EQ(record.at("config").at("p").as_int(), 1);
  const Json& eval = record.at("phases").at("eval");
  EXPECT_DOUBLE_EQ(eval.at("flops").as_double(), 1000000.0);
  EXPECT_EQ(eval.keys().size(), 5u);  // wall cpu flops msgs_sent bytes_sent
  // Only the mem.* gauges are owned bytes; "mem." is dropped.
  const Json& owned = record.at("mem").at("owned");
  EXPECT_EQ(owned.keys().size(), 1u);
  EXPECT_DOUBLE_EQ(owned.at("eval.fft_chunk_bytes").as_double(), 3e6);
  EXPECT_GT(record.at("mem").at("peak_rss_bytes").as_double(), 0.0);
}

// ------------------------------------------------------------- trend

TEST(Trend, TooShortHistoryIsOk) {
  const Json r = trend_analyze({make_record("a", 1.0, 2e6)});
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("checked").as_int(), 0);
  EXPECT_EQ(r.at("window").as_int(), 0);
}

TEST(Trend, EmptyHistoryIsOkWithNoWindow) {
  const Json r = trend_analyze({});
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("checked").as_int(), 0);
  EXPECT_EQ(r.at("window").as_int(), 0);
  EXPECT_EQ(r.at("newest_sha").as_string(), "");
  EXPECT_EQ(r.at("regressions").size(), 0u);
}

TEST(Trend, StableTrajectoryPasses) {
  std::vector<Json> hist;
  for (int i = 0; i < 5; ++i) {
    std::string sha = "s";
    sha.append(std::to_string(i));
    hist.push_back(make_record(sha, 1.0 + 0.01 * i, 2e6));
  }
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("regressions").size(), 0u);
  EXPECT_EQ(r.at("newest_sha").as_string(), "s4");
}

TEST(Trend, DetectsInjectedWallRegression) {
  // Four steady records, then the newest at 3x the median wall time —
  // well past the 1.6x gate. This is the synthetic-regression
  // acceptance check for tools/pkifmm_trend.
  std::vector<Json> hist;
  for (int i = 0; i < 4; ++i)
    hist.push_back(make_record("base", 1.0, 2e6));
  hist.push_back(make_record("bad", 3.0, 2e6));
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_GE(r.at("regressions").size(), 1u);
  bool found = false;
  for (const Json& f : r.at("regressions").items())
    if (f.at("phase").as_string() == "eval" &&
        f.at("metric").as_string() == "wall") {
      found = true;
      EXPECT_NEAR(f.at("ratio").as_double(), 3.0, 0.2);
      EXPECT_DOUBLE_EQ(f.at("limit").as_double(), 1.6);
    }
  EXPECT_TRUE(found);
}

TEST(Trend, OwnedMemoryGrowthOnlyWarns) {
  // Seeded allocation regression: the evaluator's FFT chunk footprint
  // doubles in the newest record, wall stays flat. At the default 1.5
  // ratio it warns, never hard-fails; --strict makes it fail; a 1.3x
  // growth stays under the ratio.
  std::vector<Json> hist;
  for (int i = 0; i < 4; ++i) hist.push_back(make_record("base", 1.0, 4e6));
  hist.push_back(make_record("grown", 1.0, 8e6));
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("regressions").size(), 0u);
  ASSERT_EQ(r.at("warnings").size(), 1u);
  const Json& w = r.at("warnings").items()[0];
  EXPECT_EQ(w.at("phase").as_string(), "mem.owned");
  EXPECT_EQ(w.at("metric").as_string(), "eval.fft_chunk_bytes");
  EXPECT_DOUBLE_EQ(w.at("reference").as_double(), 4e6);
  EXPECT_DOUBLE_EQ(w.at("ratio").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(w.at("limit").as_double(), 1.5);

  TrendOptions strict;
  strict.strict = true;
  EXPECT_FALSE(trend_analyze(hist, strict).at("ok").as_bool());

  hist.back() = make_record("mild", 1.0, 1.3 * 4e6);
  const Json mild = trend_analyze(hist, strict);
  EXPECT_TRUE(mild.at("ok").as_bool());
  EXPECT_EQ(mild.at("warnings").size(), 0u);

  // Below the 1e6 floor a growth is noise, however large.
  for (Json& rec : hist) rec = make_record("tiny", 1.0, 1e5);
  hist.back() = make_record("tiny", 1.0, 9e5);
  EXPECT_EQ(trend_analyze(hist, strict).at("warnings").size(), 0u);
}

TEST(Trend, MissingPhaseIsARegression) {
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) hist.push_back(make_record("base", 1.0, 2e6));
  Json gutted = make_record("bad", 1.0, 2e6);
  gutted.set("phases", Json::object());  // "eval" vanished
  hist.push_back(gutted);
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_EQ(r.at("regressions").size(), 1u);
  EXPECT_EQ(r.at("regressions").items()[0].at("metric").as_string(),
            "missing");
}

/// `rec` with every hard metric of every phase multiplied by `k`.
Json scaled(Json rec, double k) {
  Json phases = Json::object();
  for (const std::string& name : rec.at("phases").keys()) {
    Json p = rec.at("phases").at(name);
    for (const char* f : {"wall", "cpu", "flops", "msgs_sent", "bytes_sent"})
      p.set(f, p.at(f).as_double() * k);
    phases.set(name, p);
  }
  rec.set("phases", phases);
  return rec;
}

/// `rec` with config key `key` set to `value`.
Json with_config(Json rec, const std::string& key, const Json& value) {
  Json config = rec.at("config");
  config.set(key, value);
  rec.set("config", config);
  return rec;
}

TEST(Trend, InflatedRecordFailsAllFiveHardMetrics) {
  // Everything doubled: wall/cpu blow the 1.6x time bound, flops/msgs/
  // bytes blow the 1.25x work bound -> exactly five regressions.
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) hist.push_back(make_record("base", 1.0, 2e6));
  hist.push_back(scaled(make_record("slow", 1.0, 2e6), 2.0));
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  const auto& regressions = r.at("regressions").items();
  ASSERT_EQ(regressions.size(), 5u);
  std::map<std::string, double> limits;
  for (const Json& f : regressions) {
    EXPECT_EQ(f.at("phase").as_string(), "eval");
    EXPECT_DOUBLE_EQ(f.at("ratio").as_double(), 2.0);
    limits[f.at("metric").as_string()] = f.at("limit").as_double();
  }
  EXPECT_EQ(limits, (std::map<std::string, double>{{"wall", 1.6},
                                                   {"cpu", 1.6},
                                                   {"flops", 1.25},
                                                   {"msgs_sent", 1.25},
                                                   {"bytes_sent", 1.25}}));
}

TEST(Trend, IncomparableReferencesAreIgnored) {
  // Three comparable references, then one from another rank count (or
  // another config) whose values are a fifth of the rest. Were it a
  // reference, the newest record would read as a 5x regression on
  // every metric; it is skipped, and the window counts only the three.
  const Json base = with_config(make_record("base", 1.0, 2e6), "dist",
                                Json("ellipsoid"));
  Json other_p = scaled(base, 0.2);
  other_p.set("nranks", 8);
  const Json other_dist = with_config(scaled(base, 0.2), "dist",
                                      Json("uniform"));
  for (const Json& odd : {other_p, other_dist}) {
    const std::vector<Json> hist = {base, base, base, odd, base};
    const Json r = trend_analyze(hist);
    EXPECT_TRUE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("regressions").size(), 0u);
    EXPECT_EQ(r.at("window").as_int(), 3);
    EXPECT_EQ(r.at("references"),
              Json::parse("[0, 1, 2]"));

    // With a one-record window the reference is the newest comparable
    // record, not the odd one just before the fresh record.
    TrendOptions one;
    one.window = 1;
    const Json r1 = trend_analyze(hist, one);
    EXPECT_TRUE(r1.at("ok").as_bool());
    EXPECT_EQ(r1.at("references"), Json::parse("[2]"));
  }
  // Nothing comparable at all: nothing to gate against.
  const Json none = trend_analyze({other_p, base});
  EXPECT_TRUE(none.at("ok").as_bool());
  EXPECT_EQ(none.at("window").as_int(), 0);
  EXPECT_EQ(none.at("checked").as_int(), 0);
}

TEST(Trend, RecordWithAnExtraConfigKeyIsStillAReference) {
  // Older records carry "exec_mode", newer ones "health": only the keys
  // both carry are compared, so the old record still references the new
  // one, and a 3x wall regression against it is caught.
  Json old_rec = with_config(make_record("old", 1.0, 2e6), "p", Json(4));
  old_rec = with_config(old_rec, "exec_mode", Json("bulk"));
  Json fresh = with_config(make_record("new", 3.0, 2e6), "p", Json(4));
  fresh = with_config(fresh, "health", Json(false));
  const Json r = trend_analyze({old_rec, fresh});
  EXPECT_EQ(r.at("window").as_int(), 1);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_GE(r.at("regressions").size(), 1u);
  EXPECT_EQ(r.at("regressions").items()[0].at("metric").as_string(), "wall");
}

TEST(Trend, PhaseTheNewestReferenceHasIsMissing) {
  // Only the newest reference ran "eval.vli.mac"; the fresh record
  // lacks it. The older references never had it, yet it is missing.
  // "eval.old" was run only by the oldest reference and was already
  // gone from the newest one, so losing it is not a regression.
  auto with_phase = [](Json rec, const std::string& name) {
    Json phases = rec.at("phases");
    phases.set(name, rec.at("phases").at("eval"));
    rec.set("phases", phases);
    return rec;
  };
  std::vector<Json> hist;
  hist.push_back(with_phase(make_record("oldest", 1.0, 2e6), "eval.old"));
  for (int i = 0; i < 2; ++i) hist.push_back(make_record("base", 1.0, 2e6));
  hist.push_back(with_phase(make_record("newest_ref", 1.0, 2e6),
                            "eval.vli.mac"));
  hist.push_back(make_record("fresh", 1.0, 2e6));
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_EQ(r.at("regressions").size(), 1u);
  const Json& f = r.at("regressions").items()[0];
  EXPECT_EQ(f.at("phase").as_string(), "eval.vli.mac");
  EXPECT_EQ(f.at("metric").as_string(), "missing");
  EXPECT_DOUBLE_EQ(f.at("reference").as_double(), 1.0);
}

TEST(Trend, FloorsSuppressNoiseOnTinyPhases) {
  // Below min_seconds the wall ratio is ignored, however large.
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) hist.push_back(make_record("base", 1e-3, 2e6));
  Json fresh = make_record("fresh", 1e-3, 2e6);
  Json phases = fresh.at("phases");
  Json eval = phases.at("eval");
  eval.set("wall", 4e-2);  // 40x, but still under the 5e-2 s floor
  eval.set("flops", 2e8);
  phases.set("eval", eval);
  fresh.set("phases", phases);
  hist.push_back(fresh);
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
}

}  // namespace
}  // namespace pkifmm::obs

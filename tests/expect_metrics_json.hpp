#pragma once
/// \file expect_metrics_json.hpp
/// \brief Test helper: asserts that a metrics.json document holds
/// exactly what a set of RankMetrics snapshots recorded.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace pkifmm::obs {

/// Every counter, gauge, span field (tid included), flow row and flow
/// phase of `ranks` is in `doc`, in the pkifmm.metrics.v1 layout.
inline void expect_metrics_json(const Json& doc,
                                const std::vector<RankMetrics>& ranks) {
  ASSERT_EQ(doc.at("nranks").as_int(),
            static_cast<std::int64_t>(ranks.size()));
  const auto& jranks = doc.at("ranks").items();
  ASSERT_EQ(jranks.size(), ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const Json& jr = jranks[r];
    const RankMetrics& rm = ranks[r];
    EXPECT_EQ(jr.at("rank").as_int(), rm.rank);
    for (const auto& [field, values] :
         {std::pair{"counters", &rm.counters}, {"gauges", &rm.gauges}}) {
      const Json& jm = jr.at(field);
      EXPECT_EQ(jm.keys().size(), values->size()) << field;
      for (const auto& [name, v] : *values)
        EXPECT_EQ(jm.at(name).as_double(), v) << field << " " << name;
    }

    const auto& spans = jr.at("spans").items();
    ASSERT_EQ(spans.size(), rm.spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Json& js = spans[i];
      const SpanEvent& e = rm.spans[i];
      EXPECT_EQ(js.at("name").as_string(), e.name);
      EXPECT_EQ(js.at("start").as_double(), e.start) << e.name;
      EXPECT_EQ(js.at("wall").as_double(), e.wall) << e.name;
      EXPECT_EQ(js.at("cpu").as_double(), e.cpu) << e.name;
      EXPECT_EQ(js.at("flops").as_int(), static_cast<std::int64_t>(e.flops));
      EXPECT_EQ(js.at("msgs").as_int(), static_cast<std::int64_t>(e.msgs));
      EXPECT_EQ(js.at("bytes").as_int(), static_cast<std::int64_t>(e.bytes));
      EXPECT_EQ(js.at("parent").as_int(), e.parent) << e.name;
      EXPECT_EQ(js.at("depth").as_int(), e.depth) << e.name;
      EXPECT_EQ(js.at("tid").as_int(), e.tid) << e.name;
    }

    if (rm.flows.empty() && rm.flow_phases.empty()) {
      EXPECT_FALSE(jr.contains("flows"));
      continue;
    }
    const auto& flows = jr.at("flows").items();
    ASSERT_EQ(flows.size(), rm.flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowEvent& e = rm.flows[i];
      const std::int64_t ints[] = {e.kind, e.peer, e.tag,
                                   e.seq,  e.phase, e.bytes};
      for (std::size_t k = 0; k < 6; ++k)
        EXPECT_EQ(flows[i].at(k).as_int(), ints[k]) << "flow " << i;
      EXPECT_EQ(flows[i].at(std::size_t{6}).as_double(), e.t0);
      EXPECT_EQ(flows[i].at(std::size_t{7}).as_double(), e.t1);
    }
    const auto& phases = jr.at("flow_phases").items();
    ASSERT_EQ(phases.size(), rm.flow_phases.size());
    for (std::size_t i = 0; i < phases.size(); ++i)
      EXPECT_EQ(phases[i].as_string(), rm.flow_phases[i]);
  }
}

}  // namespace pkifmm::obs

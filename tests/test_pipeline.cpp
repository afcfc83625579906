/// Phase-level integration tests: each stage of the FMM pipeline is
/// checked against the exact contribution it is supposed to represent,
/// so a regression pinpoints the faulty translation rather than just
/// failing end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/direct.hpp"
#include "core/evaluator.hpp"
#include "core/fmm.hpp"
#include "core/surface.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;
using octree::PointRec;

struct Pipeline {
  octree::Let let;
  std::unique_ptr<Evaluator> eval;
};

/// Potential at probe points from a set of sources (exact).
std::vector<double> direct_at(const kernels::Kernel& k,
                              std::span<const double> probes,
                              std::span<const PointRec> sources) {
  std::vector<double> spos, sden;
  for (const auto& s : sources) {
    spos.insert(spos.end(), s.pos, s.pos + 3);
    sden.push_back(s.den[0]);
  }
  std::vector<double> pot(probes.size() / 3, 0.0);
  k.direct(probes, spos, sden, pot);
  return pot;
}

/// After S2U + U2U + reduce, the upward density of EVERY octant must
/// reproduce the exact field of the points it contains, evaluated
/// outside its colleague zone. Run in parallel so the reduce-scatter
/// completeness is part of what is being checked.
TEST(Upward, DensitiesReproduceFarFieldAtAllLevels) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 15;
  const Tables tables(kernel, opts);

  comm::Runtime::run(4, [&](comm::RankCtx& ctx) {
    octree::BuildParams bp;
    bp.max_points_per_leaf = 15;
    auto pts = octree::generate_points(Distribution::kEllipsoid, 1500,
                                       ctx.rank(), 4, 1, 61);
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    Evaluator eval(tables, let, ctx);
    eval.s2u();
    eval.u2u();
    eval.comm_reduce();

    // All points, for the exact reference.
    std::vector<PointRec> owned;
    for (const auto& nd : let.nodes)
      if (nd.owned)
        for (const auto& pt : let.points_of(nd)) owned.push_back(pt);
    auto all = ctx.comm.allgatherv_concat(std::span<const PointRec>(owned));

    // Check a sample of octants this rank uses (targets and V members).
    Rng rng(7, ctx.rank());
    int checked = 0;
    for (std::size_t i = 0; i < let.nodes.size() && checked < 25; ++i) {
      const auto& nd = let.nodes[i];
      const bool used = nd.target || !let.v.of(i).empty();
      if (!used || nd.key.level < 2) continue;
      if (rng.uniform() > 0.2) continue;

      const auto geom = morton::box_geometry(nd.key);
      // A probe 4 box-sizes away along a random-ish diagonal, kept in
      // bounds by construction of the offset.
      double probe[3];
      for (int c = 0; c < 3; ++c) {
        const double off = 8.0 * geom.half_width;
        probe[c] = geom.center[c] + (geom.center[c] < 0.5 ? off : -off);
      }

      // u-density field at the probe.
      const auto ue = surface_points(tables.n(), kUpwardEquivRadius,
                                     geom.center, geom.half_width);
      std::vector<double> approx(1, 0.0);
      kernel.direct(std::span<const double>(probe, 3), ue,
                    eval.u().subspan(i * tables.eq_len(), tables.eq_len()),
                    approx);

      // Exact field of the points contained in this octant.
      std::vector<PointRec> contained;
      for (const auto& pt : all)
        if (pt.key_bits >= morton::range_begin(nd.key) &&
            pt.key_bits < morton::range_end(nd.key))
          contained.push_back(pt);
      const auto exact =
          direct_at(kernel, std::span<const double>(probe, 3), contained);

      if (std::abs(exact[0]) < 1e-10) continue;  // empty/cancelling octant
      EXPECT_NEAR(approx[0], exact[0], 2e-4 * std::abs(exact[0]) + 1e-10)
          << morton::to_string(nd.key) << " rank " << ctx.rank();
      ++checked;
    }
    EXPECT_GT(checked, 4);
  });
}

/// On one rank: the far-field part delivered by D2T must equal the
/// exact potential of all sources except the U-list sources and the
/// W-members' subtrees (which arrive via ULI and WLI respectively).
TEST(Downward, D2TDeliversExactlyTheFarField) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 8;  // high accuracy so the split is crisp
  opts.max_points_per_leaf = 20;
  const Tables tables(kernel, opts);

  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    octree::BuildParams bp;
    bp.max_points_per_leaf = 20;
    auto pts = octree::generate_points(Distribution::kEllipsoid, 1000, 0, 1, 1,
                                       63);
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    Evaluator eval(tables, let, ctx);
    eval.s2u();
    eval.u2u();
    eval.vli();
    eval.xli();
    eval.downward();
    // Only D2T: potential() then contains the far-field part alone.
    eval.d2t();

    int checked = 0;
    for (std::size_t i = 0; i < let.nodes.size() && checked < 8; ++i) {
      const auto& nd = let.nodes[i];
      if (!(nd.owned && nd.global_leaf) || nd.point_count < 3) continue;

      // Near sources: U-list points + W-member subtree points. W
      // members may be internal, so gather the points of all global
      // leaves they contain.
      std::set<std::uint64_t> near;
      for (auto ui : let.u.of(i))
        for (const auto& pt : let.points_of(let.nodes[ui]))
          near.insert(pt.gid);
      for (auto wi : let.w.of(i)) {
        const auto& wkey = let.nodes[wi].key;
        for (const auto& src : let.nodes) {
          if (!src.global_leaf || !morton::contains(wkey, src.key)) continue;
          for (const auto& pt : let.points_of(src)) near.insert(pt.gid);
        }
      }
      std::vector<PointRec> far;
      for (const auto& pt : let.points)
        if (!near.count(pt.gid)) far.push_back(pt);

      std::vector<double> probes;
      for (const auto& pt : let.points_of(nd))
        probes.insert(probes.end(), pt.pos, pt.pos + 3);
      const auto exact = direct_at(kernel, probes, far);
      std::vector<double> approx(nd.point_count);
      for (std::uint32_t k = 0; k < nd.point_count; ++k)
        approx[k] = eval.potential()[nd.point_begin + k];
      EXPECT_LT(rel_l2_error(approx, exact), 1e-5)
          << morton::to_string(nd.key);
      ++checked;
    }
    EXPECT_GT(checked, 3);
  });
}

/// ULI alone must equal the exact near-field (U-list) contribution —
/// this is exact arithmetic, not an expansion, so the tolerance is
/// machine precision.
TEST(Direct, UliAloneEqualsNearFieldExactly) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 25;
  const Tables tables(kernel, opts);

  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    octree::BuildParams bp;
    bp.max_points_per_leaf = 25;
    auto pts = octree::generate_points(Distribution::kUniform, 1000,
                                       ctx.rank(), 2, 1, 65);
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    Evaluator eval(tables, let, ctx);
    eval.uli();  // nothing else

    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const auto& nd = let.nodes[i];
      if (!(nd.owned && nd.global_leaf)) continue;
      std::vector<PointRec> near;
      for (auto ui : let.u.of(i))
        for (const auto& pt : let.points_of(let.nodes[ui])) near.push_back(pt);
      std::vector<double> probes;
      for (const auto& pt : let.points_of(nd))
        probes.insert(probes.end(), pt.pos, pt.pos + 3);
      const auto exact = direct_at(kernel, probes, near);
      for (std::uint32_t k = 0; k < nd.point_count; ++k)
        EXPECT_NEAR(eval.potential()[nd.point_begin + k], exact[k],
                    1e-12 * (std::abs(exact[k]) + 1.0));
    }
  });
}

}  // namespace
}  // namespace pkifmm::core

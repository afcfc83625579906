/// \file fmm_bench.cpp
/// \brief Wall-clock benchmark of the public pkifmm API, driven from
/// outside: core::Tables, ParallelFmm::{setup, set_densities, evaluate,
/// update_points} (through core::TimeStepper) on three workloads that
/// each load a different layer. See perfbench/README.md for the
/// workloads, the metrics and the layer -> metric -> workload map.
///
///   perfbench_fmm --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
///
/// A run sets the problem up kSetups times from scratch (Tables
/// construction + setup() + first evaluate(), the time to first
/// result); the first instance also loops the workload's iteration for
/// `--seconds` before it is torn down. With --trace 0 it prints the end-to-end
/// metrics; with --trace 1 every other iteration is traced (one span
/// per public call, the program's own phase spans hung underneath)
/// and it prints the per-layer metrics plus the tracing overhead
/// against the untraced iterations. The last stdout line is one JSON
/// object {"correct", "attempted", "failed", "metrics"}; the line
/// before it, `perfbench-counts {...}`, holds the exact per-iteration
/// counts the steadiness mode of run.py compares across runs.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "core/surface.hpp"
#include "core/timestep.hpp"
#include "fft/fft.hpp"
#include "la/matrix.hpp"
#include "la/svd.hpp"
#include "obs/hw.hpp"
#include "obs/json.hpp"
#include "octree/points.hpp"
#include "simd/simd.hpp"
#include "tracer.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

using namespace pkifmm;
using perfbench::Tracer;

namespace {

struct Workload {
  const char* name;
  octree::Distribution dist;
  std::uint64_t n;
  int p;        ///< simulated ranks
  int threads;  ///< task-pool threads per rank
  int q;        ///< max points per leaf
  int surface_n;
  bool timestep;     ///< loop is TimeStepper::step() + evaluate()
  double churn;      ///< TimeStepper move fraction
  double err_bound;  ///< accepted relative L2 error against direct sum
};

// All Laplace, 4 threads in total. The error bounds sit ~10x above the
// error measured for the surface order (n=6: 1-4e-6, n=4: 2-4e-4; it
// varies that much with the seed and the density draw).
constexpr Workload kWorkloads[] = {
    {"vlist-ellipsoid", octree::Distribution::kEllipsoid, 100000, 1, 4, 60, 6,
     false, 0.0, 2e-5},
    {"ulist-uniform", octree::Distribution::kUniform, 200000, 4, 1, 1000, 6,
     false, 0.0, 2e-5},
    {"timestep-cluster", octree::Distribution::kCluster, 100000, 4, 1, 60, 4,
     true, 0.1, 4e-3},
};

/// Fresh set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha;
  std::string src_digest;

  explicit Args(const Cli& cli)
      : workload(cli.get("workload", "")),
        seed(static_cast<std::uint64_t>(cli.get_int("seed", 1))),
        seconds(cli.get_double("seconds", 10.0)),
        trace(cli.get_bool("trace", false)),
        out_dir(cli.get("out-dir", ".perfbench_out")),
        git_sha(cli.get("git-sha", "unknown")),
        src_digest(cli.get("src-digest", "unknown")) {
    if (!(seconds > 0.0))
      throw std::invalid_argument("--seconds must be positive");
  }
};

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPUs this process may run on — what `nproc` prints.
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Cumulative per-rank tables the program keeps; the difference of two
/// snapshots is what one call did.
struct Snap {
  std::map<std::string, double> wall;
  std::map<std::string, std::uint64_t> flops;
  std::map<std::string, comm::CostTracker::Counters> comm;
  double busy = 0.0;      ///< sum of sched.busy.w<k>
  double lifetime = 0.0;  ///< sched.lifetime_seconds

  static Snap of(comm::RankCtx& ctx) {
    Snap s;
    s.wall = ctx.timer.phases();
    s.flops = ctx.flops.phases();
    s.comm = ctx.comm.cost().phases();
    for (const auto& [name, v] : ctx.rec.metrics().counters)
      if (name.rfind("sched.busy.w", 0) == 0) s.busy += v;
    s.lifetime = ctx.rec.counter("sched.lifetime_seconds");
    return s;
  }
};

double wall_in(const Snap& a, const Snap& b, const std::string& phase) {
  const auto get = [&](const Snap& s) {
    auto it = s.wall.find(phase);
    return it == s.wall.end() ? 0.0 : it->second;
  };
  return get(b) - get(a);
}

double flops_in(const Snap& a, const Snap& b, const std::string& prefix) {
  double d = 0.0;
  for (const auto& [name, v] : b.flops) {
    if (name.rfind(prefix, 0) != 0) continue;
    auto it = a.flops.find(name);
    d += static_cast<double>(v - (it == a.flops.end() ? 0 : it->second));
  }
  return d;
}

/// Messages and bytes sent in phases starting with `prefix`.
std::pair<double, double> sent_in(const Snap& a, const Snap& b,
                                  const std::string& prefix) {
  double msgs = 0.0, bytes = 0.0;
  for (const auto& [name, c] : b.comm) {
    if (name.rfind(prefix, 0) != 0) continue;
    comm::CostTracker::Counters c0;
    if (auto it = a.comm.find(name); it != a.comm.end()) c0 = it->second;
    msgs += static_cast<double>(c.msgs_sent - c0.msgs_sent);
    bytes += static_cast<double>(c.bytes_sent - c0.bytes_sent);
  }
  return {msgs, bytes};
}

/// Hangs the program's own rank-thread phase spans recorded in
/// [first, last) of its span list under the benchmark span `parent`.
void adopt_program_spans(Tracer& tr, const obs::Recorder& rec,
                         std::size_t first, std::size_t last, int parent,
                         int iter) {
  const auto& spans = rec.metrics().spans;
  std::unordered_map<std::int32_t, int> local;
  for (std::size_t i = first; i < last; ++i) {
    const obs::SpanEvent& e = spans[i];
    if (e.tid != 0) continue;  // pool worker bursts, not calls
    perfbench::Span s;
    s.name = e.name;
    s.start = rec.epoch() + e.start;
    s.end = s.start + e.wall;
    auto it = local.find(e.parent);
    s.parent = it == local.end() ? parent : it->second;
    s.iter = iter;
    local[static_cast<std::int32_t>(i)] = static_cast<int>(tr.spans().size());
    tr.add(std::move(s));
  }
}

using Metrics = std::map<std::string, double>;

/// Exact counts of one call on one rank, indexed by Count. Summed over
/// ranks they must repeat exactly from run to run on the same seed.
/// setup.* covers the full set-up and the incremental update alike.
using Counts = std::vector<double>;
enum Count { kFlops, kEvalMsgs, kEvalBytes, kSetupMsgs, kSetupBytes, kLeaves };
constexpr const char* kCountNames[] = {"flops",      "eval.msgs",
                                       "eval.bytes", "setup.msgs",
                                       "setup.bytes", "leaves"};

/// One timed call (a set-up, or one iteration of the loop) on one rank.
struct CallRecord {
  bool ok = true;  ///< every potential finite
  std::size_t results = 0;
  Counts counts;
  Metrics layer;  ///< traced calls only
};

/// One iteration's owned points and potentials on one rank, for the
/// direct-sum check.
struct Final {
  std::vector<octree::PointRec> points;
  core::ParallelFmm::Result result;
};

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

std::size_t owned_leaves(const octree::Let& let) {
  std::size_t n = 0;
  for (const octree::LetNode& node : let.nodes)
    if (node.owned && node.global_leaf) ++n;
  return n;
}

Counts counts_of(const Snap& a, const Snap& b, const octree::Let& let) {
  const auto [em, eb] = sent_in(a, b, "eval.");
  const auto [sm, sb] = sent_in(a, b, "setup.");
  return {flops_in(a, b, ""), em, eb, sm, sb,
          static_cast<double>(owned_leaves(let))};
}

/// Seconds per call of f: the median of 7 batches, each batch long
/// enough (>= 20 ms) that the clock's resolution does not matter.
template <class F>
double seconds_per_call(F&& f) {
  int reps = 1;
  for (;;) {
    const double t0 = obs::wall_seconds();
    for (int r = 0; r < reps; ++r) f();
    if (obs::wall_seconds() - t0 >= 0.02 || reps >= (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < 7; ++b) {
    const double t0 = obs::wall_seconds();
    for (int r = 0; r < reps; ++r) f();
    per.push_back((obs::wall_seconds() - t0) / reps);
  }
  return median(per);
}

/// Substrate kernels at the workload's sizes (fft, kernels/simd, la),
/// single-threaded on the main thread.
Metrics substrate_metrics(const Workload& w, const kernels::Kernel& kern,
                          const core::Tables& tables, double leaf_pop) {
  Metrics m;
  Rng rng(11);
  {
    const fft::Fft3d& plan = tables.fft();
    std::vector<fft::Complex> vol(plan.volume());
    for (auto& v : vol) v = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    m["fft.transform_us"] = 1e6 * seconds_per_call([&] {
      plan.forward(vol);
      plan.inverse(vol);
    });
  }
  {
    // One 16-frequency chunk of the chunk-major V-list sweep.
    constexpr std::size_t kChunk = 16, kSlots = 256, kEntries = 1024;
    std::vector<fft::Complex> g(kChunk), f(kSlots * kChunk), acc(kSlots * kChunk);
    for (auto& v : g) v = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    for (auto& v : f) v = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    std::vector<std::int32_t> fidx(kEntries), aidx(kEntries);
    for (std::size_t e = 0; e < kEntries; ++e) {
      fidx[e] = static_cast<std::int32_t>(rng.uniform_u64(kSlots));
      aidx[e] = static_cast<std::int32_t>(rng.uniform_u64(kSlots));
    }
    const double t = seconds_per_call([&] {
      fft::pointwise_mac_chunked(g.data(), kChunk, f.data(), acc.data(), fidx,
                                 aidx);
    });
    m["fft.mac_gflops"] = 8.0 * kChunk * kEntries / t * 1e-9;
  }
  {
    // One leaf against its ~27 near neighbours, as the U-list does.
    const std::size_t nt = std::max<std::size_t>(1, std::lround(leaf_pop));
    const std::size_t ns = 27 * nt;
    std::vector<double> trg(3 * nt), src(3 * ns), den(ns), pot(nt);
    for (auto& v : trg) v = rng.uniform();
    for (auto& v : src) v = rng.uniform(-1.0, 2.0);
    for (auto& v : den) v = rng.uniform(-1, 1);
    std::uint64_t flops = 0;
    const double t = seconds_per_call([&] {
      std::fill(pot.begin(), pot.end(), 0.0);
      flops = kern.direct(trg, src, den, pot);
    });
    m["kernels.direct_gflops"] = static_cast<double>(flops) / t * 1e-9;
  }
  {
    const std::array<double, 3> c = {0, 0, 0};
    const auto ue = core::surface_points(w.surface_n, 1.05, c, 0.5);
    const auto uc = core::surface_points(w.surface_n, 2.95, c, 0.5);
    const la::Matrix k = kern.assemble(uc, ue);
    m["la.pinv_s"] = seconds_per_call([&] { (void)la::pinv(k); });
  }
  {
    const std::size_t len = static_cast<std::size_t>(tables.eq_len());
    constexpr std::size_t kCols = 256;
    la::Matrix a(len, len);
    for (std::size_t r = 0; r < len; ++r)
      for (double& v : a.row(r)) v = rng.uniform(-1, 1);
    std::vector<double> b(len * kCols), c(len * kCols, 0.0);
    for (auto& v : b) v = rng.uniform(-1, 1);
    const double t = seconds_per_call([&] { la::gemm_acc(a, b, c, kCols); });
    m["la.gemm_gflops"] = static_cast<double>(la::gemm_flops(a, kCols)) / t * 1e-9;
  }
  return m;
}

/// A metric value with its unit; a value that cannot be measured (NaN
/// on a failed run) is reported as -1.
obs::Json metric(double v, const char* unit) {
  obs::Json j = obs::Json::object();
  j.set("value", std::isfinite(v) ? v : -1.0);
  j.set("unit", unit);
  return j;
}

/// Highest percentile with at least ten samples beyond it, or -1.
int tail_percentile(std::size_t n) {
  if (n <= 10) return -1;
  return static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / double(n))));
}

double percentile(std::vector<double> v, int pct) {
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

/// Max over ranks of each metric of one call, then the median of those
/// over the calls — "per call, slowest rank".
Metrics max_then_median(const std::vector<std::vector<Metrics>>& per_call) {
  std::map<std::string, std::vector<double>> vals;
  for (const auto& ranks : per_call) {
    Metrics mx;
    for (const Metrics& r : ranks)
      for (const auto& [k, v] : r) {
        const auto [it, fresh] = mx.emplace(k, v);
        if (!fresh) it->second = std::max(it->second, v);
      }
    for (const auto& [k, v] : mx) vals[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : vals) out[k] = median(v);
  return out;
}

/// Relative L2 error of the potentials in `snap` against direct
/// summation over all its points, at the targets whose hashed gid falls
/// in a fixed 1-in-`stride` sample. NaN if points or potentials are
/// missing.
double rel_err_of(const kernels::Kernel& kernel, const std::vector<Final>& snap,
                  std::uint64_t n, std::uint64_t stride, int threads) {
  std::vector<octree::PointRec> all;
  std::unordered_map<std::uint64_t, double> pot;
  for (const Final& f : snap) {
    all.insert(all.end(), f.points.begin(), f.points.end());
    for (std::size_t i = 0; i < f.result.gids.size(); ++i)
      pot.emplace(f.result.gids[i], f.result.potentials[i]);
  }
  if (all.size() != n || pot.size() != n) return NAN;
  std::vector<octree::PointRec> sample;
  for (const auto& pt : all)
    if (SplitMix64(pt.gid).next() % stride == 0) sample.push_back(pt);
  std::vector<double> ref(sample.size());
  std::vector<std::thread> workers;
  const std::size_t chunk = (sample.size() + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const std::size_t lo = std::min(sample.size(), t * chunk);
    const std::size_t hi = std::min(sample.size(), lo + chunk);
    workers.emplace_back([&, lo, hi] {
      const auto r = core::direct_local(
          kernel, std::span(sample).subspan(lo, hi - lo), all);
      std::copy(r.begin(), r.end(), ref.begin() + lo);
    });
  }
  for (auto& t : workers) t.join();
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double d = pot.at(sample[i].gid) - ref[i];
    err2 += d * d;
    ref2 += ref[i] * ref[i];
  }
  return std::sqrt(err2 / ref2);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed;
  try {
    parsed.emplace(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_fmm: %s\n", e.what());
    return 2;
  }
  const Args& args = *parsed;
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wp = &w;
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench_fmm: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const int total_threads = w.p * w.threads;

  // Thread guard: on a smaller host the pool would be clamped and the
  // run would silently measure a different program.
  const int nproc = affinity_cpus();
  if (total_threads > nproc ||
      util::recommended_workers(w.threads, w.p, true) != w.threads) {
    std::fprintf(stderr,
                 "perfbench_fmm: workload %s needs %d ranks x %d threads but "
                 "this host offers %d CPUs\n",
                 w.name, w.p, w.threads, nproc);
    return 3;
  }

  obs::Json info = obs::Json::object();
  info.set("workload", w.name);
  info.set("seed", static_cast<std::uint64_t>(args.seed));
  info.set("seconds", args.seconds);
  info.set("trace", args.trace);
  info.set("nproc", nproc);
  info.set("simd", simd::tier_name(simd::active_tier()));
  info.set("build", PERFBENCH_BUILD_TYPE);
  info.set("flags", PERFBENCH_CXX_FLAGS);
  info.set("compiler", __VERSION__);
  info.set("git", args.git_sha);
  info.set("src", args.src_digest);
  std::printf("perfbench-run %s\n", info.dump().c_str());
  std::fflush(stdout);

  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = w.surface_n;
  opts.max_points_per_leaf = w.q;
  opts.threads_per_rank = w.threads;

  // One tracer per calling thread; set-up k carries iteration id -1-k.
  Tracer main_tr;
  main_tr.set_enabled(args.trace);
  std::vector<Tracer> rank_tr;
  for (int r = 0; r < w.p; ++r) rank_tr.emplace_back(r);

  std::vector<double> tables_s, setup_s;        // per set-up
  std::vector<double> iter_s, iter_cpu;         // per iteration (rank 0)
  std::vector<bool> iter_traced;
  std::vector<std::vector<CallRecord>> setup_rec;  // [setup][rank]
  std::vector<std::vector<CallRecord>> iter_rec(w.p);  // [rank][iter]
  std::vector<Final> firsts(w.p), finals(w.p);  // iteration 0, last
  double peak_rss = 0.0;
  Metrics substrate;
  std::string error;

  try {
    for (int k = 0; k < kSetups; ++k) {
      // The first set-up hosts the loop, so peak RSS is read before the
      // allocator holds on to memory freed by later set-ups.
      const bool loop = k == 0;
      setup_rec.emplace_back(w.p);
      const double tt0 = obs::wall_seconds();
      std::unique_ptr<core::Tables> tables;
      {
        auto s = main_tr.span("core.tables", -1 - k);
        tables = std::make_unique<core::Tables>(kernel, opts);
      }
      tables_s.push_back(obs::wall_seconds() - tt0);
      double first_result_s = 0.0;
      std::atomic<bool> stop{false};

      comm::Runtime::run(w.p, w.threads, true, [&](comm::RankCtx& ctx) {
        const int rank = ctx.rank();
        Tracer& tr = rank_tr[rank];
        const auto& rec_spans = ctx.rec.metrics().spans;
        // The benchmark's own barrier, charged to a phase no metric reads.
        const auto sync = [&] {
          ctx.comm.cost().set_phase("bench.sync");
          ctx.comm.barrier();
        };
        auto pts =
            octree::generate_points(w.dist, w.n, rank, w.p, 1, args.seed);
        core::ParallelFmm fmm(ctx, *tables);

        // --- time to first result: setup() + first evaluate() --------
        tr.set_enabled(args.trace);
        CallRecord& sr = setup_rec[k][rank];
        sync();
        const double w0 = obs::wall_seconds();
        const Snap s0 = Snap::of(ctx);
        const std::size_t n0 = rec_spans.size();
        int setup_span = -1, first_span = -1;
        {
          auto s = tr.span("core.setup", -1 - k);
          fmm.setup(std::move(pts));
          setup_span = s.index();
        }
        const std::size_t n1 = rec_spans.size();
        core::ParallelFmm::Result res;
        {
          auto s = tr.span("core.first_eval", -1 - k);
          res = fmm.evaluate();
          first_span = s.index();
        }
        sync();
        if (rank == 0) first_result_s = obs::wall_seconds() - w0;
        const Snap s1 = Snap::of(ctx);
        sr.ok = all_finite(res.potentials);
        sr.results = res.gids.size();
        sr.counts = counts_of(s0, s1, fmm.let());
        if (tr.enabled()) {
          adopt_program_spans(tr, ctx.rec, n0, n1, setup_span, -1 - k);
          adopt_program_spans(tr, ctx.rec, n1, rec_spans.size(), first_span,
                              -1 - k);
          const auto& sp = tr.spans();
          Metrics& m = sr.layer;
          const double setup_s = sp[setup_span].end - sp[setup_span].start;
          m["core.setup_s"] = setup_s;
          m["core.first_eval_s"] = sp[first_span].end - sp[first_span].start;
          m["setup.tree.s"] = wall_in(s0, s1, "setup.tree");
          m["setup.let.s"] = wall_in(s0, s1, "setup.let");
          // Phases that do not run on every workload (no balancing at
          // p=1, no incremental update without time-stepping) are shares
          // of their call, so they read 0 rather than a constant 0 s.
          m["setup.balance.frac"] = wall_in(s0, s1, "setup.balance") / setup_s;
          m["comm.setup.msgs"] = sr.counts[kSetupMsgs];
          m["comm.setup.bytes"] = sr.counts[kSetupBytes];
        }
        if (!loop) return;

        // --- the workload's loop ---------------------------------------
        std::vector<std::uint64_t> gids;
        for (const auto& node : fmm.let().nodes) {
          if (!node.owned) continue;
          for (const auto& pt : fmm.let().points_of(node))
            gids.push_back(pt.gid);
        }
        // Time-stepping replays the same kStepsPerCycle steps from the
        // seed's initial points: between cycles every point is moved back
        // (outside the timed region, leaving the state a fresh setup()
        // would build) and a new TimeStepper restarts at step 0. So the
        // work per iteration does not drift with the number of steps a
        // run happens to fit in.
        constexpr int kStepsPerCycle = 8;
        core::TimeStepOptions ts_opts;
        ts_opts.dt = 0.02;
        ts_opts.move_fraction = w.churn;
        // Rotation about the cube's vertical axis plus a z drift, so
        // moving points cross leaf boundaries at every depth.
        const core::VelocityFn swirl = [](std::uint64_t,
                                          const std::array<double, 3>& x,
                                          double) {
          return std::array<double, 3>{-(x[1] - 0.5), x[0] - 0.5,
                                       0.3 * (x[0] - 0.5)};
        };
        std::optional<core::TimeStepper> stepper;
        std::vector<octree::PointRec> initial;  // indexed by gid
        if (w.timestep)
          initial = octree::generate_points(w.dist, w.n, 0, 1, 1, args.seed);
        const auto restart_steps = [&] {
          std::vector<octree::PointMove> back;
          for (const auto& node : fmm.let().nodes) {
            if (!(node.owned && node.global_leaf)) continue;
            for (const auto& pt : fmm.let().points_of(node)) {
              const double* x0 = initial[pt.gid].pos;
              if (std::equal(x0, x0 + 3, pt.pos)) continue;
              back.push_back({pt.gid, {x0[0], x0[1], x0[2]}});
            }
          }
          fmm.update_points(back);
          stepper.emplace(fmm, swirl, ts_opts);
        };
        if (w.timestep) stepper.emplace(fmm, swirl, ts_opts);
        // Owned points and their potentials, for the direct-sum check.
        const auto capture = [&](Final& f) {
          f.points.clear();
          for (const auto& node : fmm.let().nodes) {
            if (!(node.owned && node.global_leaf)) continue;
            for (const auto& pt : fmm.let().points_of(node))
              f.points.push_back(pt);
          }
          f.result = res;
        };
        const double loop0 = obs::wall_seconds();
        for (int it = 0;; ++it) {
          std::vector<double> den;
          if (!w.timestep) {
            Rng rng(args.seed ^ (0x9e3779b97f4a7c15ULL * (it + 1)), rank);
            den.resize(gids.size());
            for (double& v : den) v = rng.uniform(-1, 1);
          }
          // Rank 0 decides before the barrier, every rank reads after.
          if (rank == 0 && it >= 3 &&
              obs::wall_seconds() - loop0 >= args.seconds)
            stop.store(true);
          sync();
          if (stop.load()) break;
          if (w.timestep && it > 0 && it % kStepsPerCycle == 0)
            restart_steps();
          const bool traced = args.trace && it % 2 == 0;
          tr.set_enabled(traced);
          const Snap a = Snap::of(ctx);
          sync();
          const double t0 = obs::wall_seconds();
          const double c0 = rank == 0 ? process_cpu_seconds() : 0.0;
          const std::size_t m0 = rec_spans.size();
          int step_span = -1, eval_span = -1;
          if (w.timestep) {
            auto s = tr.span("core.update_points", it);
            stepper->step();
            step_span = s.index();
          } else {
            auto s = tr.span("core.set_densities", it);
            fmm.set_densities(gids, den);
            step_span = s.index();
          }
          const std::size_t m1 = rec_spans.size();
          {
            auto s = tr.span("core.evaluate", it);
            res = fmm.evaluate();
            eval_span = s.index();
          }
          sync();
          if (rank == 0) {
            iter_s.push_back(obs::wall_seconds() - t0);
            iter_cpu.push_back(process_cpu_seconds() - c0);
            iter_traced.push_back(traced);
          }

          // --- outside the timed region: checks, counts, layers -------
          const Snap b = Snap::of(ctx);
          CallRecord rec;
          rec.ok = all_finite(res.potentials);
          rec.results = res.gids.size();
          rec.counts = counts_of(a, b, fmm.let());
          if (traced) {
            adopt_program_spans(tr, ctx.rec, m0, m1, step_span, it);
            adopt_program_spans(tr, ctx.rec, m1, rec_spans.size(), eval_span,
                                it);
            const auto& sp = tr.spans();
            Metrics& m = rec.layer;
            const double step_s = sp[step_span].end - sp[step_span].start;
            m["core.step_s"] = step_s;
            m["core.evaluate_s"] = sp[eval_span].end - sp[eval_span].start;
            m["core.evaluate_self_s"] = tr.self_seconds(eval_span);
            for (const char* ph : {"s2u", "u2u", "down", "vli", "xli", "wli",
                                   "uli", "d2t", "comm"})
              m[std::string("eval.") + ph + ".s"] =
                  wall_in(a, b, std::string("eval.") + ph);
            for (const char* ph : {"tree", "let", "balance"})
              m[std::string("setup.incr.") + ph + ".frac"] =
                  wall_in(a, b, std::string("setup.incr.") + ph) / step_s;
            m["eval.gflop"] = 1e-9 * flops_in(a, b, "eval.");
            m["eval.vli.gflop"] = 1e-9 * flops_in(a, b, "eval.vli");
            m["eval.uli.gflop"] = 1e-9 * flops_in(a, b, "eval.uli");
            m["comm.eval.msgs"] = rec.counts[kEvalMsgs];
            m["comm.eval.bytes"] = rec.counts[kEvalBytes];
            m["comm.update.msgs"] = rec.counts[kSetupMsgs];
            m["comm.update.bytes"] = rec.counts[kSetupBytes];
            m["obs.gather.s"] = wall_in(a, b, "obs.gather");
            const double life = b.lifetime - a.lifetime;
            m["util.pool.busy_frac"] =
                life > 0.0 ? (b.busy - a.busy) / (life * w.threads) : 0.0;
            if (rank == 0)
              m["obs.summary_bytes"] =
                  static_cast<double>(fmm.summary().dump().size());
            const auto& us = fmm.last_update_stats();
            m["octree.dirty_leaves"] = static_cast<double>(us.dirty_leaves);
            m["octree.kept_leaves"] = static_cast<double>(us.kept_leaves);
            m["octree.lists_kept"] = static_cast<double>(us.lists_kept);
            m["octree.lists_rebuilt"] = static_cast<double>(us.lists_rebuilt);
            m["octree.migrated_points"] =
                static_cast<double>(us.migrated_points);
            m["octree.ghost_octants"] =
                static_cast<double>(us.ghost_octants_sent);
          }
          iter_rec[rank].push_back(std::move(rec));
          if (it == 0) capture(firsts[rank]);
        }
        tr.set_enabled(false);

        capture(finals[rank]);
      });
      setup_s.push_back(tables_s.back() + first_result_s);
      if (loop) {
        peak_rss = static_cast<double>(obs::peak_rss_bytes());
        if (args.trace) {
          double leaves = 0.0;
          for (const auto& r : iter_rec) leaves += r.back().counts[kLeaves];
          substrate = substrate_metrics(w, kernel, *tables,
                                        double(w.n) / std::max(1.0, leaves));
        }
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  // --- correctness ------------------------------------------------------
  // A call fails if it threw, returned a non-finite potential, or did
  // not return exactly one potential per point.
  int attempted = 0, failed = 0;
  std::vector<Counts> setup_counts, iter_counts;
  const auto tally = [&](const std::vector<const CallRecord*>& ranks,
                         std::vector<Counts>& counts) {
    ++attempted;
    bool ok = true;
    std::size_t results = 0;
    Counts sum(std::size(kCountNames), 0.0);
    for (const CallRecord* r : ranks) {
      ok = ok && r->ok;
      results += r->results;
      for (std::size_t c = 0; c < sum.size(); ++c) sum[c] += r->counts[c];
    }
    if (!ok || results != w.n) ++failed;
    counts.push_back(std::move(sum));
  };
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    std::vector<const CallRecord*> ranks;
    for (const CallRecord& r : setup_rec[k]) ranks.push_back(&r);
    tally(ranks, setup_counts);
  }
  // A rank that threw may have stopped early: tally the common prefix.
  std::size_t iters = iter_s.size();
  for (const auto& r : iter_rec) iters = std::min(iters, r.size());
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<const CallRecord*> ranks;
    for (const auto& r : iter_rec) ranks.push_back(&r[i]);
    tally(ranks, iter_counts);
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench_fmm: %s\n", error.c_str());
    ++attempted;
    ++failed;
  }

  // Accuracy: the first iteration's potentials give rel_err (its inputs
  // depend only on the seed); the last iteration's must meet the bound
  // too, after however many steps the run made.
  double rel_err = -1.0;
  if (error.empty() && iters > 0) {
    const std::uint64_t stride = std::max<std::uint64_t>(1, w.n / 4000);
    rel_err = rel_err_of(kernel, firsts, w.n, stride, total_threads);
    const double last_err = rel_err_of(kernel, finals, w.n, stride, total_threads);
    for (const double e : {rel_err, last_err}) {
      if (std::isfinite(e) && e <= w.err_bound) continue;
      std::fprintf(stderr,
                   "perfbench_fmm: rel_err %.3e (first) / %.3e (last) against "
                   "bound %.1e; NaN means points or potentials were lost\n",
                   rel_err, last_err, w.err_bound);
      if (failed < attempted) ++failed;
      break;
    }
  }
  const bool correct = failed == 0 && iters > 0;

  // --- report -------------------------------------------------------------
  obs::Json counts = obs::Json::object();
  {
    obs::Json names = obs::Json::array();
    for (const char* n : kCountNames) names.push_back(n);
    const auto rows = [](const std::vector<Counts>& v) {
      obs::Json a = obs::Json::array();
      for (const Counts& c : v) {
        obs::Json row = obs::Json::array();
        for (double x : c) row.push_back(x);
        a.push_back(std::move(row));
      }
      return a;
    };
    counts.set("names", std::move(names));
    counts.set("setups", rows(setup_counts));
    counts.set("iters", rows(iter_counts));
  }

  obs::Json metrics = obs::Json::object();
  if (!args.trace) {
    // rel_err and failed_frac are gates (see `correct`), printed here
    // but not reported as bounded metrics: rel_err moves by up to 2x with
    // the seed and the density draw, and failed_frac is 0 on a good run.
    const double failed_frac = double(failed) / std::max(1, attempted);
    std::printf("%-14s %14s  %s\n", "metric", "value", "unit");
    const auto row = [&](const char* name, double v, const char* unit,
                         bool bounded) {
      std::printf("%-14s %14.6g  %s%s\n", name, v, unit,
                  bounded ? "" : " (gate)");
      if (bounded) metrics.set(name, metric(v, unit));
    };
    row("setup_s", median(setup_s), "s", true);
    row("iter_s", median(iter_s), "s", true);
    row("iter_cpu_s", median(iter_cpu), "CPU-s", true);
    row("peak_rss_mib", peak_rss / (1024.0 * 1024.0), "MiB", true);
    row("rel_err", rel_err, "ratio", false);
    row("failed_frac", failed_frac, "ratio", false);
    const int pct = tail_percentile(iters);
    std::printf("iter_s: %zu samples, ", iters);
    if (pct >= 0)
      std::printf("p%d %.6g s\n", pct, percentile(iter_s, pct));
    else
      std::printf("too few for a tail percentile\n");
    std::printf("iter_s per iteration:");
    for (double t : iter_s) std::printf(" %.4f", t);
    std::printf("\n");
  } else {
    // Per call, max over ranks, then the median over the calls.
    std::vector<std::vector<Metrics>> per_setup, per_iter;
    for (const auto& ranks : setup_rec) {
      per_setup.emplace_back();
      for (const CallRecord& r : ranks) per_setup.back().push_back(r.layer);
    }
    std::vector<double> traced_s, untraced_s, cpu_util, kept, lists_kept;
    for (std::size_t i = 0; i < iters; ++i) {
      if (!iter_traced[i]) {
        untraced_s.push_back(iter_s[i]);
        continue;
      }
      traced_s.push_back(iter_s[i]);
      cpu_util.push_back(iter_cpu[i] / (iter_s[i] * total_threads));
      per_iter.emplace_back();
      double kl = 0, dl = 0, lk = 0, lr = 0;
      for (const auto& r : iter_rec) {
        const Metrics& m = r[i].layer;
        per_iter.back().push_back(m);
        kl += m.at("octree.kept_leaves");
        dl += m.at("octree.dirty_leaves");
        lk += m.at("octree.lists_kept");
        lr += m.at("octree.lists_rebuilt");
      }
      // Shares of the whole tree, summed over ranks; 0 without updates.
      kept.push_back(kl + dl > 0 ? kl / (kl + dl) : 0.0);
      lists_kept.push_back(lk + lr > 0 ? lk / (lk + lr) : 0.0);
    }
    Metrics layer = max_then_median(per_setup);
    for (const auto& [k, v] : max_then_median(per_iter)) layer[k] = v;
    for (const auto& [k, v] : substrate) layer[k] = v;
    layer["core.tables_s"] = median(tables_s);
    layer["octree.kept_frac"] = median(kept);
    layer["octree.lists_kept_frac"] = median(lists_kept);
    layer["util.cpu_util"] = median(cpu_util);
    layer["check.rel_err"] = rel_err;
    layer["trace.overhead_frac"] =
        untraced_s.empty() ? 0.0 : median(traced_s) / median(untraced_s) - 1.0;

    struct Def {
      const char* name;
      const char* unit;
    };
    static const Def kLayer[] = {
        {"core.tables_s", "s"},          {"core.setup_s", "s"},
        {"core.first_eval_s", "s"},      {"core.evaluate_s", "s"},
        {"core.evaluate_self_s", "s"},   {"core.step_s", "s"},
        {"setup.tree.s", "s"},           {"setup.let.s", "s"},
        {"setup.balance.frac", "ratio"}, {"setup.incr.tree.frac", "ratio"},
        {"setup.incr.let.frac", "ratio"},
        {"setup.incr.balance.frac", "ratio"}, {"eval.s2u.s", "s"},
        {"eval.u2u.s", "s"},             {"eval.down.s", "s"},
        {"eval.vli.s", "s"},             {"eval.xli.s", "s"},
        {"eval.wli.s", "s"},             {"eval.uli.s", "s"},
        {"eval.d2t.s", "s"},             {"eval.comm.s", "s"},
        {"eval.gflop", "GFLOP"},         {"eval.vli.gflop", "GFLOP"},
        {"eval.uli.gflop", "GFLOP"},     {"fft.transform_us", "us"},
        {"fft.mac_gflops", "GFLOP/s"},   {"kernels.direct_gflops", "GFLOP/s"},
        {"la.pinv_s", "s"},              {"la.gemm_gflops", "GFLOP/s"},
        {"octree.dirty_leaves", "count"}, {"octree.kept_frac", "ratio"},
        {"octree.lists_kept_frac", "ratio"},
        {"octree.migrated_points", "count"},
        {"octree.ghost_octants", "count"}, {"comm.eval.msgs", "count"},
        {"comm.eval.bytes", "bytes"},    {"comm.update.msgs", "count"},
        {"comm.update.bytes", "bytes"},  {"comm.setup.msgs", "count"},
        {"comm.setup.bytes", "bytes"},   {"obs.gather.s", "s"},
        {"obs.summary_bytes", "bytes"},  {"util.pool.busy_frac", "ratio"},
        {"util.cpu_util", "ratio"},      {"check.rel_err", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const Def& d : kLayer) {
      const auto it = layer.find(d.name);
      const double v = it == layer.end() ? 0.0 : it->second;
      std::printf("%-24s %14.6g  %s\n", d.name, v, d.unit);
      metrics.set(d.name, metric(v, d.unit));
    }

    // The spans, written out once at exit.
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace-" + w.name + "-seed" +
                             std::to_string(args.seed) + ".json";
    obs::Json doc = obs::Json::object();
    doc.set("run", info);
    obs::Json tracers = obs::Json::array();
    std::size_t nspans = 0;
    const auto dump_tracer = [&](const Tracer& t) {
      obs::Json arr = obs::Json::array();
      for (const perfbench::Span& s : t.spans()) {
        obs::Json j = obs::Json::object();
        j.set("name", s.name);
        j.set("start", s.start);
        j.set("end", s.end);
        j.set("parent", s.parent);
        j.set("iter", s.iter);
        j.set("rank", s.rank);
        arr.push_back(std::move(j));
      }
      nspans += t.spans().size();
      tracers.push_back(std::move(arr));
    };
    dump_tracer(main_tr);
    for (const Tracer& t : rank_tr) dump_tracer(t);
    doc.set("tracers", std::move(tracers));
    std::ofstream(path) << doc.dump() << "\n";
    std::printf("trace: %zu spans -> %s\n", nspans, path.c_str());
  }

  obs::Json result = obs::Json::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::printf("perfbench-counts %s\n", counts.dump().c_str());
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <utility>

#include "fft/fft.hpp"
#include "util/rng.hpp"

namespace pkifmm::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_err(std::span<const Complex> a, std::span<const Complex> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// O(n^2) reference DFT, for any n (fft_inplace is the power-of-two
/// reference).
std::vector<Complex> dft(std::span<const Complex> a, bool inverse) {
  const std::size_t n = a.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      acc += a[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<Complex> a = {Complex(3.0, -2.0)};
  fft_inplace(a, false);
  EXPECT_EQ(a[0], Complex(3.0, -2.0));
}

TEST(Fft, MatchesReferenceDft) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u}) {
    auto a = random_signal(n, n);
    auto ref = dft(a, false);
    fft_inplace(a, false);
    EXPECT_LT(max_err(a, ref), 1e-10) << "n=" << n;
  }
}

TEST(Fft, InverseMatchesReferenceDft) {
  auto a = random_signal(32, 77);
  auto ref = dft(a, true);
  fft_inplace(a, true);
  EXPECT_LT(max_err(a, ref), 1e-10);
}

TEST(Fft, RoundTripIsIdentity) {
  for (std::size_t n : {8u, 128u, 1024u}) {
    auto a = random_signal(n, 100 + n);
    auto orig = a;
    fft_inplace(a, false);
    fft_inplace(a, true);
    EXPECT_LT(max_err(a, orig), 1e-11) << "n=" << n;
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> a(12);
  EXPECT_ANY_THROW(fft_inplace(a, false));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> a(16, Complex(0.0, 0.0));
  a[0] = 1.0;
  fft_inplace(a, false);
  for (const auto& x : a) EXPECT_NEAR(std::abs(x - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft, LinearityHolds) {
  auto a = random_signal(64, 1);
  auto b = random_signal(64, 2);
  std::vector<Complex> sum(64);
  for (int i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft_inplace(a, false);
  fft_inplace(b, false);
  fft_inplace(sum, false);
  for (int i = 0; i < 64; ++i)
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-10);
}

TEST(Fft3d, RoundTrip) {
  for (std::size_t n : {8u, 12u, 16u, 24u}) {
    Fft3d plan(n);
    auto vol = random_signal(plan.volume(), 9 + n);
    auto orig = vol;
    plan.forward(vol);
    plan.inverse(vol);
    EXPECT_LT(max_err(vol, orig), 1e-11) << "n=" << n;
  }
}

TEST(Fft3d, SeparableProductTransform) {
  // FFT of a separable function f(x,y,z) = gx(x) gy(y) gz(z) is the
  // tensor product of 1-D DFTs, forward and inverse. The sizes cover
  // every mix of radix-3 and radix-2 stages up to three of each.
  for (std::size_t n : {1u, 2u, 3u, 4u, 6u, 8u, 9u, 12u, 16u, 18u, 24u, 27u,
                        36u}) {
    auto gx = random_signal(n, 11 + n), gy = random_signal(n, 12 + n),
         gz = random_signal(n, 13 + n);
    Fft3d plan(n);
    for (bool inverse : {false, true}) {
      std::vector<Complex> vol(plan.volume());
      for (std::size_t z = 0; z < n; ++z)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t x = 0; x < n; ++x)
            vol[(z * n + y) * n + x] = gx[x] * gy[y] * gz[z];
      inverse ? plan.inverse(vol) : plan.forward(vol);
      const auto fx = dft(gx, inverse), fy = dft(gy, inverse),
                 fz = dft(gz, inverse);
      double err = 0.0;
      for (std::size_t z = 0; z < n; ++z)
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t x = 0; x < n; ++x)
            err = std::max(err, std::abs(vol[(z * n + y) * n + x] -
                                         fx[x] * fy[y] * fz[z]));
      EXPECT_LT(err, 1e-10) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(Fft3d, CircularConvolutionViaFrequencyProduct) {
  // IFFT(FFT(f) .* FFT(g)) equals the circular convolution of f and g.
  for (std::size_t n : {4u, 6u}) {
    Fft3d plan(n);
    auto f = random_signal(plan.volume(), 21);
    auto g = random_signal(plan.volume(), 22);

    // Direct circular convolution.
    std::vector<Complex> direct(plan.volume(), Complex(0, 0));
    auto idx = [&](std::size_t x, std::size_t y, std::size_t z) {
      return (z * n + y) * n + x;
    };
    for (std::size_t az = 0; az < n; ++az)
      for (std::size_t ay = 0; ay < n; ++ay)
        for (std::size_t ax = 0; ax < n; ++ax)
          for (std::size_t bz = 0; bz < n; ++bz)
            for (std::size_t by = 0; by < n; ++by)
              for (std::size_t bx = 0; bx < n; ++bx)
                direct[idx(ax, ay, az)] +=
                    f[idx(bx, by, bz)] *
                    g[idx((ax - bx + n) % n, (ay - by + n) % n,
                          (az - bz + n) % n)];

    auto fh = f, gh = g;
    plan.forward(fh);
    plan.forward(gh);
    std::vector<Complex> prod(plan.volume(), Complex(0, 0));
    pointwise_mac(gh, fh, prod);
    plan.inverse(prod);
    EXPECT_LT(max_err(prod, direct), 1e-10) << "n=" << n;
  }
}

TEST(GridSize, SurfaceOrderTable) {
  // The V-list grid for surface order n needs 2n-1 points per axis.
  const std::size_t want[] = {8, 8, 12, 12, 16, 16, 24, 24};
  for (std::size_t n = 3; n <= 10; ++n) {
    const std::size_t g = grid_size(2 * n - 1);
    EXPECT_EQ(g, want[n - 3]) << "n=" << n;
    // The V-list MAC sweeps 16-frequency chunks of the half spectrum.
    EXPECT_EQ(Fft3d(g).half_volume() % 16, 0u) << "n=" << n;
  }
  for (std::size_t m = 0; m <= 4; ++m) EXPECT_EQ(grid_size(m), 4u);
  EXPECT_EQ(grid_size(25), 32u);
  EXPECT_EQ(grid_size(33), 36u);
}

TEST(GridSize, LargestGridIsFixpoint) {
  EXPECT_EQ(grid_size(Fft3d::kMaxN), Fft3d::kMaxN);
  EXPECT_EQ(grid_size(Fft3d::kMaxN - 1), Fft3d::kMaxN);
}

TEST(GridSize, RejectsRequestPastMaxN) {
  EXPECT_ANY_THROW(grid_size(Fft3d::kMaxN + 1));
  EXPECT_ANY_THROW(grid_size(std::numeric_limits<std::size_t>::max()));
}

TEST(PointwiseMac, Accumulates) {
  std::vector<Complex> g = {Complex(1, 1), Complex(2, 0)};
  std::vector<Complex> f = {Complex(0, 1), Complex(3, 0)};
  std::vector<Complex> acc = {Complex(1, 0), Complex(0, 0)};
  pointwise_mac(g, f, acc);
  EXPECT_EQ(acc[0], Complex(1, 0) + Complex(1, 1) * Complex(0, 1));
  EXPECT_EQ(acc[1], Complex(6, 0));
}

TEST(PointwiseMacChunked, MatchesPerEntryMac) {
  // Chunk-major layout: slot s's frequencies [q0, q0+c) live at
  // base + s*c. Each (fidx, aidx) entry is one translation applied to
  // one chunk; duplicates must accumulate.
  const std::size_t c = 16, nf = 6, na = 4;
  const auto g = random_signal(c, 220);
  const auto f = random_signal(c * nf, 221);
  auto acc = random_signal(c * na, 222);
  auto ref = acc;
  const std::vector<std::int32_t> fidx = {0, 5, 2, 5};
  const std::vector<std::int32_t> aidx = {3, 0, 3, 1};
  for (std::size_t e = 0; e < fidx.size(); ++e)
    for (std::size_t i = 0; i < c; ++i)
      ref[std::size_t(aidx[e]) * c + i] +=
          g[i] * f[std::size_t(fidx[e]) * c + i];
  pointwise_mac_chunked(g.data(), c, f.data(), acc.data(), fidx, aidx);
  EXPECT_LT(max_err(acc, ref), 1e-14);
}

TEST(Fft3d, TransformFlopsPositiveAndScales) {
  Fft3d a(8), b(12), c(16);
  EXPECT_GT(a.transform_flops(), 0u);
  EXPECT_GT(b.transform_flops(), a.transform_flops());
  EXPECT_GT(c.transform_flops(), b.transform_flops());
}

/// Random real s^3 support cube.
std::vector<double> random_cube(std::size_t s, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> c(s * s * s);
  for (auto& x : c) x = rng.uniform(-1, 1);
  return c;
}

/// The c2c spectrum of the n^3 volume that is `cube` on [0, s)^3 and
/// zero elsewhere.
std::vector<Complex> c2c_spectrum(const Fft3d& plan,
                                  const std::vector<double>& cube,
                                  std::size_t s) {
  const std::size_t n = plan.n();
  std::vector<Complex> vol(plan.volume(), Complex(0, 0));
  for (std::size_t z = 0; z < s; ++z)
    for (std::size_t y = 0; y < s; ++y)
      for (std::size_t x = 0; x < s; ++x)
        vol[(z * n + y) * n + x] = cube[(z * s + y) * s + x];
  plan.forward(vol);
  return vol;
}

double max_abs(std::span<const Complex> v) {
  double m = 0.0;
  for (const auto& x : v) m = std::max(m, std::abs(x));
  return m;
}

TEST(Fft3dReal, ForwardR2cMatchesC2cHalfSpectrum) {
  for (std::size_t n : {8u, 12u, 16u, 24u}) {
    const Fft3d plan(n);
    const std::size_t hx = n / 2 + 1;
    std::vector<Complex> half(plan.half_volume()), line(n);
    for (std::size_t s = 1; s <= n; ++s) {
      const auto cube = random_cube(s, 1000 * n + s);
      const auto full = c2c_spectrum(plan, cube, s);
      plan.forward_r2c(cube, s, half, line);
      double err = 0.0;
      for (std::size_t kz = 0; kz < n; ++kz)
        for (std::size_t ky = 0; ky < n; ++ky)
          for (std::size_t kx = 0; kx < hx; ++kx)
            err = std::max(err, std::abs(half[(kz * n + ky) * hx + kx] -
                                         full[(kz * n + ky) * n + kx]));
      EXPECT_LE(err, 1e-14 * max_abs(full)) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Fft3dReal, InverseC2rMatchesC2cOnSupportCube) {
  for (std::size_t n : {8u, 12u, 16u, 24u}) {
    const Fft3d plan(n);
    const std::size_t hx = n / 2 + 1;
    std::vector<Complex> half(plan.half_volume()), line(n);
    // A Hermitian spectrum: the transform of a real volume with full
    // support, as the V-list accumulators are.
    auto full = c2c_spectrum(plan, random_cube(n, 77 + n), n);
    for (std::size_t s = 1; s <= n; ++s) {
      for (std::size_t kz = 0; kz < n; ++kz)
        for (std::size_t ky = 0; ky < n; ++ky)
          for (std::size_t kx = 0; kx < hx; ++kx)
            half[(kz * n + ky) * hx + kx] = full[(kz * n + ky) * n + kx];
      std::vector<double> got(s * s * s);
      plan.inverse_c2r(half, s, got, line);
      auto vol = full;
      plan.inverse(vol);
      double err = 0.0, ref = 0.0;
      for (std::size_t z = 0; z < s; ++z)
        for (std::size_t y = 0; y < s; ++y)
          for (std::size_t x = 0; x < s; ++x) {
            const double want = vol[(z * n + y) * n + x].real();
            err = std::max(err, std::abs(got[(z * s + y) * s + x] - want));
            ref = std::max(ref, std::abs(want));
          }
      EXPECT_LE(err, 1e-14 * ref) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Fft3dReal, RoundTripRecoversSupportCube) {
  // 9: an odd grid has no Nyquist bin.
  for (std::size_t n : {8u, 9u, 12u, 16u, 24u})
    for (std::size_t s : {std::size_t(1), std::size_t(3), n / 2 + 1, n}) {
      const Fft3d plan(n);
      std::vector<Complex> half(plan.half_volume()), line(n);
      const auto cube = random_cube(s, 500 + n + s);
      std::vector<double> back(cube.size());
      plan.forward_r2c(cube, s, half, line);
      plan.inverse_c2r(half, s, back, line);
      double err = 0.0;
      for (std::size_t i = 0; i < cube.size(); ++i)
        err = std::max(err, std::abs(back[i] - cube[i]));
      EXPECT_LE(err, 1e-14) << "n=" << n << " s=" << s;
    }
}

TEST(Fft3dReal, FlopsCountLinesRunPlusPacking) {
  // At the default surface order (s = 6 on the 12^3 grid) the pruned
  // pair runs 18 packed x lines, 6*7 y lines and 12*7 z lines each way,
  // against 3*144 lines for a c2c transform (216 of 768 on a 16^3 grid).
  EXPECT_EQ(Fft3d(12).real_lines(6), 144u);
  EXPECT_EQ(Fft3d(16).real_lines(6), 216u);
  // Line FFT model: 10 flops per radix-2 butterfly (5 n log2 n for a
  // power of two) and 28 per radix-3 butterfly. n = 12 runs one
  // radix-3 stage (4 butterflies) and two radix-2 stages (6 each).
  for (auto [n, line_flops] :
       {std::pair<std::size_t, std::uint64_t>{8, 5 * 8 * 3},
        {12, 4 * 28 + 2 * 6 * 10},
        {16, 5 * 16 * 4}}) {
    const Fft3d p(n);
    EXPECT_EQ(p.transform_flops(), 3ull * n * n * line_flops) << n;
    const std::uint64_t hx = n / 2 + 1;
    for (std::size_t s = 1; s <= n; ++s) {
      const std::uint64_t packed = (s * s + 1) / 2;
      const std::uint64_t lines = packed + s * hx + n * hx;
      EXPECT_EQ(p.real_lines(s), lines);
      EXPECT_EQ(p.r2c_flops(s), lines * line_flops + packed * 8 * hx);
      EXPECT_EQ(p.c2r_flops(s), lines * line_flops + packed * 4 * hx);
    }
    EXPECT_LT(p.r2c_flops(n), p.transform_flops());
  }
}

TEST(Fft3dReal, RejectsBadShapes) {
  const Fft3d plan(8);
  std::vector<Complex> half(plan.half_volume()), line(8), short_line(4);
  std::vector<double> cube(27);
  EXPECT_ANY_THROW(plan.forward_r2c(cube, 4, half, line));   // cube != s^3
  EXPECT_ANY_THROW(plan.forward_r2c(cube, 3, half, short_line));
  std::vector<double> big(9 * 9 * 9);
  EXPECT_ANY_THROW(plan.forward_r2c(big, 9, half, line));    // s > n
  EXPECT_ANY_THROW(plan.inverse_c2r(
      std::span<Complex>(half.data(), half.size() - 1), 3, cube, line));
  EXPECT_ANY_THROW(Fft3d(2 * Fft3d::kMaxN));
  // 10 has the factor 5; the message names the supported sizes.
  for (std::size_t bad : {10u, 0u}) {
    try {
      Fft3d p(bad);
      ADD_FAILURE() << "Fft3d(" << bad << ") did not throw";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("2^a * 3^b"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Fft, ParsevalIdentityHolds) {
  auto a = random_signal(256, 55);
  double time_energy = 0.0;
  for (const auto& x : a) time_energy += std::norm(x);
  fft_inplace(a, false);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-10 * time_energy);
}

TEST(Fft, RealSignalHasConjugateSymmetricSpectrum) {
  Rng rng(66);
  std::vector<Complex> a(64);
  for (auto& x : a) x = Complex(rng.uniform(-1, 1), 0.0);
  fft_inplace(a, false);
  for (std::size_t k = 1; k < a.size(); ++k)
    EXPECT_LT(std::abs(a[k] - std::conj(a[a.size() - k])), 1e-10);
}

TEST(Fft, ShiftTheoremPhaseRamp) {
  // FFT of a cyclically shifted signal = phase-ramped spectrum.
  auto a = random_signal(32, 67);
  std::vector<Complex> shifted(32);
  for (int i = 0; i < 32; ++i) shifted[i] = a[(i + 31) % 32];  // shift by 1
  auto fa = a, fs = shifted;
  fft_inplace(fa, false);
  fft_inplace(fs, false);
  for (int k = 0; k < 32; ++k) {
    const double ang = -2.0 * std::numbers::pi * k / 32.0;
    const Complex ramp(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(fs[k] - fa[k] * ramp), 1e-10) << k;
  }
}

}  // namespace
}  // namespace pkifmm::fft

#include "fft/fft.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::fft {

namespace {

bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Model flops of one radix-2 butterfly: a complex multiply (6) and
/// two complex adds (4).
constexpr std::uint64_t kBfly2Flops = 10;
/// Model flops of one radix-3 butterfly: two twiddle multiplies (12),
/// x1 +- x2 (4), x0 - (x1 + x2)/2 (4), the sin(60) scaling (2) and
/// three output adds (6).
constexpr std::uint64_t kBfly3Flops = 28;

/// True for x = 2^a * 3^b (x >= 1).
bool is_3smooth(std::size_t x) {
  if (x == 0) return false;
  while (x % 2 == 0) x /= 2;
  while (x % 3 == 0) x /= 3;
  return x == 1;
}

}  // namespace

void fft_inplace(std::span<Complex> a, bool inverse) {
  const std::size_t n = a.size();
  PKIFMM_CHECK_MSG(is_pow2(n), "FFT size must be a power of two, got " << n);
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Iterative Cooley-Tukey butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv;
  }
}

Fft3d::Fft3d(std::size_t n) : n_(n) {
  PKIFMM_CHECK_MSG(is_3smooth(n) && n <= kMaxN,
                   "Fft3d size must be 2^a * 3^b (1, 2, 3, 4, 6, 8, 9, 12, "
                   "16, ...) and <= "
                       << kMaxN << ", got " << n);
  for (std::size_t r = n; r % 3 == 0; r /= 3) radix_.push_back(3);
  for (std::size_t r = n; r % 2 == 0; r /= 2) radix_.push_back(2);

  // Per-stage twiddles (forward sign; the inverse conjugates on the
  // fly). A stage of radix r combines r length-m transforms into one of
  // length r*m and needs w^(q j) for q = 1..r-1, j < m.
  std::size_t m = 1;
  for (const std::size_t r : radix_) {
    const std::size_t len = r * m;
    for (std::size_t q = 1; q < r; ++q)
      for (std::size_t j = 0; j < m; ++j) {
        const double ang = -2.0 * std::numbers::pi *
                           static_cast<double>(q * j) /
                           static_cast<double>(len);
        tw_.push_back(std::cos(ang));
        tw_.push_back(std::sin(ang));
      }
    line_flops_ += (r == 3 ? kBfly3Flops : kBfly2Flops) * (n / r);
    m = len;
  }

  // Digit reversal: position p, read with the first stage's radix as
  // its least significant digit, holds input index k, the same digits
  // read in the opposite order. Each cycle p0 -> rev[p0] -> ... becomes
  // the swaps (p0, p1), (p1, p2), ...; a power of two (an involution)
  // gives the bit-reversal swaps.
  std::vector<std::uint32_t> rev(n);
  for (std::size_t p = 0; p < n; ++p) {
    std::size_t rest = p, k = 0;
    for (const std::size_t r : radix_) {
      k = k * r + rest % r;
      rest /= r;
    }
    rev[p] = static_cast<std::uint32_t>(k);
  }
  std::vector<bool> done(n, false);
  for (std::size_t p0 = 0; p0 < n; ++p0) {
    done[p0] = true;
    for (std::size_t p = p0; !done[rev[p]]; p = rev[p]) {
      swaps_.push_back(static_cast<std::uint32_t>(p));
      swaps_.push_back(rev[p]);
      done[rev[p]] = true;
    }
  }
}

void Fft3d::line_fft(Complex* a, bool inverse) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < swaps_.size(); i += 2)
    std::swap(a[swaps_[i]], a[swaps_[i + 1]]);

  // Butterflies on raw re/im pairs with table twiddles: no dependent
  // w *= wlen chain and no Annex-G complex-multiply library calls.
  // Each (stage, block) is one simd fft_bfly3/fft_bfly call over the
  // block's m contiguous butterflies — every leg and the twiddles are
  // contiguous, so the op vectorizes the j loop; blocks are processed
  // in the same order on every call, keeping line_fft bitwise
  // deterministic within a tier.
  const simd::Ops& ops = simd::ops();
  double* ad = reinterpret_cast<double*>(a);
  const double sgn = inverse ? -1.0 : 1.0;
  const double* tw = tw_.data();
  std::size_t m = 1;
  for (const std::size_t r : radix_) {
    const std::size_t len = r * m;
    for (std::size_t i = 0; i < n; i += len) {
      double* a0 = ad + 2 * i;
      if (r == 3)
        ops.fft_bfly3(a0, a0 + 2 * m, a0 + 4 * m, tw, sgn, m);
      else
        ops.fft_bfly(a0, a0 + 2 * m, tw, sgn, m);
    }
    tw += 2 * (r - 1) * m;
    m = len;
  }

  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) ad[i] *= inv;
  }
}

void Fft3d::transform(std::span<Complex> vol, bool inverse) const {
  PKIFMM_CHECK(vol.size() == volume());
  const std::size_t n = n_;
  std::array<Complex, kMaxN> line_buf;
  Complex* line = line_buf.data();

  // x-lines are contiguous.
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      line_fft(vol.data() + (z * n + y) * n, inverse);

  // y-lines: stride n.
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = 0; y < n; ++y) line[y] = vol[(z * n + y) * n + x];
      line_fft(line, inverse);
      for (std::size_t y = 0; y < n; ++y) vol[(z * n + y) * n + x] = line[y];
    }

  // z-lines: stride n^2.
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t z = 0; z < n; ++z) line[z] = vol[(z * n + y) * n + x];
      line_fft(line, inverse);
      for (std::size_t z = 0; z < n; ++z) vol[(z * n + y) * n + x] = line[z];
    }
}

void Fft3d::forward(std::span<Complex> vol) const { transform(vol, false); }

void Fft3d::inverse(std::span<Complex> vol) const { transform(vol, true); }

std::uint64_t Fft3d::transform_flops() const {
  return 3ull * n_ * n_ * line_flops_;
}

void Fft3d::forward_r2c(std::span<const double> in, std::size_t s,
                        std::span<Complex> out,
                        std::span<Complex> line) const {
  const std::size_t n = n_, hx = n / 2 + 1;
  PKIFMM_CHECK(s >= 1 && s <= n && in.size() == s * s * s &&
               out.size() == half_volume() && line.size() == n);
  Complex* ln = line.data();
  auto at = [&](std::size_t z, std::size_t y, std::size_t kx) -> Complex& {
    return out[(z * n + y) * hx + kx];
  };

  // x pass: the s^2 real support lines, two per complex FFT
  // (z = a + i b). With Z = FFT(z):  A(k) = (Z(k) + conj Z(-k)) / 2 and
  // B(k) = (Z(k) - conj Z(-k)) / 2i. An odd last line pairs with zero.
  const std::size_t nl = s * s;
  for (std::size_t l = 0; l < nl; l += 2) {
    const bool pair = l + 1 < nl;
    const double* a = in.data() + l * s;
    for (std::size_t x = 0; x < s; ++x)
      ln[x] = Complex(a[x], pair ? a[s + x] : 0.0);
    std::fill(ln + s, ln + n, Complex(0, 0));
    line_fft(ln, false);
    Complex* oa = &at(l / s, l % s, 0);
    Complex* ob = pair ? &at((l + 1) / s, (l + 1) % s, 0) : nullptr;
    for (std::size_t k = 0; k < hx; ++k) {
      const Complex zk = ln[k], zm = ln[k == 0 ? 0 : n - k];
      oa[k] = Complex(0.5 * (zk.real() + zm.real()),
                      0.5 * (zk.imag() - zm.imag()));
      if (ob)
        ob[k] = Complex(0.5 * (zk.imag() + zm.imag()),
                        0.5 * (zm.real() - zk.real()));
    }
  }

  // y pass: only the s z-planes that hold data, each line zero past s.
  for (std::size_t z = 0; z < s; ++z)
    for (std::size_t kx = 0; kx < hx; ++kx) {
      for (std::size_t y = 0; y < s; ++y) ln[y] = at(z, y, kx);
      std::fill(ln + s, ln + n, Complex(0, 0));
      line_fft(ln, false);
      for (std::size_t ky = 0; ky < n; ++ky) at(z, ky, kx) = ln[ky];
    }

  // z pass: every (ky, kx) line, zero past s.
  for (std::size_t ky = 0; ky < n; ++ky)
    for (std::size_t kx = 0; kx < hx; ++kx) {
      for (std::size_t z = 0; z < s; ++z) ln[z] = at(z, ky, kx);
      std::fill(ln + s, ln + n, Complex(0, 0));
      line_fft(ln, false);
      for (std::size_t kz = 0; kz < n; ++kz) at(kz, ky, kx) = ln[kz];
    }
}

void Fft3d::inverse_c2r(std::span<Complex> spec, std::size_t s,
                        std::span<double> out,
                        std::span<Complex> line) const {
  const std::size_t n = n_, hx = n / 2 + 1;
  PKIFMM_CHECK(s >= 1 && s <= n && spec.size() == half_volume() &&
               out.size() == s * s * s && line.size() == n);
  Complex* ln = line.data();
  auto at = [&](std::size_t z, std::size_t y, std::size_t kx) -> Complex& {
    return spec[(z * n + y) * hx + kx];
  };

  // z pass: every (ky, kx) line; keep only z < s.
  for (std::size_t ky = 0; ky < n; ++ky)
    for (std::size_t kx = 0; kx < hx; ++kx) {
      for (std::size_t kz = 0; kz < n; ++kz) ln[kz] = at(kz, ky, kx);
      line_fft(ln, true);
      for (std::size_t z = 0; z < s; ++z) at(z, ky, kx) = ln[z];
    }

  // y pass: the s kept z-planes; keep only y < s.
  for (std::size_t z = 0; z < s; ++z)
    for (std::size_t kx = 0; kx < hx; ++kx) {
      for (std::size_t ky = 0; ky < n; ++ky) ln[ky] = at(z, ky, kx);
      line_fft(ln, true);
      for (std::size_t y = 0; y < s; ++y) at(z, y, kx) = ln[y];
    }

  // x pass: two Hermitian half lines A, B become Z = A + iB over the
  // full line (Z(-k) = conj A(k) + i conj B(k)); the inverse FFT's real
  // and imaginary parts are the two real lines. The DC and (even n)
  // Nyquist bins of a real line are real, so only their real parts
  // enter.
  const std::size_t nl = s * s;
  for (std::size_t l = 0; l < nl; l += 2) {
    const bool pair = l + 1 < nl;
    const Complex* a = &at(l / s, l % s, 0);
    const Complex* b = pair ? &at((l + 1) / s, (l + 1) % s, 0) : nullptr;
    for (std::size_t k = 0; k < hx; ++k) {
      const double ar = a[k].real(), ai = a[k].imag();
      const double br = b ? b[k].real() : 0.0, bi = b ? b[k].imag() : 0.0;
      if (k == 0 || 2 * k == n) {
        ln[k] = Complex(ar, br);
      } else {
        ln[k] = Complex(ar - bi, ai + br);
        ln[n - k] = Complex(ar + bi, br - ai);
      }
    }
    line_fft(ln, true);
    double* oa = out.data() + l * s;
    for (std::size_t x = 0; x < s; ++x) oa[x] = ln[x].real();
    if (pair)
      for (std::size_t x = 0; x < s; ++x) oa[s + x] = ln[x].imag();
  }
}

std::uint64_t Fft3d::real_lines(std::size_t s) const {
  const std::uint64_t hx = n_ / 2 + 1;
  return (s * s + 1) / 2 + (s + n_) * hx;
}

std::uint64_t Fft3d::r2c_flops(std::size_t s) const {
  return real_lines(s) * line_flops_ + (s * s + 1) / 2 * 8ull * (n_ / 2 + 1);
}

std::uint64_t Fft3d::c2r_flops(std::size_t s) const {
  return real_lines(s) * line_flops_ + (s * s + 1) / 2 * 4ull * (n_ / 2 + 1);
}

std::size_t grid_size(std::size_t min) {
  std::size_t g = 4;
  while (g <= Fft3d::kMaxN && (g < min || !is_3smooth(g))) g += 4;
  PKIFMM_CHECK_MSG(g <= Fft3d::kMaxN,
                   "grid_size: no 2^a * 3^b grid of at least "
                       << min << " points fits Fft3d::kMaxN = "
                       << Fft3d::kMaxN);
  return g;
}

// The complex MACs below route through the runtime-dispatched SIMD
// tiers (src/simd/). The scalar tier keeps the hand-rolled 4-mul/4-add
// form (no __muldc3 Annex-G call); the vector tiers use the interleaved
// fmaddsub idiom on the same [re, im] layout. Within a tier the
// accumulation per frequency index is a single two-product update, so
// any chunking of the index range gives bitwise-identical results.

void pointwise_mac(std::span<const Complex> g, std::span<const Complex> f,
                   std::span<Complex> acc) {
  PKIFMM_CHECK(g.size() == f.size() && f.size() == acc.size());
  simd::ops().cmac(reinterpret_cast<const double*>(g.data()),
                   reinterpret_cast<const double*>(f.data()),
                   reinterpret_cast<double*>(acc.data()), g.size());
}

void pointwise_mac_chunked(const Complex* g, std::size_t c,
                           const Complex* f_base, Complex* acc_base,
                           std::span<const std::int32_t> fidx,
                           std::span<const std::int32_t> aidx) {
  PKIFMM_CHECK(fidx.size() == aidx.size());
  const simd::Ops& ops = simd::ops();
  const double* gd = reinterpret_cast<const double*>(g);
  for (std::size_t e = 0; e < fidx.size(); ++e) {
    const double* fd =
        reinterpret_cast<const double*>(f_base + std::size_t(fidx[e]) * c);
    double* ad =
        reinterpret_cast<double*>(acc_base + std::size_t(aidx[e]) * c);
    ops.cmac(gd, fd, ad, c);
  }
}

}  // namespace pkifmm::fft

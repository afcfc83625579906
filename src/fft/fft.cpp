#include "fft/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::fft {

namespace {

bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

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
  PKIFMM_CHECK_MSG(is_pow2(n) && n <= kMaxN,
                   "Fft3d size must be a power of two <= " << kMaxN
                                                           << ", got " << n);
  log2n_ = std::countr_zero(n);

  // Twiddle table, one block of len/2 factors per butterfly stage
  // (forward sign; the inverse conjugates on the fly).
  tw_.reserve(2 * (n > 1 ? n - 1 : 0));
  for (std::size_t len = 2; len <= n; len <<= 1)
    for (std::size_t j = 0; j < len / 2; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j) / static_cast<double>(len);
      tw_.push_back(std::cos(ang));
      tw_.push_back(std::sin(ang));
    }

  rev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev_[i] = static_cast<std::uint32_t>(j);
  }
}

void Fft3d::line_fft(Complex* a, bool inverse) const {
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }

  // Butterflies on raw re/im pairs with table twiddles: no dependent
  // w *= wlen chain and no Annex-G complex-multiply library calls.
  // Each (stage, block) is one simd fft_bfly call over `half` complex
  // values — both halves and the twiddles are contiguous, so the op
  // vectorizes the j loop; blocks are processed in the same order on
  // every call, keeping line_fft bitwise deterministic within a tier.
  const simd::Ops& ops = simd::ops();
  double* ad = reinterpret_cast<double*>(a);
  const double sgn = inverse ? -1.0 : 1.0;
  std::size_t toff = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* tw = tw_.data() + 2 * toff;
    for (std::size_t i = 0; i < n; i += len)
      ops.fft_bfly(ad + 2 * i, ad + 2 * (i + half), tw, sgn, half);
    toff += half;
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
  // 3 passes of n^2 one-dimensional transforms, 5 n log2 n flops each.
  const std::uint64_t one_d = 5ull * n_ * static_cast<std::uint64_t>(log2n_);
  return 3ull * n_ * n_ * one_d;
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
      const Complex zk = ln[k], zm = ln[(n - k) & (n - 1)];
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
  // and imaginary parts are the two real lines. The DC and Nyquist bins
  // of a real line are real, so only their real parts enter.
  const std::size_t nl = s * s;
  for (std::size_t l = 0; l < nl; l += 2) {
    const bool pair = l + 1 < nl;
    const Complex* a = &at(l / s, l % s, 0);
    const Complex* b = pair ? &at((l + 1) / s, (l + 1) % s, 0) : nullptr;
    for (std::size_t k = 0; k < hx; ++k) {
      const double ar = a[k].real(), ai = a[k].imag();
      const double br = b ? b[k].real() : 0.0, bi = b ? b[k].imag() : 0.0;
      if (k == 0 || k == n / 2) {
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
  const std::uint64_t one_d = 5ull * n_ * static_cast<std::uint64_t>(log2n_);
  return real_lines(s) * one_d + (s * s + 1) / 2 * 8ull * (n_ / 2 + 1);
}

std::uint64_t Fft3d::c2r_flops(std::size_t s) const {
  const std::uint64_t one_d = 5ull * n_ * static_cast<std::uint64_t>(log2n_);
  return real_lines(s) * one_d + (s * s + 1) / 2 * 4ull * (n_ / 2 + 1);
}

std::size_t next_pow2(std::size_t x) {
  // Largest representable power of two; beyond it the doubling loop
  // would shift p to zero and spin forever.
  constexpr std::size_t kMaxPow2 =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  PKIFMM_CHECK_MSG(x <= kMaxPow2,
                   "next_pow2: " << x << " exceeds the largest size_t power "
                                 << "of two (" << kMaxPow2 << ")");
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
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

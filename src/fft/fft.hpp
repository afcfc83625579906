#pragma once
/// \file fft.hpp
/// \brief Mixed-radix (2, 3) FFTs (complex and pruned real 3-D) and 3-D
/// circular convolution.
///
/// The paper's V-list translation is diagonalized by FFT: equivalent
/// densities live on the surface points of a regular lattice, so the
/// check-potential evaluation is a lattice convolution. pkifmm pads the
/// lattice to grid_size(2n-1), the smallest 3-smooth multiple of 4 that
/// makes the circular convolution exact (12 at the default n = 6), and
/// uses one iterative mixed-radix transform; FFTW is deliberately not a
/// dependency (unavailable substrate, see DESIGN.md).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pkifmm::fft {

using Complex = std::complex<double>;

/// In-place power-of-two complex FFT. inverse=true applies the inverse
/// transform including the 1/n normalization.
void fft_inplace(std::span<Complex> a, bool inverse);

/// Plan-like object for n x n x n transforms, n = 2^a * 3^b at most
/// Fft3d::kMaxN. Precomputes twiddle factors and the digit-reversal
/// permutation. A line transform is one decimation-in-time pass: the
/// input is digit-reversed, then the radix-3 stages run (Ops::fft_bfly3),
/// then the radix-2 stages (Ops::fft_bfly), so a power-of-two n runs
/// exactly the radix-2 engine.
///
/// Two transform pairs share the plan:
///  - complex-to-complex forward/inverse, in place on a full volume
///    stored as v[(z*n + y)*n + x];
///  - the pruned real pair forward_r2c/inverse_c2r used by the V-list.
///    A real volume that is zero outside the corner support cube
///    [0, s)^3 is passed as that s^3 cube (c[(z*s + y)*s + x]); its
///    spectrum is kept as the Hermitian half h[(kz*n + ky)*hx + kx]
///    with hx = n/2 + 1 (the other kx follow from X(-k) = conj X(k)).
///    forward_r2c runs only the lines that can be nonzero; inverse_c2r
///    runs only the lines whose outputs land in the support cube.
///
/// Thread-safety contract: after construction a plan is immutable —
/// every transform only reads the twiddle/bit-reversal tables and
/// writes the caller's buffers. core::Evaluator relies on this to run
/// FFT slots on util::TaskPool lanes concurrently against ONE shared
/// plan (each lane transforming its own scratch).
class Fft3d {
 public:
  /// Largest supported edge; bounds the c2c transform's stack line.
  static constexpr std::size_t kMaxN = 1024;

  explicit Fft3d(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t volume() const { return n_ * n_ * n_; }
  /// Complex elements of a Hermitian half spectrum: n * n * (n/2 + 1).
  std::size_t half_volume() const { return n_ * n_ * (n_ / 2 + 1); }

  void forward(std::span<Complex> vol) const;
  /// Inverse including the 1/n^3 normalization.
  void inverse(std::span<Complex> vol) const;

  /// Flops of one 3-D c2c transform: 3 n^2 line FFTs. A line FFT
  /// costs 10 flops per radix-2 butterfly (n/2 per radix-2 stage;
  /// 5 n log2 n for a power of two, the standard complex-FFT model)
  /// plus 28 per radix-3 butterfly (n/3 per radix-3 stage).
  std::uint64_t transform_flops() const;

  /// Pruned real-to-complex forward transform of the real s^3 support
  /// cube `in` (1 <= s <= n) into the half spectrum `out`
  /// (half_volume() elements; every element is written). The x pass
  /// packs two real lines into one complex FFT; all-zero y and z lines
  /// are skipped. `line` is caller scratch of n() elements.
  void forward_r2c(std::span<const double> in, std::size_t s,
                   std::span<Complex> out, std::span<Complex> line) const;

  /// Pruned complex-to-real inverse (including 1/n^3) of the half
  /// spectrum `spec` of a real volume; writes only the s^3 corner cube
  /// to `out`. `spec` is used as workspace and left overwritten. Lines
  /// whose outputs all fall outside the cube are skipped; the x pass
  /// recovers two real lines from one complex FFT. `line` is caller
  /// scratch of n() elements.
  void inverse_c2r(std::span<Complex> spec, std::size_t s,
                   std::span<double> out, std::span<Complex> line) const;

  /// 1-D line FFTs one forward_r2c or inverse_c2r at support s runs:
  /// ceil(s^2/2) packed x lines + s*(n/2+1) y lines + n*(n/2+1) z lines.
  std::uint64_t real_lines(std::size_t s) const;
  /// Flops of forward_r2c at support s: real_lines(s) line FFTs,
  /// plus 8 flops per half-line bin to split each packed
  /// x line into its two real lines' spectra.
  std::uint64_t r2c_flops(std::size_t s) const;
  /// Flops of inverse_c2r at support s: real_lines(s) line FFTs,
  /// plus 4 flops per half-line bin to pack two Hermitian
  /// lines into one complex line.
  std::uint64_t c2r_flops(std::size_t s) const;

 private:
  void transform(std::span<Complex> vol, bool inverse) const;
  /// One contiguous n-element line, using the precomputed twiddle and
  /// digit-reversal tables (raw re/im butterflies — no libcall-per-
  /// multiply complex arithmetic).
  void line_fft(Complex* a, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint8_t> radix_;  ///< stage radices, 3s then 2s
  /// Per-stage twiddles (forward sign): a radix-2 stage combining
  /// length-m transforms holds w^j, a radix-3 stage w^j then w^2j, for
  /// j < m and w = exp(-2 pi i / (radix m)).
  std::vector<double> tw_;
  /// Digit-reversal permutation as a swap sequence (index pairs applied
  /// in order); for a power of two, the bit-reversal swaps.
  std::vector<std::uint32_t> swaps_;
  std::uint64_t line_flops_ = 0;  ///< flops of one line FFT
};

/// The V-list FFT grid edge for a lattice that needs at least `min`
/// points per axis: the smallest multiple of 4 of the form 2^a * 3^b
/// that is >= min (4, 8, 12, 16, 24, ...). A multiple of 4 keeps every
/// half spectrum a multiple of 16 complex values. Throws CheckFailure
/// past Fft3d::kMaxN.
std::size_t grid_size(std::size_t min);

/// Pointwise multiply-accumulate in frequency space:
/// acc[i] += g[i] * f[i]. This is the "diagonal translation" the paper
/// runs on the GPU.
void pointwise_mac(std::span<const Complex> g, std::span<const Complex> f,
                   std::span<Complex> acc);

/// One frequency chunk of the chunk-major V-list sweep: entry e does
/// acc_base[aidx[e]*c + i] += g[i] * f_base[fidx[e]*c + i] for
/// i in [0, c). Callers store spectra and accumulators chunk-major
/// (all slots' values for one c-frequency chunk contiguous), so a
/// sweep with the chunk loop OUTSIDE the entry loop touches only
/// c complex values per referenced slot — the whole level's diagonal
/// translation runs out of L2 instead of re-streaming full volumes
/// per pair (see core::Evaluator::vli_fft). fidx and aidx
/// must have equal length.
void pointwise_mac_chunked(const Complex* g, std::size_t c,
                           const Complex* f_base, Complex* acc_base,
                           std::span<const std::int32_t> fidx,
                           std::span<const std::int32_t> aidx);

}  // namespace pkifmm::fft

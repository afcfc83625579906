#pragma once
/// \file kernels.hpp
/// \brief FMM device kernels for the streaming emulator (paper §IV).
///
/// Implemented in single precision for the Laplace kernel (the paper's
/// GPU configuration): ULI (Algorithm 4: tiled direct interactions with
/// the IEEE NaN/max self-interaction trick), S2U check-potential
/// evaluation and D2T (both exploit the regular surface-lattice
/// positions held in constant/shared memory, the paper's ">50x"
/// kernels), and the diagonal (frequency-space) V-list translation.

#include <complex>

#include "core/tables.hpp"
#include "gpu/device.hpp"
#include "gpu/soa.hpp"

namespace pkifmm::gpu {

/// Device-resident state shared by the per-phase kernels; building it
/// performs the host->device uploads once per evaluation.
struct Workspace {
  DeviceBuffer<float> sx, sy, sz, sq;  ///< sources
  DeviceBuffer<float> tx, ty, tz;      ///< padded targets
  DeviceBuffer<float> f;               ///< padded target potentials
};

Workspace make_workspace(StreamDevice& dev, const GpuLet& g);

/// Algorithm 4: per-chunk tiled U-list direct evaluation, accumulating
/// into ws.f. Returns total device flops (for the science-flop ledger).
std::uint64_t run_uli(StreamDevice& dev, const GpuLet& g, Workspace& ws);

/// Upward-check potentials for every target box: m values per box,
/// returned host-side (device->host transfer charged). `unit` is the
/// unit surface lattice (3m floats, treated as constant memory);
/// `radius` the surface radius scale.
std::vector<float> run_s2u_check(StreamDevice& dev, const GpuLet& g,
                                 const std::vector<float>& unit,
                                 float radius, std::uint64_t* flops);

/// D2T: evaluates each box's downward equivalent density (m values per
/// box, in box order) at the box's padded targets, accumulating into
/// ws.f.
std::uint64_t run_d2t(StreamDevice& dev, const GpuLet& g,
                      const std::vector<float>& unit, float radius,
                      const std::vector<float>& d_per_box, Workspace& ws);

/// Diagonal V-list translation batch: per-target accumulation of
/// pointwise products of source spectra with translation spectra.
struct VliBatch {
  std::size_t vol = 0;  ///< spectrum length (complex elements)
  std::vector<std::complex<float>> src_spectra;  ///< nsrc x vol
  std::vector<std::complex<float>> g_spectra;    ///< noffsets x vol
  /// CSR pair lists per target: pairs [target_offset[t], target_offset[t+1]).
  std::vector<std::int32_t> pair_src, pair_g;
  std::vector<std::int32_t> target_offset;
};

/// Returns ntargets x vol accumulated spectra (host side; transfers
/// charged in both directions). Also reports device flops.
std::vector<std::complex<float>> run_vli_diag(StreamDevice& dev,
                                              const VliBatch& batch,
                                              std::uint64_t* flops);

/// Downloads ws.f and scatter-adds the valid entries into the
/// double-precision potential array aligned with Let::points.
void scatter_potentials(StreamDevice& dev, const GpuLet& g,
                        const Workspace& ws, std::span<double> f_out);

/// W-list on the device (the paper's stated "ongoing work", §IV): for
/// each target box, evaluates the upward equivalent densities of its
/// W-list members directly at the box's padded targets, accumulating
/// into ws.f. `u_per_slot` holds m single-precision equivalent
/// densities per W-source slot (GpuLet::wsrc_* order); `unit` is the
/// unit equivalent-surface lattice and `radius` its scale.
std::uint64_t run_wli(StreamDevice& dev, const GpuLet& g,
                      const std::vector<float>& unit, float radius,
                      const std::vector<float>& u_per_slot, Workspace& ws);

/// X-list on the device: for each target box, evaluates the X-list
/// members' source points at the box's downward-check surface points
/// (synthesized from the unit lattice at `radius`); returns m check
/// values per box, host side.
std::vector<float> run_xli(StreamDevice& dev, const GpuLet& g,
                           const std::vector<float>& unit, float radius,
                           std::uint64_t* flops);

}  // namespace pkifmm::gpu

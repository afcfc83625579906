#pragma once
/// \file hw.hpp
/// \brief Process peak resident-set size.
///
/// The one process-wide memory figure the benches print next to the
/// owner-reported byte gauges (`mem.let.*`, `mem.eval.*`; DESIGN.md
/// "Memory telemetry"). Ranks are threads of one process, so the peak
/// cannot be attributed to a rank or a phase; structures report what
/// they own instead.

#include <cstdint>

namespace pkifmm::obs {

/// Peak resident-set size of the process (VmHWM, falling back to
/// getrusage ru_maxrss). Monotone non-decreasing over process life.
std::uint64_t peak_rss_bytes();

}  // namespace pkifmm::obs

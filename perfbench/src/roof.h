// In-process roofline probe: STREAM-triad bandwidth and an FMA peak
// loop, both run on `threads` OpenMP threads, so a kernel's achieved
// rate can be stated as a fraction of this machine's measured roofs.
#pragma once

#include <cstddef>

namespace perfbench {

struct Roof {
  double triad_gbs = 0.0;   ///< Best of several passes, 3 arrays counted.
  double fma_gflops = 0.0;  ///< Best of several passes.
  std::size_t triad_array_bytes = 0;  ///< Size of each of the 3 arrays.
};

/// Each triad array is at least 4 x `llc_bytes`, so the measurement
/// streams from memory rather than from the last-level cache.
Roof measure_roof(std::size_t llc_bytes, int threads);

}  // namespace perfbench

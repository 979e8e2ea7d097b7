#include "roof.h"

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>

#include "spans.h"

namespace perfbench {

namespace {

struct FreeAligned {
  void operator()(float* p) const {
    ::operator delete(p, std::align_val_t{64});
  }
};
using Array = std::unique_ptr<float, FreeAligned>;

Array make_array(std::size_t n) {
  return Array(static_cast<float*>(
      ::operator new(n * sizeof(float), std::align_val_t{64})));
}

double triad_gbs(std::size_t n, int threads) {
  Array a = make_array(n);
  Array b = make_array(n);
  Array c = make_array(n);
  float* pa = a.get();
  float* pb = b.get();
  float* pc = c.get();
  // First touch by the threads that stream the arrays later.
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    pa[i] = 0.0f;
    pb[i] = 1.0f;
    pc[i] = 2.0f;
  }
  const float s = 3.0f;
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) {
      pa[i] = pb[i] + s * pc[i];
    }
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(float)) /
                              dt / 1e9);
  }
  return best;
}

using Vec = float __attribute__((vector_size(64)));
constexpr int kChains = 12;
constexpr int kLanes = sizeof(Vec) / sizeof(float);

double fma_gflops(int threads) {
  const std::int64_t iters = 60'000'000;
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    float sink = 0.0f;
    const double t0 = now_s();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
    {
      // Seeds depend on the thread number, so nothing folds at compile
      // time; independent chains keep every FMA pipe busy.
      const float seed = 1.0f + 1e-7f * static_cast<float>(omp_get_thread_num());
      Vec acc[kChains];
      for (int k = 0; k < kChains; ++k) {
        for (int l = 0; l < kLanes; ++l) {
          acc[k][l] = seed + 1e-6f * static_cast<float>(k * kLanes + l);
        }
      }
      const Vec mul = acc[0] * 0.0f + 0.999999f;
      const Vec add = acc[0] * 0.0f + 1e-7f;
      for (std::int64_t i = 0; i < iters; ++i) {
        for (int k = 0; k < kChains; ++k) {
          acc[k] = acc[k] * mul + add;
        }
      }
      for (int k = 0; k < kChains; ++k) {
        for (int l = 0; l < kLanes; ++l) {
          sink += acc[k][l];
        }
      }
    }
    const double dt = now_s() - t0;
    volatile float keep = sink;
    (void)keep;
    const double flops = 2.0 * kLanes * kChains * static_cast<double>(iters) *
                         threads;
    best = std::max(best, flops / dt / 1e9);
  }
  return best;
}

}  // namespace

Roof measure_roof(std::size_t llc_bytes, int threads) {
  Roof r;
  const std::size_t n =
      std::max<std::size_t>(4 * llc_bytes, std::size_t{64} << 20) /
      sizeof(float);
  r.triad_array_bytes = n * sizeof(float);
  r.triad_gbs = triad_gbs(n, threads);
  r.fma_gflops = fma_gflops(threads);
  return r;
}

}  // namespace perfbench

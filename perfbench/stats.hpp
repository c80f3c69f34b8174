// The benchmark's own arithmetic, kept free of any ARES dependency so
// selftest.cpp can check it in isolation: nearest-rank percentiles and the
// tail-sample rule, window deltas of process counters, batch member
// counting, and the ratios the per-layer report is built from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Percentiles are given in per-mille so the rank arithmetic stays exact:
/// p50 = 500, p99 = 990.
inline constexpr std::uint32_t kP50 = 500;
inline constexpr std::uint32_t kP99 = 990;

/// A reported tail percentile needs at least this many samples above it.
inline constexpr std::size_t kMinTailSamples = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples:
/// ceil(n * pm / 1000), at least 1.
inline std::size_t nearest_rank(std::size_t n, std::uint32_t pm) {
  if (n == 0) throw std::invalid_argument("nearest_rank: no samples");
  if (pm > 1000) throw std::invalid_argument("nearest_rank: pm > 1000");
  const std::size_t r = (n * pm + 999) / 1000;
  return std::max<std::size_t>(r, 1);
}

/// Samples strictly beyond the nearest-rank percentile.
inline std::size_t samples_beyond(std::size_t n, std::uint32_t pm) {
  return n - nearest_rank(n, pm);
}

/// True when `n` samples support reporting percentile `pm`.
inline bool tail_supported(std::size_t n, std::uint32_t pm) {
  return n > 0 && samples_beyond(n, pm) >= kMinTailSamples;
}

/// Nearest-rank percentile of `v` (copied, then partially sorted).
inline double percentile(std::vector<double> v, std::uint32_t pm) {
  const std::size_t r = nearest_rank(v.size(), pm);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   v.end());
  return v[r - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), kP50);
}

/// Sizes of the consecutive blocks `n` ordered samples split into: n / block
/// blocks of `block` samples, the remainder joining the last block. Fewer
/// than `block` samples form a single block.
inline std::vector<std::size_t> block_sizes(std::size_t n, std::size_t block) {
  if (n == 0) return {};
  if (block == 0 || n < block) return {n};
  std::vector<std::size_t> sizes(n / block, block);
  sizes.back() += n % block;
  return sizes;
}

/// Median over blocks of each block's percentile `pm`: one burst of
/// interference moves a block, not the reported figure.
inline double blocked_percentile(const std::vector<double>& ordered,
                                 std::uint32_t pm, std::size_t block) {
  std::vector<double> per_block;
  std::size_t at = 0;
  for (std::size_t size : block_sizes(ordered.size(), block)) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(at);
    per_block.push_back(percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(size)),
        pm));
    at += size;
  }
  return median(std::move(per_block));
}

/// True when every block of `n` samples supports percentile `pm`.
inline bool blocks_support(std::size_t n, std::uint32_t pm, std::size_t block) {
  const auto sizes = block_sizes(n, block);
  return !sizes.empty() &&
         std::all_of(sizes.begin(), sizes.end(),
                     [pm](std::size_t s) { return tail_supported(s, pm); });
}

/// Which slices of a window to measure: those in which the hypervisor stole
/// at most `max_steal` of the host's CPU time, or, when fewer than
/// `min_slices` qualify, the `min_slices` least-stolen ones (ties in slice
/// order). Steal is an outside signal, not the metric, so the selection
/// does not favour a faster or slower program.
inline std::vector<bool> quiet_slices(const std::vector<double>& steal,
                                      double max_steal,
                                      std::size_t min_slices) {
  std::vector<bool> keep(steal.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    keep[i] = steal[i] <= max_steal;
    kept += keep[i] ? 1 : 0;
  }
  if (kept >= min_slices || kept == steal.size()) return keep;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  keep.assign(steal.size(), false);
  for (std::size_t i = 0; i < std::min(min_slices, order.size()); ++i) {
    keep[order[i]] = true;
  }
  return keep;
}

/// Process-wide counters sampled at a window boundary.
struct Usage {
  double cpu_us = 0;                 // user + system
  std::int64_t ctx_switches = 0;     // voluntary + involuntary
  std::uint64_t frames_sent = 0;     // every transport of the cluster
  std::uint64_t frames_dropped = 0;
  std::uint64_t retransmits = 0;
};

/// Counters accrued between two samples (`from` taken first).
inline Usage window_delta(const Usage& from, const Usage& to) {
  return Usage{to.cpu_us - from.cpu_us, to.ctx_switches - from.ctx_switches,
               to.frames_sent - from.frames_sent,
               to.frames_dropped - from.frames_dropped,
               to.retransmits - from.retransmits};
}

/// `total` spread over `ops` operations; 0 when nothing completed.
inline double per_op(double total, std::uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

/// Member-op accounting: a read_batch call of 8 keys attempts 8 ops; each
/// member whose status is Ok completes one.
struct OpTally {
  std::uint64_t calls = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;

  void add_call(std::size_t members, std::size_t ok_members) {
    ++calls;
    attempted += members;
    completed += ok_members;
  }
  [[nodiscard]] std::uint64_t failed() const { return attempted - completed; }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// a / b, or 0 when b is not positive. A layer's share of an operation is
/// ratio(that layer's mean time per call, the traced p50 of that call kind).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Little's law: mean time in queue = mean queue depth / arrival rate.
inline double littles_wait_us(double mean_depth, double arrivals_per_s) {
  return arrivals_per_s > 0 ? mean_depth / arrivals_per_s * 1e6 : 0.0;
}

}  // namespace perfbench

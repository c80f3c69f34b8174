// Self-tests of the benchmark's arithmetic (stats.hpp). Exits non-zero on
// the first failed check; run.py runs it before every benchmark run.
#include "stats.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void nearest_rank_percentile() {
  using namespace perfbench;
  check(nearest_rank(1, kP50) == 1, "rank of p50 in 1 sample");
  check(nearest_rank(1, kP99) == 1, "rank of p99 in 1 sample");
  check(nearest_rank(10, kP50) == 5, "rank of p50 in 10 samples");
  check(nearest_rank(11, kP50) == 6, "rank of p50 in 11 samples");
  check(nearest_rank(1000, kP99) == 990, "rank of p99 in 1000 samples");
  check(nearest_rank(1001, kP99) == 991, "rank of p99 in 1001 samples");
  check(nearest_rank(100, 1000) == 100, "rank of p100 is the maximum");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  check(near(percentile(v, kP50), 50), "p50 of 1..100 is 50");
  check(near(percentile(v, kP99), 99), "p99 of 1..100 is 99");
  check(near(median({3, 1, 2}), 2), "median of three");
  check(near(median({4, 1, 3, 2}), 2), "nearest-rank median of four is 2");

  bool threw = false;
  try {
    (void)nearest_rank(0, kP50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of no samples throws");
}

void tail_sample_rule() {
  using namespace perfbench;
  check(samples_beyond(1000, kP99) == 10, "1000 samples: 10 beyond p99");
  check(tail_supported(1000, kP99), "1000 samples support p99");
  check(samples_beyond(999, kP99) == 9, "999 samples: 9 beyond p99");
  check(!tail_supported(999, kP99), "999 samples do not support p99");
  check(tail_supported(20, kP50), "20 samples support p50");
  check(!tail_supported(19, kP50), "19 samples do not support p50");
  check(!tail_supported(0, kP50), "no samples support nothing");
}

void blocked_percentiles() {
  using namespace perfbench;
  check(block_sizes(0, 1000).empty(), "no samples, no blocks");
  check(block_sizes(999, 1000) == std::vector<std::size_t>{999},
        "fewer than a block form one block");
  check(block_sizes(2500, 1000) == std::vector<std::size_t>({1000, 1500}),
        "the remainder joins the last block");
  check(blocks_support(2500, kP99, 1000), "blocks of 1000+ support p99");
  check(!blocks_support(999, kP99, 1000), "a short single block does not");
  check(!blocks_support(0, kP99, 1000), "no samples support nothing");

  // Three blocks of 1..1000; the middle one shifted by a burst of +500.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i + (b == 1 ? 500 : 0));
  }
  check(near(blocked_percentile(v, kP99, 1000), 990),
        "median of block p99s ignores one disturbed block");
  check(near(blocked_percentile(v, kP50, 1000), 500), "median of block p50s");
  check(near(blocked_percentile({5, 1, 3}, kP50, 1000), 3),
        "a single short block is its own percentile");
}

void quiet_slice_selection() {
  using namespace perfbench;
  const std::vector<double> steal{0.0, 0.3, 0.01, 0.05, 0.0};
  check(quiet_slices(steal, 0.02, 3) ==
            std::vector<bool>({true, false, true, false, true}),
        "slices under the steal limit are kept");
  check(quiet_slices(steal, 0.02, 4) ==
            std::vector<bool>({true, false, true, true, true}),
        "too few quiet slices: the least-stolen ones are kept");
  check(quiet_slices(steal, 0.0, 9) == std::vector<bool>(5, true),
        "a window shorter than the minimum keeps every slice");
  check(quiet_slices({0.1, 0.1, 0.1}, 0.02, 2) ==
            std::vector<bool>({true, true, false}),
        "ties keep the earlier slices");
}

void window_deltas_exclude_warmup() {
  using namespace perfbench;
  // Samples at process start, at the end of warm-up and at the window end.
  const Usage at_start{0, 0, 0, 0, 0};
  const Usage at_warm{5'000, 400, 900, 0, 0};
  const Usage at_end{25'000, 1'400, 4'900, 2, 1};
  const Usage w = window_delta(at_warm, at_end);
  check(near(w.cpu_us, 20'000), "window CPU excludes warm-up CPU");
  check(w.ctx_switches == 1'000, "window switches exclude warm-up");
  check(w.frames_sent == 4'000, "window frames exclude warm-up");
  check(w.frames_dropped == 2 && w.retransmits == 1, "window drop counts");
  const std::uint64_t window_ops = 100;
  check(near(per_op(w.cpu_us, window_ops), 200), "cpu_us_per_op");
  check(near(per_op(static_cast<double>(w.ctx_switches), window_ops), 10),
        "ctx_switches_per_op");
  check(!near(per_op(window_delta(at_start, at_end).cpu_us, window_ops), 200),
        "a whole-run delta would differ");
  check(near(per_op(1.0, 0), 0), "per_op of no ops is 0");
}

void batch_member_counting() {
  using namespace perfbench;
  OpTally t;
  t.add_call(8, 8);  // a read_batch of 8
  t.add_call(1, 1);  // a scalar write
  t.add_call(8, 7);  // a read_batch with one failed member
  check(t.calls == 3, "three calls");
  check(t.attempted == 17, "batch members each count as an op");
  check(t.completed == 16, "only Ok members complete");
  check(t.failed() == 1, "one failed member");
  check(near(t.failed_frac(), 1.0 / 17), "failed fraction over attempted");
  check(near(OpTally{}.failed_frac(), 0), "empty tally");
}

void shares_and_bases() {
  using namespace perfbench;
  // Codec time per read call over the traced read p50.
  check(near(ratio(1'050, 2'100), 0.5), "codec read share");
  check(near(ratio(5, 500), 0.01), "small share");
  check(near(ratio(1, 0), 0), "zero base gives 0, not inf");
  // Little's law: 2 frames queued on average at 10k frames/s wait 200 us.
  check(near(littles_wait_us(2, 10'000), 200), "Little's law");
  check(near(littles_wait_us(2, 0), 0), "no arrivals");
}

}  // namespace

int main() {
  nearest_rank_percentile();
  tail_sample_rule();
  blocked_percentiles();
  quiet_slice_selection();
  window_deltas_exclude_warmup();
  batch_member_counting();
  shares_and_bases();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}

// E14 — codec micro-benchmarks (google-benchmark): GF(2^8) primitives, the
// region-multiply kernels, and Reed-Solomon encode/decode throughput across
// object sizes and [n, k].
#include "codec/codec.hpp"
#include "codec/gf256.hpp"
#include "common/types.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace ares;
using namespace ares::codec;

void BM_GfMul(benchmark::State& state) {
  std::uint8_t acc = 1;
  std::uint8_t x = 3;
  for (auto _ : state) {
    acc = GF256::mul(acc, x);
    x = static_cast<std::uint8_t>(x + 2) | 1;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_GfMul);

void BM_GfInv(benchmark::State& state) {
  std::uint8_t x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GF256::inv(x));
    x = static_cast<std::uint8_t>(x + 1);
    if (x == 0) x = 1;
  }
}
BENCHMARK(BM_GfInv);

// dst ^= c * src over one region, for each kernel behind
// GF256::mul_add_region (args: kernel 0 = portable / 1 = AVX2, length).
void BM_GfMulAddRegion(benchmark::State& state) {
  const bool avx2 = state.range(0) == 1;
  const auto len = static_cast<std::size_t>(state.range(1));
  const detail::RegionKernel kernel =
      avx2 ? detail::avx2_kernel() : &detail::mul_add_region_portable;
  if (kernel == nullptr) {
    state.SkipWithError("CPU has no AVX2");
    return;
  }
  const Value src = make_test_value(len, 1);
  Value dst = make_test_value(len, 2);
  GF256::Elem c = 2;
  for (auto _ : state) {
    kernel(c, src.data(), dst.data(), len);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
    c = static_cast<GF256::Elem>(c == 255 ? 2 : c + 1);
  }
  state.SetLabel(avx2 ? "avx2" : "portable");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_GfMulAddRegion)
    ->Args({0, 4096})
    ->Args({0, 21846})
    ->Args({1, 4096})
    ->Args({1, 21846});

void BM_RsEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto size = static_cast<std::size_t>(state.range(2));
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(size, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(v));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_RsEncode)
    ->Args({5, 3, 4096})
    ->Args({5, 3, 65536})
    ->Args({5, 3, 1 << 20})
    ->Args({9, 7, 65536})
    ->Args({14, 10, 65536});

void BM_RsEncodeOne(benchmark::State& state) {
  ReedSolomonCodec codec(9, 7);
  const Value v = make_test_value(65536, 1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode_one(v, i));
    i = (i + 1) % 9;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_RsEncodeOne);

void BM_RsDecode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto size = static_cast<std::size_t>(state.range(2));
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(size, 1);
  auto frags = codec.encode(v);
  // Worst case: decode from the *last* k fragments (all parity).
  std::vector<Fragment> subset(frags.end() - static_cast<std::ptrdiff_t>(k),
                               frags.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(subset));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_RsDecode)
    ->Args({5, 3, 4096})
    ->Args({5, 3, 65536})
    ->Args({5, 3, 1 << 20})
    ->Args({9, 7, 65536})
    ->Args({14, 10, 65536});

void BM_RsDecodeSystematic(benchmark::State& state) {
  // Best case: the k systematic fragments (identity submatrix).
  ReedSolomonCodec codec(5, 3);
  const Value v = make_test_value(65536, 1);
  auto frags = codec.encode(v);
  std::vector<Fragment> subset(frags.begin(), frags.begin() + 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(subset));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_RsDecodeSystematic);

void BM_ReplicationEncode(benchmark::State& state) {
  ReplicationCodec codec(3);
  const Value v = make_test_value(65536, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(v));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_ReplicationEncode);

}  // namespace

BENCHMARK_MAIN();

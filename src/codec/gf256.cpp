#include "codec/gf256.hpp"

#include <cassert>

#if defined(__x86_64__) || defined(__i386__)
#define ARES_GF256_X86 1
#include <immintrin.h>
#endif

namespace ares::codec {

#ifdef ARES_GF256_X86
namespace {

// Compiled for AVX2 whatever the build's -march; reached only through
// detail::avx2_kernel(), which checks the CPU first.
__attribute__((target("avx2"))) void mul_add_avx2(GF256::Elem c,
                                                  const GF256::Elem* src,
                                                  GF256::Elem* dst,
                                                  std::size_t len) {
  // Multiplying by c is linear over XOR, so c*x == lo[x & 15] ^ hi[x >> 4]
  // and vpshufb looks up 32 nibbles at once (Plank, Greenan, Miller,
  // "Screaming Fast Galois Field Arithmetic Using Intel SIMD Instructions",
  // FAST 2013).
  alignas(16) GF256::Elem lo[16];
  alignas(16) GF256::Elem hi[16];
  for (unsigned x = 0; x < 16; ++x) {
    lo[x] = GF256::mul(c, static_cast<GF256::Elem>(x));
    hi[x] = GF256::mul(c, static_cast<GF256::Elem>(x << 4));
  }
  const __m256i lo_v = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i hi_v = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_v, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi_v,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), p));
  }
  for (; i < len; ++i) dst[i] ^= lo[src[i] & 0x0F] ^ hi[src[i] >> 4];
}

}  // namespace
#endif

namespace detail {

void mul_add_region_portable(GF256::Elem c, const GF256::Elem* src,
                             GF256::Elem* dst, std::size_t len) {
  std::array<GF256::Elem, 256> row{};
  for (unsigned x = 0; x < 256; ++x) {
    row[x] = GF256::mul(c, static_cast<GF256::Elem>(x));
  }
  for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
}

RegionKernel avx2_kernel() {
#ifdef ARES_GF256_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? &mul_add_avx2 : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace detail

void GF256::mul_add_region(Elem c, const Elem* src, Elem* dst,
                           std::size_t len) {
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= src[i];
    return;
  }
  static const detail::RegionKernel avx2 = detail::avx2_kernel();
  (avx2 ? avx2 : &detail::mul_add_region_portable)(c, src, dst, len);
}

const GF256::Tables& GF256::tables() {
  static const Tables t = [] {
    Tables tb;
    // Generator 0x03 is primitive for polynomial 0x11B.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      tb.exp[i] = static_cast<Elem>(x);
      tb.exp[i + 255] = static_cast<Elem>(x);
      tb.log[x] = static_cast<std::uint16_t>(i);
      // x *= 3 in GF(2^8): x ^ (x << 1) with reduction.
      unsigned next = x ^ (x << 1);
      if (next & 0x100) next ^= 0x11B;
      x = next & 0xFF;
    }
    tb.log[0] = 0;  // never consulted: mul/div guard zero operands
    return tb;
  }();
  return t;
}

GF256::Elem GF256::inv(Elem a) {
  assert(a != 0 && "division by zero in GF(256)");
  return tables().exp[255 - tables().log[a]];
}

GF256::Elem GF256::div(Elem a, Elem b) {
  assert(b != 0 && "division by zero in GF(256)");
  if (a == 0) return 0;
  return tables().exp[tables().log[a] + 255 - tables().log[b]];
}

GF256::Elem GF256::pow(Elem a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const unsigned idx = (static_cast<unsigned>(tables().log[a]) * e) % 255;
  return tables().exp[idx];
}

}  // namespace ares::codec

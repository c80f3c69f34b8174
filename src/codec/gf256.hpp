// Arithmetic in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11B),
// via log/exp tables built at static-init time. This is the field underlying
// the Reed-Solomon [n, k] MDS codes used by TREAS (n <= 255).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ares::codec {

class GF256 {
 public:
  using Elem = std::uint8_t;

  static constexpr unsigned kFieldSize = 256;

  [[nodiscard]] static Elem add(Elem a, Elem b) { return a ^ b; }
  [[nodiscard]] static Elem sub(Elem a, Elem b) { return a ^ b; }

  [[nodiscard]] static Elem mul(Elem a, Elem b) {
    if (a == 0 || b == 0) return 0;
    return tables().exp[tables().log[a] + tables().log[b]];
  }

  /// Multiplicative inverse. Precondition: a != 0.
  [[nodiscard]] static Elem inv(Elem a);

  /// a / b. Precondition: b != 0.
  [[nodiscard]] static Elem div(Elem a, Elem b);

  /// a^e (e >= 0).
  [[nodiscard]] static Elem pow(Elem a, unsigned e);

  /// dst[i] ^= c * src[i] for i in [0, len): the codec's only bulk
  /// operation. c == 0 skips the region and c == 1 is a plain XOR; any other
  /// c runs the split-nibble AVX2 kernel when the CPU has AVX2 (checked once,
  /// at run time) and the portable product-row kernel otherwise.
  static void mul_add_region(Elem c, const Elem* src, Elem* dst,
                             std::size_t len);

 private:
  struct Tables {
    // exp has 510 entries so mul can skip the mod-255 reduction.
    std::array<Elem, 510> exp{};
    std::array<std::uint16_t, 256> log{};
  };
  static const Tables& tables();
};

/// The kernels behind GF256::mul_add_region, exposed so tests and benches
/// can reach each one whatever the dispatch picks. Both handle every c.
namespace detail {
using RegionKernel = void (*)(GF256::Elem c, const GF256::Elem* src,
                              GF256::Elem* dst, std::size_t len);
void mul_add_region_portable(GF256::Elem c, const GF256::Elem* src,
                             GF256::Elem* dst, std::size_t len);
/// The AVX2 kernel, or nullptr where this build or CPU cannot run it.
[[nodiscard]] RegionKernel avx2_kernel();
}  // namespace detail

}  // namespace ares::codec

// Unit + property tests for the erasure-coding substrate: GF(2^8) field
// axioms, matrix algebra, and the Reed-Solomon / replication codecs.
#include "codec/codec.hpp"
#include "codec/gf256.hpp"
#include "codec/matrix.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace ares::codec {
namespace {

// --- GF(2^8) ----------------------------------------------------------------

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::add(7, 7), 0);
}

TEST(GF256, MultiplicativeIdentity) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 1), a);
    EXPECT_EQ(GF256::mul(1, static_cast<GF256::Elem>(a)), a);
  }
}

TEST(GF256, ZeroAnnihilates) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 0), 0);
  }
}

TEST(GF256, KnownAesProduct) {
  // 0x53 * 0xCA = 0x01 under the AES polynomial — classic test vector.
  EXPECT_EQ(GF256::mul(0x53, 0xCA), 0x01);
}

TEST(GF256, InverseProperty) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, GF256::inv(e)), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionMatchesMulByInverse) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(1, 255));
    EXPECT_EQ(GF256::div(a, b), GF256::mul(a, GF256::inv(b)));
  }
}

TEST(GF256, MultiplicationCommutesAndAssociates) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto c = static_cast<GF256::Elem>(rng.uniform(0, 255));
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    EXPECT_EQ(GF256::mul(a, GF256::mul(b, c)), GF256::mul(GF256::mul(a, b), c));
  }
}

TEST(GF256, DistributesOverAddition) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto c = static_cast<GF256::Elem>(rng.uniform(0, 255));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (unsigned a = 0; a < 256; a += 7) {
    GF256::Elem acc = 1;
    for (unsigned e = 0; e < 10; ++e) {
      EXPECT_EQ(GF256::pow(static_cast<GF256::Elem>(a), e), acc);
      acc = GF256::mul(acc, static_cast<GF256::Elem>(a));
    }
  }
}

// --- Region kernels vs the scalar reference ---------------------------------

/// The reference: the per-byte scalar loop the region kernels replaced.
void reference_mul_add(GF256::Elem c, const GF256::Elem* src, GF256::Elem* dst,
                       std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = GF256::add(dst[i], GF256::mul(c, src[i]));
  }
}

/// Every coefficient, every length 0..97 (both sides of the 32-byte vector
/// width and its tails), at aligned and misaligned offsets. Bytes around
/// the region must stay untouched.
void check_kernel_against_reference(detail::RegionKernel kernel) {
  const Value src_buf = make_test_value(128, 11);
  const Value dst_buf = make_test_value(128, 12);
  const std::pair<std::size_t, std::size_t> offsets[] = {
      {0, 0}, {1, 3}, {3, 1}, {7, 0}, {0, 13}};
  for (unsigned c = 0; c < 256; ++c) {
    const auto e = static_cast<GF256::Elem>(c);
    for (std::size_t len = 0; len <= 97; ++len) {
      for (const auto& [so, dof] : offsets) {
        Value want = dst_buf;
        Value got = dst_buf;
        reference_mul_add(e, src_buf.data() + so, want.data() + dof, len);
        kernel(e, src_buf.data() + so, got.data() + dof, len);
        ASSERT_EQ(got, want) << "c=" << c << " len=" << len << " src+" << so
                             << " dst+" << dof;
      }
    }
  }
}

TEST(GF256Region, PortableKernelMatchesScalarReference) {
  check_kernel_against_reference(&detail::mul_add_region_portable);
}

TEST(GF256Region, Avx2KernelMatchesScalarReference) {
  const detail::RegionKernel avx2 = detail::avx2_kernel();
  if (avx2 == nullptr) GTEST_SKIP() << "CPU has no AVX2";
  check_kernel_against_reference(avx2);
}

TEST(GF256Region, DispatchedRegionMatchesScalarReference) {
  check_kernel_against_reference(&GF256::mul_add_region);
}

// --- Matrix ------------------------------------------------------------------

TEST(Matrix, IdentityMultiplication) {
  Rng rng(4);
  Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m.at(r, c) = static_cast<GF256::Elem>(rng.uniform(0, 255));
    }
  }
  EXPECT_EQ(m.mul(Matrix::identity(4)), m);
  EXPECT_EQ(Matrix::identity(4).mul(m), m);
}

TEST(Matrix, InverseRoundTrip) {
  Rng rng(5);
  int inverted = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Matrix m(5, 5);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) {
        m.at(r, c) = static_cast<GF256::Elem>(rng.uniform(0, 255));
      }
    }
    auto inv = m.inverse();
    if (!inv) continue;  // singular random matrix: rare but possible
    ++inverted;
    EXPECT_EQ(m.mul(*inv), Matrix::identity(5));
    EXPECT_EQ(inv->mul(m), Matrix::identity(5));
  }
  EXPECT_GT(inverted, 40);  // almost all random matrices are invertible
}

TEST(Matrix, SingularMatrixReportsNullopt) {
  Matrix m(3, 3);  // all zeros
  EXPECT_FALSE(m.inverse().has_value());
  // Duplicate rows are singular too.
  Matrix d(2, 2);
  d.at(0, 0) = 3;
  d.at(0, 1) = 5;
  d.at(1, 0) = 3;
  d.at(1, 1) = 5;
  EXPECT_FALSE(d.inverse().has_value());
}

TEST(Matrix, SelectRowsPicksAndOrders) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      m.at(r, c) = static_cast<GF256::Elem>(10 * r + c);
    }
  }
  const Matrix s = m.select_rows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.at(0, 0), 20);
  EXPECT_EQ(s.at(1, 1), 1);
}

TEST(Matrix, SystematicMdsTopIsIdentity) {
  const Matrix g = systematic_mds_matrix(7, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(g.at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(Matrix, SystematicMdsEveryKSubsetInvertible) {
  // The MDS property itself: every k-row submatrix must be invertible.
  const std::size_t n = 8, k = 4;
  const Matrix g = systematic_mds_matrix(n, k);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<bool> pick(n, false);
  std::fill(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(k), true);
  std::sort(pick.begin(), pick.end());
  // Enumerate all C(8,4) = 70 subsets via permutations of the mask.
  std::vector<std::size_t> rows;
  do {
    rows.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (pick[i]) rows.push_back(i);
    }
    EXPECT_TRUE(g.select_rows(rows).inverse().has_value());
  } while (std::next_permutation(pick.begin(), pick.end()));
}

// --- Reed-Solomon codec (parameterized over [n, k]) --------------------------

struct NK {
  std::size_t n, k;
};

class RsCodecTest : public ::testing::TestWithParam<NK> {};

TEST_P(RsCodecTest, RoundTripFromAnyKSubset) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(257, 1000 * n + k);  // not divisible by k
  const auto frags = codec.encode(v);
  ASSERT_EQ(frags.size(), n);

  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // Random k-subset of fragments, shuffled order.
    std::vector<Fragment> subset;
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = rng.uniform(i, n - 1);
      std::swap(idx[i], idx[j]);
      subset.push_back(frags[idx[i]]);
    }
    auto decoded = codec.decode(subset);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
}

TEST_P(RsCodecTest, FragmentSizeIsValueOverK) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const std::size_t size = 6000;
  const Value v = make_test_value(size, 9);
  const auto frags = codec.encode(v);
  // Fragment = 8-byte length header + ceil(size/k) stripe bytes.
  const std::size_t expect = 8 + (size + k - 1) / k;
  for (const auto& f : frags) EXPECT_EQ(f.size(), expect);
}

TEST_P(RsCodecTest, TooFewFragmentsNotDecodable) {
  const auto [n, k] = GetParam();
  if (k == 1) GTEST_SKIP() << "k=1 decodes from any single fragment";
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(make_test_value(100, 3));
  std::vector<Fragment> subset(frags.begin(),
                               frags.begin() + static_cast<std::ptrdiff_t>(k - 1));
  EXPECT_FALSE(codec.is_decodable(subset));
  EXPECT_FALSE(codec.decode(subset).has_value());
}

TEST_P(RsCodecTest, DuplicateIndicesDontCount) {
  const auto [n, k] = GetParam();
  if (k == 1) GTEST_SKIP();
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(make_test_value(100, 4));
  std::vector<Fragment> dup(k, frags[0]);  // k copies of one fragment
  EXPECT_FALSE(codec.is_decodable(dup));
}

TEST_P(RsCodecTest, EncodeOneMatchesFullEncode) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(321, 5);
  const auto frags = codec.encode(v);
  for (std::size_t i = 0; i < n; ++i) {
    const auto one = codec.encode_one(v, static_cast<std::uint32_t>(i));
    EXPECT_EQ(one.index, frags[i].index);
    EXPECT_EQ(*one.data, *frags[i].data);
  }
}

TEST_P(RsCodecTest, EmptyValueRoundTrips) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(Value{});
  std::vector<Fragment> subset(frags.begin(),
                               frags.begin() + static_cast<std::ptrdiff_t>(k));
  auto decoded = codec.decode(subset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

INSTANTIATE_TEST_SUITE_P(
    Params, RsCodecTest,
    ::testing::Values(NK{3, 2}, NK{5, 3}, NK{5, 4}, NK{6, 4}, NK{9, 7},
                      NK{11, 8}, NK{4, 1}, NK{15, 10}, NK{2, 2}, NK{31, 21},
                      NK{64, 48}),
    [](const ::testing::TestParamInfo<NK>& info) {
      return "n" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k);
    });

TEST(RsCodec, SystematicPrefixHoldsRawData) {
  // First k fragments are the raw stripes (systematic code).
  const std::size_t n = 6, k = 3;
  ReedSolomonCodec codec(n, k);
  Value v(300);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(i);
  }
  const auto frags = codec.encode(v);
  const std::size_t stripe = 100;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < stripe; ++j) {
      EXPECT_EQ((*frags[i].data)[8 + j], v[i * stripe + j]);
    }
  }
}

TEST(RsCodec, InconsistentFragmentSetRejected) {
  ReedSolomonCodec codec(5, 2);
  const auto a = codec.encode(make_test_value(100, 1));
  const auto b = codec.encode(make_test_value(200, 2));  // different length
  EXPECT_FALSE(codec.decode({a[0], b[1]}).has_value());
}

TEST(RsCodec, LengthHeaderBeyondStripesRejected) {
  // A forged header claiming more bytes than the k stripes hold must not
  // read past them.
  ReedSolomonCodec codec(5, 3);
  const auto frags = codec.encode(make_test_value(300, 1));  // stripes of 100
  for (const std::uint64_t forged : {301ull, 1000ull, ~0ull}) {
    std::vector<Fragment> subset;
    for (std::size_t i = 0; i < 3; ++i) {
      Value bytes = *frags[i + 2].data;
      for (std::size_t b = 0; b < 8; ++b) {
        bytes[b] = static_cast<std::uint8_t>(forged >> (8 * b));
      }
      subset.push_back(Fragment{frags[i + 2].index, make_value(bytes)});
    }
    EXPECT_FALSE(codec.decode(subset).has_value()) << "length " << forged;
  }
}

TEST(RsCodec, HeaderOnlyFragmentsWithNonzeroLengthRejected) {
  // Header-only fragments carry empty stripes; a non-zero length over them
  // is a forgery (and must not divide by the zero stripe length).
  ReedSolomonCodec codec(5, 3);
  std::vector<Fragment> subset;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Value bytes(8, 0);
    bytes[0] = 5;
    subset.push_back(Fragment{i + 1, make_value(bytes)});
  }
  EXPECT_FALSE(codec.decode(subset).has_value());
}

/// The reference encoder: the per-byte striping and scalar matrix product
/// the codec used before its region kernels. Fragment i is the 8-byte LE
/// length header followed by codeword row i.
std::vector<Value> reference_encode(const Value& v, std::size_t n,
                                    std::size_t k) {
  const Matrix g = systematic_mds_matrix(n, k);
  const std::size_t len = (v.size() + k - 1) / k;
  std::vector<Value> stripes(k, Value(len, 0));
  for (std::size_t i = 0; i < v.size(); ++i) stripes[i / len][i % len] = v[i];
  std::vector<Value> out(n, Value(8 + len, 0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[r][b] = static_cast<std::uint8_t>(
          static_cast<std::uint64_t>(v.size()) >> (8 * b));
    }
    for (std::size_t c = 0; c < k; ++c) {
      reference_mul_add(g.at(r, c), stripes[c].data(), out[r].data() + 8, len);
    }
  }
  return out;
}

TEST(RsCodec, MatchesScalarReferenceOnRandomShapes) {
  // Random [n, k] up to n = 20; value sizes at the edges (0, 1, k-1) and
  // lengths that are not multiples of the 32-byte vector width. Decode is
  // checked from every k-subset when n <= 7, from random ones otherwise.
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(2, 20));
    const auto k = static_cast<std::size_t>(rng.uniform(1, n));
    ReedSolomonCodec codec(n, k);
    const std::size_t sizes[] = {0, 1, k - 1, 31 * k + 5,
                                 static_cast<std::size_t>(rng.uniform(33, 3000))};
    for (const std::size_t size : sizes) {
      const Value v = make_test_value(size, rng.next_u64());
      const auto want = reference_encode(v, n, k);
      const auto frags = codec.encode(v);
      ASSERT_EQ(frags.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(*frags[i].data, want[i])
            << "[" << n << "," << k << "] size " << size << " fragment " << i;
        ASSERT_EQ(*codec.encode_one(v, static_cast<std::uint32_t>(i)).data,
                  want[i]);
      }
      std::vector<int> pick(n, 0);
      std::fill(pick.end() - static_cast<std::ptrdiff_t>(k), pick.end(), 1);
      for (int subsets = 0; n <= 7 || subsets < 20; ++subsets) {
        std::vector<Fragment> subset;
        for (std::size_t i = 0; i < n; ++i) {
          if (pick[i]) subset.push_back(frags[i]);
        }
        const auto decoded = codec.decode(subset);
        ASSERT_TRUE(decoded.has_value());
        ASSERT_EQ(*decoded, v) << "[" << n << "," << k << "] size " << size;
        if (n <= 7) {
          if (!std::next_permutation(pick.begin(), pick.end())) break;
        } else {
          for (std::size_t i = n - 1; i > 0; --i) {
            std::swap(pick[i], pick[rng.uniform(0, i)]);
          }
        }
      }
    }
  }
}

// --- Replication codec --------------------------------------------------------

TEST(ReplicationCodec, EveryFragmentIsFullValue) {
  ReplicationCodec codec(4);
  const Value v = make_test_value(128, 6);
  const auto frags = codec.encode(v);
  ASSERT_EQ(frags.size(), 4u);
  for (const auto& f : frags) EXPECT_EQ(*f.data, v);
  EXPECT_EQ(*codec.decode({frags[2]}), v);
}

TEST(ReplicationCodec, DecodableFromOne) {
  ReplicationCodec codec(3);
  const auto frags = codec.encode(make_test_value(10, 7));
  EXPECT_TRUE(codec.is_decodable({frags[0]}));
  EXPECT_FALSE(codec.is_decodable({}));
}

TEST(MakeCodec, SelectsByK) {
  EXPECT_NE(dynamic_cast<const ReplicationCodec*>(make_codec(5, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<const ReedSolomonCodec*>(make_codec(5, 3).get()),
            nullptr);
}

TEST(MakeCodec, StorageRatioMatchesTheory) {
  // The headline storage claim: RS [n,k] stores n/k of the value size
  // (modulo the 8-byte header), replication stores n.
  const std::size_t size = 100000;
  const Value v = make_test_value(size, 8);
  auto rs = make_codec(6, 4);
  std::size_t rs_total = 0;
  for (const auto& f : rs->encode(v)) rs_total += f.size();
  EXPECT_NEAR(static_cast<double>(rs_total), 6.0 / 4.0 * size, 100.0);

  auto rep = make_codec(3, 1);
  std::size_t rep_total = 0;
  for (const auto& f : rep->encode(v)) rep_total += f.size();
  EXPECT_EQ(rep_total, 3 * size);
}

}  // namespace
}  // namespace ares::codec

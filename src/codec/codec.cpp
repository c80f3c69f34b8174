#include "codec/codec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

namespace ares::codec {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // original value length, LE u64

void put_len(Value& frag, std::uint64_t len) {
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    frag[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::uint64_t get_len(const Value& frag) {
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < kHeaderBytes; ++i) {
    len |= static_cast<std::uint64_t>(frag[i]) << (8 * i);
  }
  return len;
}

/// Pointers to the k zero-padded `len`-byte stripes of v (stripe c is
/// v[c*len, (c+1)*len)). Stripes that run past the end of v are served from
/// `pad`; the others point into v.
std::vector<const std::uint8_t*> stripe_rows(const Value& v, std::size_t k,
                                             std::size_t len, Value& pad) {
  const std::size_t whole = len == 0 ? k : v.size() / len;
  pad.assign((k - whole) * len, 0);
  std::copy(v.begin() + static_cast<std::ptrdiff_t>(whole * len), v.end(),
            pad.begin());
  std::vector<const std::uint8_t*> rows(k);
  for (std::size_t c = 0; c < k; ++c) {
    rows[c] = c < whole ? v.data() + c * len : pad.data() + (c - whole) * len;
  }
  return rows;
}

/// Picks k fragments with distinct indices; nullopt if impossible.
std::optional<std::vector<Fragment>> pick_distinct(
    const std::vector<Fragment>& fragments, std::size_t k, std::size_t n) {
  std::vector<Fragment> picked;
  std::unordered_set<std::uint32_t> seen;
  for (const auto& f : fragments) {
    if (!f.data || f.index >= n || seen.contains(f.index)) continue;
    seen.insert(f.index);
    picked.push_back(f);
    if (picked.size() == k) return picked;
  }
  return std::nullopt;
}

}  // namespace

bool Codec::is_decodable(const std::vector<Fragment>& fragments) const {
  std::unordered_set<std::uint32_t> seen;
  for (const auto& f : fragments) {
    if (f.data && f.index < n()) seen.insert(f.index);
  }
  return seen.size() >= k();
}

// ---------------------------------------------------------------------------
// ReedSolomonCodec
// ---------------------------------------------------------------------------

ReedSolomonCodec::ReedSolomonCodec(std::size_t n, std::size_t k)
    : n_(n), k_(k), generator_(systematic_mds_matrix(n, k)) {
  assert(k >= 1 && k <= n && n <= 255);
  std::vector<std::size_t> parity_rows(n - k);
  for (std::size_t r = k; r < n; ++r) parity_rows[r - k] = r;
  parity_ = generator_.select_rows(parity_rows);
}

std::vector<Fragment> ReedSolomonCodec::encode(const Value& v) const {
  const std::size_t len = (v.size() + k_ - 1) / k_;
  Value pad;
  const auto in = stripe_rows(v, k_, len, pad);
  std::vector<Fragment> out(n_);
  std::vector<std::uint8_t*> rows(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto frag = std::make_shared<Value>(kHeaderBytes + len, 0);
    put_len(*frag, v.size());
    rows[i] = frag->data() + kHeaderBytes;
    out[i] = Fragment{static_cast<std::uint32_t>(i), std::move(frag)};
  }
  // Systematic: the first k fragments are the stripes themselves.
  for (std::size_t c = 0; c < k_; ++c) std::copy_n(in[c], len, rows[c]);
  parity_.apply(in.data(), rows.data() + k_, len);
  return out;
}

Fragment ReedSolomonCodec::encode_one(const Value& v,
                                      std::uint32_t index) const {
  assert(index < n_);
  const std::size_t len = (v.size() + k_ - 1) / k_;
  Value pad;
  const auto in = stripe_rows(v, k_, len, pad);
  Value frag(kHeaderBytes + len, 0);
  put_len(frag, v.size());
  std::uint8_t* row = frag.data() + kHeaderBytes;
  generator_.select_rows({index}).apply(in.data(), &row, len);
  return Fragment{index, std::make_shared<const Value>(std::move(frag))};
}

std::optional<Value> ReedSolomonCodec::decode(
    const std::vector<Fragment>& fragments) const {
  auto picked = pick_distinct(fragments, k_, n_);
  if (!picked) return std::nullopt;

  std::vector<std::size_t> rows(k_);
  std::vector<const std::uint8_t*> in(k_);
  std::size_t len = 0;
  std::uint64_t orig_len = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    const Value& f = *(*picked)[i].data;
    if (f.size() < kHeaderBytes) return std::nullopt;
    rows[i] = (*picked)[i].index;
    in[i] = f.data() + kHeaderBytes;
    if (i == 0) {
      len = f.size() - kHeaderBytes;
      orig_len = get_len(f);
    } else if (f.size() - kHeaderBytes != len || get_len(f) != orig_len) {
      return std::nullopt;  // inconsistent fragment set
    }
  }
  // Fragments come from peers: a forged length header must not reach past
  // the k stripes the payloads actually hold.
  if (orig_len > k_ * len) return std::nullopt;

  auto sub_inv = generator_.select_rows(rows).inverse();
  if (!sub_inv) return std::nullopt;  // cannot happen for an MDS generator
  // The stripes are recovered straight into the value, then the padding cut.
  Value v(k_ * len);
  std::vector<std::uint8_t*> out(k_);
  for (std::size_t c = 0; c < k_; ++c) out[c] = v.data() + c * len;
  sub_inv->apply(in.data(), out.data(), len);
  v.resize(orig_len);
  return v;
}

// ---------------------------------------------------------------------------
// ReplicationCodec
// ---------------------------------------------------------------------------

std::vector<Fragment> ReplicationCodec::encode(const Value& v) const {
  auto shared = std::make_shared<const Value>(v);
  std::vector<Fragment> out(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i] = Fragment{static_cast<std::uint32_t>(i), shared};
  }
  return out;
}

Fragment ReplicationCodec::encode_one(const Value& v,
                                      std::uint32_t index) const {
  assert(index < n_);
  return Fragment{index, std::make_shared<const Value>(v)};
}

std::optional<Value> ReplicationCodec::decode(
    const std::vector<Fragment>& fragments) const {
  for (const auto& f : fragments) {
    if (f.data && f.index < n_) return *f.data;
  }
  return std::nullopt;
}

std::shared_ptr<const Codec> make_codec(std::size_t n, std::size_t k) {
  if (k <= 1) return std::make_shared<ReplicationCodec>(n);
  return std::make_shared<ReedSolomonCodec>(n, k);
}

}  // namespace ares::codec

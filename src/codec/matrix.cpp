#include "codec/matrix.hpp"

#include <algorithm>
#include <cassert>

namespace ares::codec {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::mul(const Matrix& rhs) const {
  assert(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const GF256::Elem a = at(r, c);
      if (a == 0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out.at(r, j) = GF256::add(out.at(r, j), GF256::mul(a, rhs.at(c, j)));
      }
    }
  }
  return out;
}

void Matrix::apply(const std::uint8_t* const* in, std::uint8_t* const* out,
                   std::size_t len) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    std::fill_n(out[r], len, 0);
    for (std::size_t c = 0; c < cols_; ++c) {
      GF256::mul_add_region(at(r, c), in[c], out[r], len);
    }
  }
}

std::optional<Matrix> Matrix::inverse() const {
  assert(rows_ == cols_);
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;  // singular
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a.at(pivot, j), a.at(col, j));
        std::swap(inv.at(pivot, j), inv.at(col, j));
      }
    }
    // Normalize pivot row.
    const GF256::Elem p = a.at(col, col);
    const GF256::Elem pinv = GF256::inv(p);
    for (std::size_t j = 0; j < n; ++j) {
      a.at(col, j) = GF256::mul(a.at(col, j), pinv);
      inv.at(col, j) = GF256::mul(inv.at(col, j), pinv);
    }
    // Eliminate every other row.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const GF256::Elem f = a.at(r, col);
      if (f == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        a.at(r, j) = GF256::add(a.at(r, j), GF256::mul(f, a.at(col, j)));
        inv.at(r, j) = GF256::add(inv.at(r, j), GF256::mul(f, inv.at(col, j)));
      }
    }
  }
  return inv;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] < rows_);
    for (std::size_t j = 0; j < cols_; ++j) out.at(i, j) = at(rows[i], j);
  }
  return out;
}

Matrix systematic_mds_matrix(std::size_t n, std::size_t k) {
  assert(k >= 1 && k <= n && n <= 255);
  // Vandermonde rows over distinct points 0..n-1: any k rows are linearly
  // independent. Post-multiplying by the inverse of the top k x k block
  // keeps that property (product with an invertible matrix) and makes the
  // first k rows the identity, i.e. a systematic MDS generator.
  Matrix v(n, k);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      v.at(r, c) = GF256::pow(static_cast<GF256::Elem>(r), c);
    }
  }
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  auto top_inv = v.select_rows(top).inverse();
  assert(top_inv.has_value());
  return v.mul(*top_inv);
}

}  // namespace ares::codec

// Minimal dense row-major matrix used throughout the library.
//
// Attention tensors in this codebase are always handled per (batch, head)
// pair, so a 2-D [tokens x head_dim] container is the natural unit. The
// class owns its storage and exposes rows as std::span, which is how tiled
// kernels consume it. Kept deliberately small: no expression templates, no
// views with strides — tiling code slices explicitly via row spans.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace turbo {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    TURBO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    TURBO_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<T> row(std::size_t r) {
    TURBO_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const {
    TURBO_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(T value) { data_.assign(data_.size(), value); }

  // Copy a contiguous block of rows [row_begin, row_begin + n_rows) into a
  // new matrix. Tiling code uses this to materialize Q/K/V tiles.
  // The bound is stated subtraction-side so a huge n_rows cannot wrap
  // row_begin + n_rows around std::size_t and sneak past the check.
  Matrix block_rows(std::size_t row_begin, std::size_t n_rows) const {
    TURBO_CHECK(row_begin <= rows_ && n_rows <= rows_ - row_begin);
    Matrix out(n_rows, cols_);
    for (std::size_t r = 0; r < n_rows; ++r) {
      auto src = row(row_begin + r);
      auto dst = out.row(r);
      for (std::size_t c = 0; c < cols_; ++c) dst[c] = src[c];
    }
    return out;
  }

  // Append the rows of `other` (same column count) to this matrix.
  void append_rows(const Matrix& other) {
    TURBO_CHECK(cols_ == other.cols_ || rows_ == 0);
    if (rows_ == 0) cols_ = other.cols_;
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    rows_ += other.rows_;
  }

  void append_row(std::span<const T> values) {
    TURBO_CHECK(cols_ == values.size() || rows_ == 0);
    if (rows_ == 0) cols_ = values.size();
    data_.insert(data_.end(), values.begin(), values.end());
    ++rows_;
  }

  // Append a row of `cols` T{} and return it, for the caller to fill in
  // place. Room for `reserve` rows in all is kept when the matrix has
  // none, so appending up to that many allocates once.
  std::span<T> append_zero_row(std::size_t cols, std::size_t reserve) {
    TURBO_CHECK(cols_ == cols || rows_ == 0);
    if (rows_ == 0) {
      cols_ = cols;
      data_.reserve(reserve * cols);
    }
    data_.resize(data_.size() + cols);
    ++rows_;
    return row(rows_ - 1);
  }

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixI8 = Matrix<std::int8_t>;
using MatrixI32 = Matrix<std::int32_t>;

// C = A * B^T where A is [m x k] and B is [n x k]; the shape attention's
// QK^T takes (both operands stored token-major).
inline MatrixF matmul_transposed(const MatrixF& a, const MatrixF& b) {
  TURBO_CHECK(a.cols() == b.cols());
  MatrixF out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      auto rb = b.row(j);
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += ra[k] * rb[k];
      out(i, j) = acc;
    }
  }
  return out;
}

// C = A * B with A [m x k], B [k x n]; the shape of attention's P*V.
inline MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  TURBO_CHECK(a.cols() == b.rows());
  MatrixF out(a.rows(), b.cols(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto ro = out.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float av = ra[k];
      auto rb = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ro[j] += av * rb[j];
    }
  }
  return out;
}

// Integer matmul with 32-bit accumulation: C = A * B^T for int8 operands.
// This is the arithmetic an INT8 tensor-core MMA performs and is the core
// primitive FlashQ's quantized execution relies on.
inline MatrixI32 matmul_transposed_i8(const MatrixI8& a, const MatrixI8& b) {
  TURBO_CHECK(a.cols() == b.cols());
  MatrixI32 out(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      auto rb = b.row(j);
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<std::int32_t>(ra[k]) *
               static_cast<std::int32_t>(rb[k]);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

// Integer matmul with 32-bit accumulation: C = A * B for int8 operands.
inline MatrixI32 matmul_i8(const MatrixI8& a, const MatrixI8& b) {
  TURBO_CHECK(a.cols() == b.rows());
  MatrixI32 out(a.rows(), b.cols(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto ro = out.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const std::int32_t av = ra[k];
      auto rb = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        ro[j] += av * static_cast<std::int32_t>(rb[j]);
      }
    }
  }
  return out;
}

}  // namespace turbo

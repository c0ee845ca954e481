#include "kvcache/quantized_kv_cache.h"

#include <algorithm>

#include "common/check.h"

namespace turbo {

QuantizedKvCache::QuantizedKvCache(std::size_t head_dim, BitWidth bits,
                                   std::size_t block_tokens,
                                   std::size_t buffer_capacity)
    : head_dim_(head_dim),
      bits_(bits),
      block_tokens_(block_tokens),
      k_buffer_(buffer_capacity, head_dim),
      v_buffer_(buffer_capacity, head_dim) {
  TURBO_CHECK(head_dim_ > 0);
  TURBO_CHECK(block_tokens_ > 0);
  TURBO_CHECK(bits == BitWidth::kInt2 || bits == BitWidth::kInt3 ||
              bits == BitWidth::kInt4);
}

void QuantizedKvCache::append_prefill_block(const Int8Tile& k_tile,
                                            const Int8Tile& v_tile) {
  TURBO_CHECK(k_tile.q.cols() == head_dim_);
  TURBO_CHECK(v_tile.q.cols() == head_dim_);
  TURBO_CHECK(k_tile.q.rows() == v_tile.q.rows());
  TURBO_CHECK_MSG(k_buffer_.empty() && v_buffer_.empty(),
                  "prefill blocks must precede decode tokens");
  KvBlock block;
  block.k = progressive_compress(k_tile.q, k_tile.scale, bits_);
  block.v = progressive_compress(v_tile.q, v_tile.scale, bits_);
  blocks_.push_back(std::move(block));
  // The universal decode-buffer scale covers the largest magnitude seen so
  // far: tile scale * headroom reconstructs the tile's max-abs.
  k_buffer_.seed_scale(k_tile.scale * kSymmetricHeadroom);
  v_buffer_.seed_scale(v_tile.scale * kSymmetricHeadroom);
}

void QuantizedKvCache::append_token(std::span<const float> k,
                                    std::span<const float> v) {
  k_buffer_.push(k);
  v_buffer_.push(v);
  if (k_buffer_.full()) flush_buffers_to_block();
}

void QuantizedKvCache::flush_buffers_to_block() {
  TURBO_CHECK(k_buffer_.size() == v_buffer_.size());
  const float k_scale = k_buffer_.scale();
  const float v_scale = v_buffer_.scale();
  const MatrixI8 k_q1 = k_buffer_.take();
  const MatrixI8 v_q1 = v_buffer_.take();
  KvBlock block;
  block.k = progressive_compress(k_q1, k_scale, bits_);
  block.v = progressive_compress(v_q1, v_scale, bits_);
  blocks_.push_back(std::move(block));
}

std::size_t QuantizedKvCache::token_count() const {
  std::size_t n = k_buffer_.size();
  for (const KvBlock& b : blocks_) n += b.tokens();
  return n;
}

const KvBlock& QuantizedKvCache::block(std::size_t i) const {
  TURBO_CHECK(i < blocks_.size());
  return blocks_[i];
}

std::size_t QuantizedKvCache::memory_bytes() const {
  std::size_t n = k_buffer_.memory_bytes() + v_buffer_.memory_bytes();
  for (const KvBlock& b : blocks_) n += b.memory_bytes();
  return n;
}

MatrixF QuantizedKvCache::reconstruct(bool keys) const {
  MatrixF out(0, head_dim_);
  for (const KvBlock& b : blocks_) {
    out.append_rows(progressive_decompress_float(keys ? b.k : b.v));
  }
  const DecodeBuffer& buf = keys ? k_buffer_ : v_buffer_;
  for (std::size_t r = 0; r < buf.size(); ++r) {
    auto q = buf.tokens().row(r);
    std::vector<float> row(head_dim_);
    for (std::size_t c = 0; c < head_dim_; ++c) {
      row[c] = static_cast<float>(q[c]) * buf.scale();
    }
    out.append_row(std::span<const float>(row));
  }
  return out;
}

QuantizedKvCache QuantizedKvCache::restore(
    std::size_t head_dim, BitWidth bits, std::size_t block_tokens,
    std::size_t buffer_capacity, std::vector<KvBlock> blocks, float k_scale,
    const MatrixI8& k_buf, float v_scale, const MatrixI8& v_buf) {
  QuantizedKvCache cache(head_dim, bits, block_tokens, buffer_capacity);
  for (KvBlock& b : blocks) {
    TURBO_CHECK(b.k.cols == head_dim && b.v.cols == head_dim);
    TURBO_CHECK(b.k.rows == b.v.rows);
  }
  cache.blocks_ = std::move(blocks);
  TURBO_CHECK(k_buf.rows() == v_buf.rows());
  TURBO_CHECK(k_buf.rows() <= buffer_capacity);
  if (k_scale > 0.0f) cache.k_buffer_.restore_scale(k_scale);
  if (v_scale > 0.0f) cache.v_buffer_.restore_scale(v_scale);
  for (std::size_t r = 0; r < k_buf.rows(); ++r) {
    cache.k_buffer_.push_quantized(k_buf.row(r));
    cache.v_buffer_.push_quantized(v_buf.row(r));
  }
  return cache;
}

MatrixF QuantizedKvCache::reconstruct_keys() const { return reconstruct(true); }
MatrixF QuantizedKvCache::reconstruct_values() const {
  return reconstruct(false);
}

}  // namespace turbo

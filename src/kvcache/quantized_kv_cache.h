// Packed progressive KV cache for one attention head.
//
// Storage layout mirrors Figure 3: the bulk of the cache is a sequence of
// FlashAttention-sized token blocks, each holding K and V tiles compressed
// through blockwise progressive quantization (INT8 first stage with an FP
// per-block scale, then channel-wise asymmetric INT4/INT2 with integer
// scales/zero-points). The tail of the sequence lives in the enhanced INT8
// decode buffer until n_b tokens accumulate, at which point the buffer is
// flushed through the second quantization stage into a new packed block.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "kvcache/decode_buffer.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"
#include "quant/types.h"

namespace turbo {

// One compressed token block of the cache.
struct KvBlock {
  ProgressiveBlock k;
  ProgressiveBlock v;

  std::size_t tokens() const { return k.rows; }
  std::size_t memory_bytes() const {
    return k.memory_bytes() + v.memory_bytes();
  }
};

class QuantizedKvCache {
 public:
  // `block_tokens` is Bc (tokens per packed block), `buffer_capacity` n_b.
  QuantizedKvCache(std::size_t head_dim, BitWidth bits,
                   std::size_t block_tokens, std::size_t buffer_capacity);

  std::size_t head_dim() const { return head_dim_; }
  BitWidth bits() const { return bits_; }
  std::size_t block_tokens() const { return block_tokens_; }

  // --- Prefill path -------------------------------------------------------
  // Absorb one already-INT8 K/V tile pair (the prefill kernel quantizes
  // tiles on chip; this applies the second stage and stores the result).
  // Also feeds the buffers' universal-scale statistics.
  void append_prefill_block(const Int8Tile& k_tile, const Int8Tile& v_tile);

  // --- Decode path --------------------------------------------------------
  // Append one generated token's key/value. Flushes the buffer into a
  // packed block when it reaches capacity.
  void append_token(std::span<const float> k, std::span<const float> v);

  // --- Introspection ------------------------------------------------------
  std::size_t token_count() const;
  std::size_t block_count() const { return blocks_.size(); }
  const KvBlock& block(std::size_t i) const;
  const DecodeBuffer& key_buffer() const { return k_buffer_; }
  const DecodeBuffer& value_buffer() const { return v_buffer_; }

  // Total cache footprint in bytes (packed payloads + metadata + buffer).
  std::size_t memory_bytes() const;

  // Reconstruct the full K / V tensors in float (packed blocks dequantized
  // through both stages, buffered tokens through the universal scale).
  // For verification and error measurement, not on the decode fast path.
  MatrixF reconstruct_keys() const;
  MatrixF reconstruct_values() const;

  // Rebuild a cache from serialized state (kvcache/serialization.h).
  // Scales are restored bit-exactly; the blocks are adopted verbatim.
  static QuantizedKvCache restore(std::size_t head_dim, BitWidth bits,
                                  std::size_t block_tokens,
                                  std::size_t buffer_capacity,
                                  std::vector<KvBlock> blocks,
                                  float k_scale, const MatrixI8& k_buf,
                                  float v_scale, const MatrixI8& v_buf);

 private:
  void flush_buffers_to_block();
  MatrixF reconstruct(bool keys) const;

  std::size_t head_dim_;
  BitWidth bits_;
  std::size_t block_tokens_;
  std::vector<KvBlock> blocks_;
  DecodeBuffer k_buffer_;
  DecodeBuffer v_buffer_;
};

}  // namespace turbo

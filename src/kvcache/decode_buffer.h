// Enhanced KV-cache decode buffer (section 3.3).
//
// During decoding, newly generated key/value vectors land in an INT8 buffer
// of capacity n_b (paper default 64). The critical design point is the
// *universal scale*: the buffer's symmetric INT8 scale is fixed once (from
// prefill statistics, or from the first buffered token when there was no
// prefill) and later tokens whose magnitudes exceed the representable range
// are clamped instead of triggering a re-quantization of everything already
// buffered. This is what lets decode run integer attention over the buffer
// without the full-precision residual window KIVI and GEAR keep.
#pragma once

#include <cstdint>
#include <span>

#include "common/matrix.h"
#include "quant/symmetric.h"

namespace turbo {

class DecodeBuffer {
 public:
  DecodeBuffer(std::size_t capacity, std::size_t dim);

  std::size_t capacity() const { return capacity_; }
  std::size_t dim() const { return dim_; }
  std::size_t size() const { return tokens_.rows(); }
  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity_; }

  // Fix the universal scale from a maximum-magnitude estimate (e.g. the
  // largest value seen during prefill). No-op once a scale is set.
  void seed_scale(float max_abs);
  bool has_scale() const { return scale_ > 0.0f; }
  float scale() const { return scale_; }

  // Quantize one token vector into the buffer (clamping outliers to the
  // INT8 range under the universal scale). Seeds the scale from this token
  // if none was established. Precondition: !full(). Each element rounds
  // once, in the current direction; on x86-64 eight at a time with SSE2,
  // the tail and other hosts through std::nearbyint, to the same codes.
  void push(std::span<const float> token);

  // Buffered INT8 token rows, oldest first.
  const MatrixI8& tokens() const { return tokens_; }

  // Count of tokens that had at least one element clamped — the quality
  // cost of never recompressing (tracked for tests/ablations).
  std::size_t clamped_token_count() const { return clamped_tokens_; }

  // Move the buffered tokens out and reset to empty. The universal scale is
  // retained: it is universal across the whole generation. The clamp
  // counter is reset along with the tokens — callers that account clamped
  // tokens must read clamped_token_count() *before* take().
  MatrixI8 take();

  // --- Deserialization support (kvcache/serialization.h) -------------
  // Set the universal scale bit-exactly. Only valid before any scale is
  // established.
  void restore_scale(float scale);
  // Append one already-quantized INT8 row (no re-quantization).
  void push_quantized(std::span<const std::int8_t> row);

  // INT8 payload + one FP16 scale.
  std::size_t memory_bytes() const { return tokens_.size() + 2; }

 private:
  std::size_t capacity_;
  std::size_t dim_;
  float scale_ = 0.0f;
  MatrixI8 tokens_;
  std::size_t clamped_tokens_ = 0;
};

}  // namespace turbo

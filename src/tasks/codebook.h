// Symbol codebook: the "vocabulary" of the proxy tasks.
//
// Each symbol is a random near-orthogonal unit vector per head. Attention
// outputs are decoded back to symbols by nearest-neighbor search — the
// stand-in for the LM head's argmax in a real model. Decoding fails
// exactly when attention-output error exceeds half the codeword distance,
// which is what makes proxy-task accuracy a faithful probe of attention
// fidelity.
#pragma once

#include <cstdint>
#include <span>

#include "common/matrix.h"

namespace turbo::tasks {

class Codebook {
 public:
  Codebook(std::size_t n_symbols, std::size_t dim, std::uint64_t seed);

  std::size_t size() const { return embeddings_.rows(); }
  std::size_t dim() const { return embeddings_.cols(); }

  std::span<const float> embedding(std::size_t symbol) const;

  // Squared L2 distance from `v` to a symbol's embedding, optionally with
  // per-channel scaling of the embedding (values are stored channel-scaled
  // in the cache, so decode compares in the scaled space).
  double distance_sq(std::span<const float> v, std::size_t symbol,
                     std::span<const float> channel_scale = {}) const;

 private:
  MatrixF embeddings_;  // [n_symbols x dim], unit rows
};

}  // namespace turbo::tasks

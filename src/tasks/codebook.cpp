#include "tasks/codebook.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace turbo::tasks {

Codebook::Codebook(std::size_t n_symbols, std::size_t dim,
                   std::uint64_t seed)
    : embeddings_(n_symbols, dim) {
  TURBO_CHECK(n_symbols > 0 && dim > 0);
  Rng rng(seed);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    auto row = embeddings_.row(s);
    double norm_sq = 0.0;
    for (float& v : row) {
      v = static_cast<float>(rng.normal());
      norm_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (float& v : row) v *= inv;
  }
}

std::span<const float> Codebook::embedding(std::size_t symbol) const {
  TURBO_CHECK(symbol < size());
  return embeddings_.row(symbol);
}

double Codebook::distance_sq(std::span<const float> v, std::size_t symbol,
                             std::span<const float> channel_scale) const {
  TURBO_CHECK(v.size() == dim());
  auto e = embeddings_.row(symbol);
  double acc = 0.0;
  for (std::size_t c = 0; c < v.size(); ++c) {
    const double scaled = channel_scale.empty()
                              ? static_cast<double>(e[c])
                              : static_cast<double>(e[c] * channel_scale[c]);
    const double d = static_cast<double>(v[c]) - scaled;
    acc += d * d;
  }
  return acc;
}

}  // namespace turbo::tasks

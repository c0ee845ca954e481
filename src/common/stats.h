// Descriptive statistics and error metrics.
//
// These are the measurement primitives for every accuracy experiment:
// quantization error (Fig. 10), channel gap distributions (Figs. 4/8/9),
// and attention-output fidelity used by the proxy tasks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace turbo {

struct MinMax {
  float min = 0.0f;
  float max = 0.0f;
  float gap() const { return max - min; }
};

// Min / max over a span. Empty input returns {0, 0}.
MinMax min_max(std::span<const float> values);

double mean(std::span<const float> values);
double stddev(std::span<const float> values);  // population stddev

// p in [0, 100]; linear interpolation between order statistics.
double percentile(std::span<const float> values, double p);

// Mean squared error between two equal-length spans.
double mse(std::span<const float> a, std::span<const float> b);

// sqrt(MSE).
double rmse(std::span<const float> a, std::span<const float> b);

// max_i |a_i - b_i|.
double max_abs_error(std::span<const float> a, std::span<const float> b);

// ||a - b|| / ||b||  (relative Frobenius error with b as reference).
double relative_error(std::span<const float> a, std::span<const float> b);

// Shannon entropy (nats) of |values| binned into `bins` equal-width buckets
// over [min, max]. Used by the "Entropy" head-selection baseline (Fig. 7b).
double histogram_entropy(std::span<const float> values, std::size_t bins);

// Per-column (channel) min/max of a [tokens x channels] matrix — the
// statistic behind Figure 4's channel min-max distributions.
std::vector<MinMax> channel_min_max(const MatrixF& m);

// Per-row (token) min/max — the token-wise counterpart used by Figs. 8/9.
std::vector<MinMax> token_min_max(const MatrixF& m);

// Matrix overloads of the error metrics (flattened).
double rmse(const MatrixF& a, const MatrixF& b);
double relative_error(const MatrixF& a, const MatrixF& b);
double max_abs_error(const MatrixF& a, const MatrixF& b);

}  // namespace turbo

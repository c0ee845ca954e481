#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace turbo {

MinMax min_max(std::span<const float> values) {
  if (values.empty()) return {};
  MinMax mm{values[0], values[0]};
  for (float v : values) {
    mm.min = std::min(mm.min, v);
    mm.max = std::max(mm.max, v);
  }
  return mm;
}

double mean(std::span<const float> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (float v : values) sum += static_cast<double>(v);
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const float> values) {
  if (values.empty()) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (float v : values) {
    const double d = static_cast<double>(v) - m;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(values.size()));
}

double percentile(std::span<const float> values, double p) {
  TURBO_CHECK(!values.empty());
  TURBO_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<float> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         frac * (static_cast<double>(sorted[hi]) -
                 static_cast<double>(sorted[lo]));
}

double mse(std::span<const float> a, std::span<const float> b) {
  TURBO_CHECK(a.size() == b.size());
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

double rmse(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(mse(a, b));
}

double max_abs_error(std::span<const float> a, std::span<const float> b) {
  TURBO_CHECK(a.size() == b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) -
                             static_cast<double>(b[i])));
  }
  return m;
}

double relative_error(std::span<const float> a, std::span<const float> b) {
  TURBO_CHECK(a.size() == b.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::sqrt(num);
  return std::sqrt(num / den);
}

double histogram_entropy(std::span<const float> values, std::size_t bins) {
  TURBO_CHECK(bins > 0);
  if (values.empty()) return 0.0;
  const MinMax mm = min_max(values);
  if (mm.gap() == 0.0f) return 0.0;
  std::vector<std::size_t> counts(bins, 0);
  const double width = static_cast<double>(mm.gap()) / static_cast<double>(bins);
  for (float v : values) {
    auto idx = static_cast<std::size_t>(static_cast<double>(v - mm.min) / width);
    counts[std::min(idx, bins - 1)]++;
  }
  double h = 0.0;
  const double n = static_cast<double>(values.size());
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log(p);
  }
  return h;
}

std::vector<MinMax> channel_min_max(const MatrixF& m) {
  std::vector<MinMax> out(m.cols());
  if (m.rows() == 0) return out;
  for (std::size_t c = 0; c < m.cols(); ++c) {
    out[c] = {m(0, c), m(0, c)};
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out[c].min = std::min(out[c].min, row[c]);
      out[c].max = std::max(out[c].max, row[c]);
    }
  }
  return out;
}

std::vector<MinMax> token_min_max(const MatrixF& m) {
  std::vector<MinMax> out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    out[r] = min_max(m.row(r));
  }
  return out;
}

double rmse(const MatrixF& a, const MatrixF& b) {
  return rmse(a.flat(), b.flat());
}
double relative_error(const MatrixF& a, const MatrixF& b) {
  return relative_error(a.flat(), b.flat());
}
double max_abs_error(const MatrixF& a, const MatrixF& b) {
  return max_abs_error(a.flat(), b.flat());
}

}  // namespace turbo

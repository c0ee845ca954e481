#include "model/profile.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace turbo::model {

ModelProfile llama3_8b_profile() {
  ModelProfile p;
  p.name = "LLaMA3-8B-inst";
  p.heads = 8;
  p.head_dim = 32;
  p.outliers.qk_outlier_frac = 0.12;
  p.outliers.qk_outlier_scale = 2.5;
  p.outliers.v_outlier_frac = 0.05;
  p.outliers.v_outlier_scale = 2.5;
  p.outliers.head_variability = 0.6;
  return p;
}

ModelProfile qwen2_7b_profile() {
  ModelProfile p;
  p.name = "Qwen2-7B-inst";
  p.heads = 8;
  p.head_dim = 32;
  p.outliers.qk_outlier_frac = 0.12;
  p.outliers.qk_outlier_scale = 3.0;
  p.outliers.v_outlier_frac = 0.05;
  p.outliers.v_outlier_scale = 2.5;
  p.outliers.head_variability = 0.5;
  return p;
}

ModelProfile phi3_mini_profile() {
  ModelProfile p;
  p.name = "Phi3-3.8B-inst";
  p.heads = 8;
  p.head_dim = 32;
  // Phi-3's signature (Figs. 4 and 9): strong channel-wise value outliers.
  p.outliers.qk_outlier_frac = 0.12;
  p.outliers.qk_outlier_scale = 2.5;
  p.outliers.v_outlier_frac = 0.10;
  p.outliers.v_outlier_scale = 6.0;
  p.outliers.head_variability = 0.8;
  return p;
}

std::vector<float> channel_scales(const ModelProfile& profile,
                                  std::size_t head, TensorKind kind,
                                  std::uint64_t seed) {
  TURBO_CHECK(head < profile.heads);
  const OutlierParams& o = profile.outliers;
  const double frac =
      kind == TensorKind::kQueryKey ? o.qk_outlier_frac : o.v_outlier_frac;
  const double scale =
      kind == TensorKind::kQueryKey ? o.qk_outlier_scale : o.v_outlier_scale;

  // Heads differ in outlier severity: head h's multiplier interpolates
  // between uniform (variability 0) and strongly ramped (variability 1).
  // Earlier heads end up "easy", later heads outlier-heavy — a stable,
  // deterministic structure the headwise selector can exploit. The
  // variability is applied to the *value* channels only: Q/K outliers are
  // a metric property shared by all heads (amplifying them per head would
  // collapse the key space's effective dimensionality), while the value
  // cache is where the per-head compression difficulty lives (Fig. 4:
  // "for value, there is no obvious outlier pattern" on easy heads, strong
  // channel outliers on hard ones — extreme on Phi-3).
  const double ramp =
      profile.heads <= 1
          ? 1.0
          : static_cast<double>(head) / static_cast<double>(profile.heads - 1);
  // Q/K severity varies mildly (±40% x variability): enough to rank heads
  // by key-quantization fragility without collapsing the key space's
  // effective dimension the way a full ramp would.
  const double severity =
      kind == TensorKind::kValue
          ? (1.0 - o.head_variability) + o.head_variability * 2.0 * ramp
          : 1.0 + o.head_variability * 0.4 * (2.0 * ramp - 1.0);

  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (head + 1)) ^
          (kind == TensorKind::kValue ? 0x5851f42d4c957f2dull : 0));
  std::vector<float> scales(profile.head_dim, 1.0f);
  for (float& s : scales) {
    if (rng.uniform() < frac * severity) {
      // Outlier magnitude varies channel to channel.
      s = static_cast<float>(scale * severity * rng.uniform(0.6, 1.4));
      s = std::max(s, 1.0f);
    }
  }
  return scales;
}

}  // namespace turbo::model

// Model profiles: the distributional fingerprints of the evaluated LLMs.
//
// The accuracy experiments cannot run the real checkpoints (no weights, no
// GPU), so each model is represented by the property that actually drives
// the paper's accuracy story (Figure 4, Appendix D): the per-head,
// per-channel magnitude structure of Q/K/V. LLaMA-3 and Qwen-2 have
// moderate channel outliers in Q/K and mild value outliers; Phi-3's value
// cache has pronounced channel-wise outliers — which is why token-wise
// value quantizers (KIVI/GEAR) degrade on it while channel-wise FlashQ
// holds up.
//
// The geometry here is the *accuracy-sim* scale (heads x head_dim actually
// simulated on CPU); the full latency geometry lives in sim::ModelGeometry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace turbo::model {

struct OutlierParams {
  double qk_outlier_frac = 0.06;   // fraction of Q/K channels amplified
  double qk_outlier_scale = 5.0;   // amplification factor
  double v_outlier_frac = 0.03;    // fraction of V channels amplified
  double v_outlier_scale = 2.0;
  // How unevenly outlier structure is distributed across heads in [0, 1]:
  // 0 = every head identical; 1 = a few heads carry all the outliers.
  double head_variability = 0.6;
};

struct ModelProfile {
  std::string name;
  std::size_t heads = 8;      // heads simulated per layer
  std::size_t head_dim = 32;  // per-head dimension simulated
  OutlierParams outliers;
};

ModelProfile llama3_8b_profile();
ModelProfile qwen2_7b_profile();
ModelProfile phi3_mini_profile();

// Deterministic per-(head, channel) magnitude multipliers for one tensor.
// `kind` selects the Q/K metric channels or the V channels.
enum class TensorKind { kQueryKey, kValue };

std::vector<float> channel_scales(const ModelProfile& profile,
                                  std::size_t head, TensorKind kind,
                                  std::uint64_t seed);

}  // namespace turbo::model

// Multi-head fidelity pipeline: drives a KvAttention method across every
// head of a profile on generated Q/K/V and scores its outputs against the
// FP32 exact method. This is the numeric backbone for ablations that do
// not need the full proxy tasks (Table 5 composition, Fig. 10 adjacent
// sweeps).
#pragma once

#include <cstdint>

#include "attention/method.h"
#include "model/generator.h"

namespace turbo::model {

struct PipelineConfig {
  std::size_t prefill_tokens = 256;
  std::size_t decode_steps = 32;
  std::uint64_t seed = 1;
  // Gaussian noise injected into every Q/K/V element before attention —
  // models upstream weight/activation quantization error (Table 5:
  // composition with LLM.int8() / QServe).
  double input_noise = 0.0;
};

struct MethodFidelity {
  double prefill_rel_err = 0;   // mean over heads vs exact
  double decode_rel_err = 0;    // mean over heads and steps vs exact
  double bytes_per_token = 0;   // measured KV-cache footprint
};

MethodFidelity measure_fidelity(const QkvGenerator& generator,
                                const KvAttentionFactory& factory,
                                const PipelineConfig& config);

}  // namespace turbo::model

// bench_e2e: the repository's end-to-end benchmark (see README.md).
//
//   bench_e2e --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//   bench_e2e --list
//
// Prints one "name value unit" line per metric and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones from a
// separate traced run. With --out DIR it also writes the full record to
// DIR/<workload>-s<seed>-r<run>.json (.layers.json when traced) and the
// spans to DIR/<workload>-s<seed>-r<run>.trace.json as Chrome trace
// events; <run> counts the runs already recorded there at that seed.
//
// Exit status: 0 when every operation passed its check, 1 when any
// failed, 2 on bad arguments, 3 when the run itself could not complete.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "bench_e2e.h"

namespace e2e {

RunResult run_kernel_workload(const RunOptions& opt, Tracer& tracer);
RunResult run_serving_workload(const RunOptions& opt, Tracer& tracer);

namespace {

struct Workload {
  const char* name;
  RunResult (*run)(const RunOptions&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"prefill_1k", run_kernel_workload},
    {"decode_512", run_kernel_workload},
    {"sim_overload", run_serving_workload},
    {"fleet_sessions", run_serving_workload},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" and "per_layer" lists. Every
// workload reports every metric; a layer a workload never calls reports 0.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_norm_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"attention.turbo_prefill_ms_p50", "ms"},
    {"attention.turbo_prefill_tok_s", "1/s"},
    {"attention.turbo_prefill_unattributed_ms", "ms"},
    {"attention.turbo_decode_us_p50", "us"},
    {"attention.turbo_decode_us_p99", "us"},
    {"attention.turbo_tpot_ms_p50", "ms"},
    {"attention.turbo_tpot_ms_p99", "ms"},
    {"attention.turbo_decode_tok_s", "1/s"},
    {"attention.turbo_ref_decode_us", "us"},
    {"attention.turbo_prefill_rel_err", "ratio"},
    {"attention.turbo_decode_rel_err", "ratio"},
    {"kernels.fused_decode_us", "us"},
    {"kernels.decode_bytes_per_token", "bytes"},
    {"kernels.decode_int8_macs_per_token", "count"},
    {"quant.stage1_tile_us", "us"},
    {"quant.query_quant_ns", "ns"},
    {"quant.stage2_compress_us", "us"},
    {"quant.stage2_decompress_us", "us"},
    {"softmax.sas_exp_ns", "ns"},
    {"softmax.libm_exp_ns", "ns"},
    {"softmax.sas_zero_frac", "frac"},
    {"kvcache.append_token_us_p50", "us"},
    {"kvcache.append_token_us_p99", "us"},
    {"kvcache.turbo_bytes_per_token", "bytes"},
    {"kvcache.fp16_bytes_per_token", "bytes"},
    {"kvcache.kivi_bytes_per_token", "bytes"},
    {"kvcache.turbo_blocks", "count"},
    {"baselines.fp16_prefill_ms_p50", "ms"},
    {"baselines.fp16_prefill_tok_s", "1/s"},
    {"baselines.fp16_decode_us_p50", "us"},
    {"baselines.fp16_decode_us_p99", "us"},
    {"baselines.fp16_decode_tok_s", "1/s"},
    {"baselines.kivi_prefill_ms_p50", "ms"},
    {"baselines.kivi_prefill_tok_s", "1/s"},
    {"baselines.kivi_decode_us_p50", "us"},
    {"baselines.kivi_decode_us_p99", "us"},
    {"baselines.kivi_decode_tok_s", "1/s"},
    {"serving.step_us_p50", "us"},
    {"serving.step_us_p99", "us"},
    {"serving.steps", "count"},
    {"serving.live_mean", "count"},
    {"serving.step_ns_per_live", "ns"},
    {"serving.scaling_exponent", "ratio"},
    {"serving.submit_ms", "ms"},
    {"serving.finish_ms", "ms"},
    {"serving.summarize_ms", "ms"},
    {"serving.timed_out_frac", "frac"},
    {"serving.preemptions", "count"},
    {"serving.prefix_hit_frac", "frac"},
    {"serving.modeled_out_tok_s", "1/s"},
    {"serving.modeled_interactive_slo", "frac"},
    {"fleet.run_s", "s"},
    {"fleet.summarize_ms", "ms"},
    {"fleet.affinity_hit_frac", "frac"},
    {"bench.throughput_per_s", "1/s"},
    {"bench.probe_us", "us"},
    {"bench.trace_overhead_frac", "frac"},
};

// Put the run's metrics in the declared order, with a 0 (and no samples)
// for each declared metric the workload does not produce. A produced
// metric that is undeclared, mis-united or not finite is a benchmark bug.
template <std::size_t N>
std::vector<Metric> in_declared_order(const std::vector<Metric>& got,
                                      const MetricSpec (&specs)[N]) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    out.push_back({spec.name, 0.0, spec.unit, 0});
  }
  for (const Metric& m : got) {
    const auto it = std::find_if(out.begin(), out.end(), [&m](const Metric& o) {
      return o.name == m.name;
    });
    if (it == out.end() || it->unit != m.unit || !std::isfinite(m.value)) {
      throw std::logic_error("bad metric " + m.name + " (" + m.unit + ")");
    }
    *it = m;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\n"
               "       bench_e2e --list\n");
}

bool parse(int argc, char** argv, RunOptions& opt, bool& list) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        if (v.empty() || v[0] == '-') return false;
        opt.seed = std::stoull(v, &used);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v, &used);
        if (!(opt.seconds > 0.0)) return false;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return false;
        opt.trace = v == "1";
      } else if (a == "--out") {
        opt.out_dir = v;
      } else {
        return false;
      }
      if (used != 0 && used != v.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

int run_main(int argc, char** argv) {
  RunOptions opt;
  bool list = false;
  if (!parse(argc, argv, opt, list)) {
    usage();
    return 2;
  }
  if (list) {
    for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
    return 0;
  }
  const auto* w = std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&opt](const Workload& x) { return opt.workload == x.name; });
  if (w == std::end(kWorkloads)) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 opt.workload.c_str());
    usage();
    return 2;
  }

  if (!opt.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                   opt.out_dir.c_str(), ec.message().c_str());
      return 3;
    }
  }

  Tracer tracer(opt.trace);
  RunResult r = w->run(opt, tracer);
  if (opt.trace) {
    constexpr int kProbes = 101;
    std::vector<double> probes;
    for (int i = 0; i < kProbes; ++i) probes.push_back(probe_s() * 1e6);
    r.add("bench.probe_us", median(probes), "us", kProbes);
  }
  r.metrics = opt.trace ? in_declared_order(r.metrics, kPerLayer)
                        : in_declared_order(r.metrics, kEndToEnd);

  if (!opt.out_dir.empty()) {
    // Runs at one seed get consecutive indices instead of overwriting
    // each other.
    std::size_t run = 0;
    std::string stem;
    for (;; ++run) {
      stem = opt.out_dir + "/" + opt.workload + "-s" +
             std::to_string(opt.seed) + "-r" + std::to_string(run);
      if (!std::filesystem::exists(stem + ".json") &&
          !std::filesystem::exists(stem + ".layers.json")) {
        break;
      }
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      failures += (i == 0 ? "" : ", ") + json_string(r.failures[i]);
    }
    failures += "]";
    const std::string record =
        "{\"workload\": " + json_string(opt.workload) +
        ", \"seed\": " + std::to_string(opt.seed) +
        ", \"run\": " + std::to_string(run) +
        ", \"trace\": " + (opt.trace ? "true" : "false") +
        ", \"reps\": " + std::to_string(r.reps) +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"failures\": " + failures + ", \"" +
        (opt.trace ? "layers" : "metrics") +
        "\": " + metrics_json(r.metrics, true) + "}\n";
    const std::string path = stem + (opt.trace ? ".layers.json" : ".json");
    if (!write_file(path, record)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
      return 3;
    }
    if (opt.trace && !tracer.write_chrome_json(stem + ".trace.json")) {
      std::fprintf(stderr, "bench_e2e: cannot write %s.trace.json\n",
                   stem.c_str());
      return 3;
    }
  }

  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "bench_e2e: FAILED %s\n", f.c_str());
  }
  std::printf("workload %s seed %llu reps %zu attempted %zu failed %zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              r.reps, r.attempted, r.failed);
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              metrics_json(r.metrics, false).c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (std::strcmp(r.name, name) == 0) out.push_back(r.dur_us);
  }
  return out;
}

std::size_t Tracer::total_count(const char* name) const {
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (std::strcmp(r.name, name) == 0) n += r.count;
  }
  return n;
}

std::vector<double> Tracer::self_us() const {
  std::vector<double> self;
  self.reserve(records_.size());
  for (const Record& r : records_) self.push_back(r.dur_us);
  // Children of one span run one after another inside it.
  for (const Record& r : records_) {
    if (r.parent != kNoParent) self[r.parent] -= r.dur_us;
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<double> self = self_us();
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string name = r.name;
    const std::string layer = name.substr(0, name.find('.'));
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(name)
      << ", \"cat\": " << json_string(layer) << ", \"ph\": \"X\", \"ts\": "
      << number(r.start_us) << ", \"dur\": " << number(r.dur_us)
      << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
      << ", \"parent\": "
      << (r.parent == kNoParent ? std::string("null")
                                : std::to_string(r.parent))
      << ", \"seq\": " << r.seq << ", \"count\": " << r.count
      << ", \"self_us\": " << number(self[i]) << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double sum_of_minima(const std::vector<std::vector<double>>& reps) {
  double total = 0.0;
  for (std::size_t pos = 0; pos < reps.front().size(); ++pos) {
    double fastest = reps.front()[pos];
    for (const std::vector<double>& rep : reps) {
      fastest = std::min(fastest, rep[pos]);
    }
    total += fastest;
  }
  return total;
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += v;
  return s;
}

namespace {

// The probe's inputs and scratch space, made once: the timed region
// allocates nothing, so its time does not depend on the state the timed
// work left the heap in.
class Probe {
 public:
  Probe() {
    // xorshift64: fixed inputs, the same on every host and at every seed.
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::vector<float>* m : {&q_, &k_, &v_}) {
      for (std::size_t i = 0; i < kRows * kDim; ++i) {
        m->push_back(static_cast<float>(next() % 2001) / 1000.0f - 1.0f);
      }
    }
    double t = 0.0;
    for (std::size_t i = 0; i < kQueue; ++i) {
      const std::uint64_t r = next();
      t += static_cast<double>(r % 1000) / 10000.0;
      queue_.push_back({t, t + 2.0 + static_cast<double>(r % 7),
                        static_cast<std::uint32_t>(10 + r % 50)});
    }
    scores_.resize(kRows);
    out_.resize(kDim);
    given_.resize(kQueue);
    waiting_.reserve(kQueue);
    running_.reserve(kBatch);
  }

  double run() { return attention() + queue(); }

 private:
  static constexpr std::size_t kRows = 160;
  static constexpr std::size_t kDim = 128;
  static constexpr std::size_t kQueue = 4000;
  static constexpr std::size_t kBatch = 16;
  struct Request {
    double arrival_s;
    double deadline_s;
    std::uint32_t tokens;
  };

  // Plain FP32 causal attention over the kRows x kDim block.
  double attention() {
    double total = 0.0;
    for (std::size_t r = 0; r < kRows; ++r) {
      float m = -std::numeric_limits<float>::infinity();
      for (std::size_t c = 0; c <= r; ++c) {
        float acc[4] = {0.0f, 0.0f, 0.0f, 0.0f};
        for (std::size_t x = 0; x < kDim; x += 4) {
          for (std::size_t lane = 0; lane < 4; ++lane) {
            acc[lane] += q_[r * kDim + x + lane] * k_[c * kDim + x + lane];
          }
        }
        scores_[c] = (acc[0] + acc[1] + acc[2] + acc[3]) * 0.088f;
        m = std::max(m, scores_[c]);
      }
      std::fill(out_.begin(), out_.end(), 0.0f);
      float l = 0.0f;
      for (std::size_t c = 0; c <= r; ++c) {
        const float p = std::exp(scores_[c] - m);
        l += p;
        for (std::size_t x = 0; x < kDim; ++x) out_[x] += p * v_[c * kDim + x];
      }
      total += out_[0] / l;
    }
    return total;
  }

  // Up to kBatch requests run at once, one token each per 10 ms step; a
  // waiting request past its deadline is dropped, a scan over the backlog
  // every step.
  double queue() {
    std::fill(given_.begin(), given_.end(), 0);
    waiting_.clear();
    running_.clear();
    std::size_t next = 0;
    double now = 0.0;
    double tokens = 0.0;
    while (next < kQueue || !waiting_.empty() || !running_.empty()) {
      while (next < kQueue && queue_[next].arrival_s <= now) {
        waiting_.push_back(next++);
      }
      std::erase_if(waiting_, [this, now](std::size_t i) {
        return now > queue_[i].deadline_s;
      });
      const std::size_t admit =
          std::min(waiting_.size(), kBatch - running_.size());
      running_.insert(running_.end(), waiting_.begin(),
                      waiting_.begin() + static_cast<std::ptrdiff_t>(admit));
      waiting_.erase(waiting_.begin(),
                     waiting_.begin() + static_cast<std::ptrdiff_t>(admit));
      std::erase_if(running_, [this, &tokens](std::size_t i) {
        tokens += 1.0;
        return ++given_[i] >= queue_[i].tokens;
      });
      now += 0.01;
    }
    return tokens;
  }

  std::vector<float> q_, k_, v_;
  std::vector<Request> queue_;  // in arrival order
  std::vector<float> scores_;
  std::vector<float> out_;
  std::vector<std::uint32_t> given_;
  std::vector<std::size_t> waiting_;
  std::vector<std::size_t> running_;
};

}  // namespace

double probe_s() {
  static Probe probe;
  static volatile double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  sink = sink + probe.run();
  return seconds_since(t0);
}

double normalized_throughput(double work, const Timings& t) {
  for (std::size_t i = 0; i < t.reps(); ++i) {
    if (t.work_s[i].size() != t.work_s.front().size()) {
      throw std::logic_error("repetitions timed different positions");
    }
  }
  const auto positions = static_cast<double>(t.probe_s.front().size());
  const double host =
      sum_of_minima(t.probe_s) / (positions * kProbeReference_s);
  return work / sum_of_minima(t.work_s) * host;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}

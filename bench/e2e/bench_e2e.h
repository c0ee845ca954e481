// Shared pieces of the end-to-end benchmark: run options, the result
// record, the span tracer and the summary statistics.
//
// The benchmark measures the library from outside: every timed region is
// a call into a public function, bracketed by a steady_clock read here.
// Nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Whether one more repetition fits in the run's time budget at the mean
// repetition time so far, so the timed loop ends within `seconds` instead
// of overshooting it by up to a repetition. The first always runs.
inline bool another_rep_fits(Clock::time_point loop0, std::size_t reps,
                             double seconds) {
  if (reps == 0) return true;
  const double elapsed = seconds_since(loop0);
  return elapsed * static_cast<double>(reps + 1) /
             static_cast<double>(reps) <=
         seconds;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;  // length of the timed loop (BENCHMARK.json's)
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string out_dir;    // where the JSON record (and trace) go; "" = none
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // measurements behind the value
};

struct RunResult {
  std::size_t reps = 0;       // timed repetitions (the warm-up excluded)
  std::size_t attempted = 0;  // operations run, warm-up included
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few failure reasons
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::size_t ops, const std::string& why) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(why);
  }
};

// FNV-1a over raw bytes: the byte-identity check between repetitions.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Spans kept in memory and written as Chrome trace-event JSON at exit.
// A disabled tracer records nothing and never reads the clock, so the
// end-to-end run pays nothing for the instrumentation it does not use.
class Tracer {
 public:
  struct Record {
    const char* name;  // string literal
    double start_us;
    double dur_us;
    std::size_t parent;  // index into records, kNoParent for roots
    std::uint64_t seq;   // spans of one sequence / trace share this id
    std::size_t count;   // work items the span covered
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& t, const char* name, std::uint64_t seq, std::size_t count)
        : t_(t.enabled_ ? &t : nullptr) {
      if (t_ == nullptr) return;
      index_ = t_->records_.size();
      t_->records_.push_back({name, t_->now_us(), 0.0, t_->open_, seq, count});
      t_->open_ = index_;
    }
    ~Span() {
      if (t_ == nullptr) return;
      Record& r = t_->records_[index_];
      r.dur_us = t_->now_us() - r.start_us;
      t_->open_ = r.parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    std::size_t index_ = 0;
  };

  Span span(const char* name, std::uint64_t seq = 0, std::size_t count = 1) {
    return Span(*this, name, seq, count);
  }

  // Durations (µs) of every span with this name, in recording order.
  std::vector<double> durations_us(const char* name) const;
  // Sum of `count` over spans with this name.
  std::size_t total_count(const char* name) const;

  // {"traceEvents": [...]} with one complete ("ph":"X") event per span.
  bool write_chrome_json(const std::string& path) const;

 private:
  // Self time of every span: duration minus the time its children cover.
  std::vector<double> self_us() const;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::size_t open_ = kNoParent;
};

// Linear-interpolated percentile, p in [0, 100]. Empty input gives 0.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
// Sum over positions of the minimum across repetitions of the time spent
// at that position (one call, step or trace). Other work on the host only
// ever adds time, so each position's fastest repetition is its cost with
// the least interference, and a slowdown in part of one repetition drops
// out instead of skewing the whole repetition.
double sum_of_minima(const std::vector<std::vector<double>>& reps);
double sum(const std::vector<double>& values);

// The host-speed probe: a fixed piece of the two kinds of work this
// repository does, plain FP32 causal attention over a 160-row block and a
// first-come-first-served replay of a 4,000-request queue, written here
// and not meant to change. Returns the seconds it took (about 1 ms).
double probe_s();

// What a timed loop records: per repetition, the time of each position (a
// prefill call, a decode step, a run of engine steps, a fleet replay) and
// of the probe run right after it.
struct Timings {
  std::vector<std::vector<double>> work_s;
  std::vector<std::vector<double>> probe_s;

  void start_rep() {
    work_s.emplace_back();
    probe_s.emplace_back();
  }
  // Records one position's time, then runs and records its probe.
  void add(double seconds) {
    work_s.back().push_back(seconds);
    probe_s.back().push_back(e2e::probe_s());
  }
  std::size_t reps() const { return work_s.size(); }
};

// The probe time that defines the reference host speed.
constexpr double kProbeReference_s = 1e-3;

// `work` items per second of the loop's time, at the reference host speed:
// the loop's sum of minima scaled by the probe's mean per-position minimum
// over kProbeReference_s. On a shared host the same code runs up to twice
// as slow from one second to the next as other tenants come and go; a
// probe a millisecond after each position sees the same slowdown, so the
// scaled time moves only with the code.
double normalized_throughput(double work, const Timings& t);

// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace e2e

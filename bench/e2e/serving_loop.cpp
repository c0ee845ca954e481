// Simulator workloads (sim_overload, fleet_sessions): the serving engine
// and the fleet router replay seeded request traces. Their wall time is
// measured; everything they report about the simulated GPU (tokens/s,
// SLO attainment) comes from the analytical A100 model and is labelled
// "modeled".
//
// The end-to-end loop times short positions, each followed by the host
// probe (see normalized_throughput): sim_overload drives run_engine's loop
// through the public Engine API kChunkSteps steps at a time, and
// fleet_sessions replays short traces. Each run replays Scenario::traces
// traces drawn from consecutive seeds, so that its time does not rest on
// one trace's backlog.

#include <algorithm>
#include <cmath>
#include <limits>

#include "bench_e2e.h"
#include "fleet/metrics.h"
#include "fleet/router.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/trace.h"
#include "sim/device.h"
#include "sim/e2e_model.h"

namespace e2e {

namespace {

using turbo::serving::EngineResult;
using turbo::serving::Request;

constexpr int kSetupRepeats = 11;
// Engine steps per timed position of sim_overload: ~10-40 ms each.
constexpr std::size_t kChunkSteps = 500;

struct Scenario {
  bool fleet = false;
  std::size_t traces = 0;
  turbo::serving::TraceConfig trace;
  turbo::fleet::FleetConfig fleet_cfg;  // .engine is the engine config
};

Scenario scenario(const std::string& workload) {
  Scenario s;
  turbo::serving::EngineConfig& e = s.fleet_cfg.engine;
  e.device = turbo::sim::a100_sxm_80gb();
  e.geometry = turbo::sim::phi3_medium_geometry();
  e.method = turbo::sim::AttnMethod::kTurbo;
  e.attention.kv_bits = 3.0;
  s.trace.class_mix = {0.3, 0.5, 0.2};
  s.trace.ttft_deadline_s = {2.0, 10.0, 0.0};
  if (workload == "sim_overload") {
    // About twice what one engine sustains: the waiting backlog grows for
    // the whole trace.
    s.traces = 2;
    s.trace.arrival_rate = 20.0;
    s.trace.duration_s = 1800.0;
  } else {
    // Below the fleet's capacity; multi-turn sessions whose follow-ups
    // re-submit their history, most behind one shared system prompt.
    s.fleet = true;
    s.traces = 8;
    s.trace.arrival_rate = 0.8;
    s.trace.duration_s = 500.0;
    s.trace.session_turns = 4;
    s.trace.shared_prefix_tokens = 1024;
    s.trace.shared_prefix_fraction = 0.8;
    s.trace.session_gap_s = 5.0;
    s.trace.agentic_fraction = 0.25;
    s.fleet_cfg.replicas = 4;
    s.fleet_cfg.route = turbo::fleet::RoutePolicy::kAffinity;
  }
  return s;
}

std::vector<std::vector<Request>> make_traces(const Scenario& sc,
                                              std::uint64_t seed,
                                              double duration_s) {
  std::vector<std::vector<Request>> traces;
  for (std::size_t i = 0; i < sc.traces; ++i) {
    turbo::serving::TraceConfig tc = sc.trace;
    tc.seed = seed * sc.traces + i;
    tc.duration_s = duration_s;
    traces.push_back(turbo::serving::generate_trace(tc));
  }
  return traces;
}

// Everything a request carries out of a run, plus the makespan.
std::uint64_t digest(const std::vector<Request>& reqs, double makespan_s) {
  Digest d;
  for (const Request& r : reqs) {
    d.value(r.id);
    d.value(r.outcome);
    d.value(r.prefill_start_s);
    d.value(r.first_token_s);
    d.value(r.finish_s);
    d.value(r.generated);
    d.value(r.preemptions);
    d.value(r.prefix_hit_tokens);
    d.value(r.kv_bits_used);
  }
  d.value(makespan_s);
  return d.get();
}

// Requests of `trace` that did not end in exactly one terminal state: a
// result entry missing, duplicated, still pending, or completed without
// its tokens. A run stopped by the safety time limit fails every request.
// Trace ids run 0..n-1 (generate_trace numbers requests in order).
std::size_t bad_requests(std::size_t n, const std::vector<Request>& result,
                         bool hit_time_limit) {
  if (hit_time_limit) return n;
  std::vector<char> seen(n, 0);
  std::size_t bad = 0;
  for (const Request& r : result) {
    if (r.id >= n || seen[r.id] != 0) {
      ++bad;
      continue;
    }
    seen[r.id] = 1;
    const bool completed = r.outcome == turbo::serving::Outcome::kCompleted;
    if (r.outcome == turbo::serving::Outcome::kPending ||
        (completed && (r.finish_s < 0.0 || r.generated != r.max_new_tokens))) {
      ++bad;
    }
  }
  bad += static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 0));
  return std::min(bad, n);
}

// Count one replay of trace i (n requests) into the run: every request
// fails when the outcome differs from the warm-up's, else the `bad` ones.
void check(RunResult& r, std::size_t i, std::size_t n, std::size_t bad,
           bool same_outcome) {
  r.attempted += n;
  if (!same_outcome) {
    r.fail(n, "trace " + std::to_string(i) +
                  ": outcome differs from the warm-up replay");
  } else if (bad > 0) {
    r.fail(bad, "trace " + std::to_string(i) + ": " + std::to_string(bad) +
                    " requests not in exactly one terminal state");
  }
}

// One simulator replay of one trace, as the end-to-end run performs it.
struct Replay {
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t bad = 0;
};

Replay replay(const Scenario& sc, std::vector<Request> trace) {
  const std::size_t n = trace.size();
  Replay out;
  if (sc.fleet) {
    const Clock::time_point t0 = Clock::now();
    turbo::fleet::Router router(sc.fleet_cfg);
    const turbo::fleet::FleetResult r = router.run(std::move(trace));
    out.wall_s = seconds_since(t0);
    out.digest = digest(r.requests, r.makespan_s);
    out.bad = bad_requests(n, r.requests, r.hit_time_limit);
  } else {
    const Clock::time_point t0 = Clock::now();
    const EngineResult r =
        turbo::serving::run_engine(sc.fleet_cfg.engine, std::move(trace));
    out.wall_s = seconds_since(t0);
    out.digest = digest(r.requests, r.makespan_s);
    out.bad = bad_requests(n, r.requests, r.hit_time_limit);
  }
  return out;
}

// One pass over every trace; checks each replay against the warm-up's
// digests (recording them when `digests` is empty) and returns the wall
// time of each replay.
std::vector<double> pass(const Scenario& sc,
                         const std::vector<std::vector<Request>>& traces,
                         std::vector<std::uint64_t>& digests, RunResult& r) {
  std::vector<double> wall;
  const bool first = digests.empty();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Replay p = replay(sc, traces[i]);
    wall.push_back(p.wall_s);
    if (first) digests.push_back(p.digest);
    check(r, i, traces[i].size(), p.bad, p.digest == digests[i]);
  }
  return wall;
}

// run_engine's loop (sort, submit all, step to done, finish) through the
// public Engine API, timed as positions of at most kChunkSteps steps; the
// sort and submissions, and finish() with the engine's teardown, are
// positions of their own.
EngineResult chunked_engine(const turbo::serving::EngineConfig& cfg,
                            std::vector<Request> trace, Timings& t) {
  Clock::time_point t0 = Clock::now();
  std::sort(trace.begin(), trace.end(), [](const Request& a, const Request& b) {
    return a.arrival_s < b.arrival_s;
  });
  EngineResult result;
  {
    turbo::serving::Engine engine(cfg);
    for (const Request& r : trace) engine.submit(r);
    t.add(seconds_since(t0));
    const auto running = [&engine, &cfg] {
      return !engine.done() && engine.now() < cfg.max_sim_time_s;
    };
    bool more = true;
    while (more && running()) {
      t0 = Clock::now();
      for (std::size_t k = 0; k < kChunkSteps && more && running(); ++k) {
        more = engine.step(std::numeric_limits<double>::infinity());
      }
      t.add(seconds_since(t0));
    }
    t0 = Clock::now();
    result = engine.finish();
  }
  t.add(seconds_since(t0));
  return result;
}

// One repetition of the end-to-end loop, checked like pass().
void timed_pass(const Scenario& sc,
                const std::vector<std::vector<Request>>& traces,
                const std::vector<std::uint64_t>& digests, RunResult& r,
                Timings& t) {
  t.start_rep();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::size_t n = traces[i].size();
    if (sc.fleet) {
      const Replay p = replay(sc, traces[i]);
      t.add(p.wall_s);
      check(r, i, n, p.bad, p.digest == digests[i]);
    } else {
      const EngineResult er = chunked_engine(sc.fleet_cfg.engine, traces[i], t);
      check(r, i, n, bad_requests(n, er.requests, er.hit_time_limit),
            digest(er.requests, er.makespan_s) == digests[i]);
    }
  }
}

std::size_t request_count(const std::vector<std::vector<Request>>& traces) {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

// Step-driven replay of one trace through the public Engine API, with a
// span per call. Mirrors run_engine (sort, submit all, step to done,
// finish), so its outcome must equal the untraced replay's.
EngineResult step_engine(const Scenario& sc, std::vector<Request> trace,
                         Tracer& tracer, std::uint64_t seq,
                         double& live_steps) {
  const turbo::serving::EngineConfig& cfg = sc.fleet_cfg.engine;
  const auto sp = tracer.span("serving.replay", seq, trace.size());
  std::sort(trace.begin(), trace.end(), [](const Request& a, const Request& b) {
    return a.arrival_s < b.arrival_s;
  });
  std::vector<double> arrivals;
  arrivals.reserve(trace.size());
  for (const Request& r : trace) arrivals.push_back(r.arrival_s);

  turbo::serving::Engine engine(cfg);
  {
    const auto submit = tracer.span("serving.submit", seq, trace.size());
    for (const Request& r : trace) engine.submit(r);
  }
  while (!engine.done() && engine.now() < cfg.max_sim_time_s) {
    // live() counts submitted requests that have not arrived yet too.
    const auto not_arrived = static_cast<std::size_t>(
        arrivals.end() -
        std::upper_bound(arrivals.begin(), arrivals.end(), engine.now()));
    const std::size_t live = engine.live() - not_arrived;
    live_steps += static_cast<double>(live);
    const auto step = tracer.span("serving.step", seq, live);
    if (!engine.step(std::numeric_limits<double>::infinity())) break;
  }
  const auto finish = tracer.span("serving.finish", seq);
  return engine.finish();
}

double prompt_tokens(const std::vector<Request>& reqs) {
  double n = 0.0;
  for (const Request& r : reqs) n += static_cast<double>(r.prompt_tokens);
  return n;
}

double prefix_hit_tokens(const std::vector<Request>& reqs) {
  double n = 0.0;
  for (const Request& r : reqs) n += static_cast<double>(r.prefix_hit_tokens);
  return n;
}

// Per-layer run. Untraced: the warm-up, one overhead-baseline pass and the
// half-length pass behind the scaling exponent. Traced: one pass, the
// engine driven step by step (sim_overload) or the router run whole
// (fleet_sessions, whose router has no step API).
void traced_run(const Scenario& sc, const RunOptions& opt,
                const std::vector<std::vector<Request>>& traces,
                std::vector<std::uint64_t>& digests, Tracer& tracer,
                RunResult& r) {
  const double untraced_s = sum(pass(sc, traces, digests, r));
  const auto half = make_traces(sc, opt.seed, sc.trace.duration_s / 2.0);
  std::vector<std::uint64_t> half_digests;
  const double half_s = sum(pass(sc, half, half_digests, r));

  const double n = static_cast<double>(request_count(traces));
  const double k = static_cast<double>(traces.size());
  double timed_out = 0.0;
  double preemptions = 0.0;
  double out_tok_s = 0.0;
  double slo = 0.0;
  double prompts = 0.0;
  double hits = 0.0;
  double live_steps = 0.0;
  double affinity_hits = 0.0;
  double affinity_tries = 0.0;
  const char* replay_span = sc.fleet ? "fleet.run" : "serving.replay";
  const char* summarize_span =
      sc.fleet ? "fleet.summarize" : "serving.summarize";

  const auto root = tracer.span("bench.workload", opt.seed);
  {
    const auto rep = tracer.span("bench.rep");
    for (std::size_t i = 0; i < traces.size(); ++i) {
      std::vector<Request> reqs;
      double makespan_s = 0.0;
      bool hit_time_limit = false;
      turbo::serving::ServingMetrics m;
      if (sc.fleet) {
        std::vector<Request> trace = traces[i];
        turbo::fleet::FleetResult fr;
        {
          const auto sp = tracer.span(replay_span, i, trace.size());
          turbo::fleet::Router router(sc.fleet_cfg);
          fr = router.run(std::move(trace));
        }
        {
          const auto sp = tracer.span(summarize_span, i);
          m = turbo::fleet::summarize_fleet(fr).fleet;
        }
        affinity_hits += static_cast<double>(fr.affinity_hits);
        affinity_tries +=
            static_cast<double>(fr.affinity_hits + fr.affinity_misses);
        reqs = std::move(fr.requests);
        makespan_s = fr.makespan_s;
        hit_time_limit = fr.hit_time_limit;
      } else {
        EngineResult er = step_engine(sc, traces[i], tracer, i, live_steps);
        {
          const auto sp = tracer.span(summarize_span, i);
          m = turbo::serving::summarize(er);
        }
        reqs = std::move(er.requests);
        makespan_s = er.makespan_s;
        hit_time_limit = er.hit_time_limit;
      }
      check(r, i, traces[i].size(),
            bad_requests(traces[i].size(), reqs, hit_time_limit),
            digest(reqs, makespan_s) == digests[i]);
      prompts += prompt_tokens(reqs);
      hits += prefix_hit_tokens(reqs);
      timed_out += static_cast<double>(m.timed_out);
      preemptions += static_cast<double>(m.preemptions);
      out_tok_s += m.output_tokens_per_s;
      slo += m.by_class[0].ttft_attainment;
    }
  }
  r.reps = 1;

  const auto ms_p50 = [&tracer](const char* name) {
    return median(tracer.durations_us(name)) / 1000.0;
  };
  const double traced_s = sum(tracer.durations_us(replay_span)) / 1e6;
  if (sc.fleet) {
    r.add("fleet.run_s", ms_p50("fleet.run") / 1000.0, "s", traces.size());
    r.add("fleet.summarize_ms", ms_p50("fleet.summarize"), "ms",
          traces.size());
    r.add("fleet.affinity_hit_frac", affinity_hits / affinity_tries, "frac",
          static_cast<std::size_t>(affinity_tries));
  } else {
    const std::vector<double> steps = tracer.durations_us("serving.step");
    r.add("serving.step_us_p50", percentile(steps, 50), "us", steps.size());
    r.add("serving.step_us_p99", percentile(steps, 99), "us", steps.size());
    r.add("serving.steps", static_cast<double>(steps.size()) / k, "count",
          traces.size());
    r.add("serving.live_mean", live_steps / static_cast<double>(steps.size()),
          "count", steps.size());
    r.add("serving.step_ns_per_live", sum(steps) * 1000.0 / live_steps, "ns",
          steps.size());
    r.add("serving.submit_ms", ms_p50("serving.submit"), "ms", traces.size());
    r.add("serving.finish_ms", ms_p50("serving.finish"), "ms", traces.size());
    r.add("serving.summarize_ms", ms_p50("serving.summarize"), "ms",
          traces.size());
  }
  r.add("serving.scaling_exponent", std::log2(untraced_s / half_s), "ratio",
        2);
  r.add("serving.timed_out_frac", timed_out / n, "frac",
        static_cast<std::size_t>(n));
  r.add("serving.preemptions", preemptions / k, "count", traces.size());
  r.add("serving.prefix_hit_frac", hits / prompts, "frac",
        static_cast<std::size_t>(n));
  r.add("serving.modeled_out_tok_s", out_tok_s / k, "1/s", traces.size());
  r.add("serving.modeled_interactive_slo", slo / k, "frac", traces.size());
  r.add("bench.throughput_per_s", n / untraced_s, "1/s", 1);
  r.add("bench.trace_overhead_frac", (traced_s - untraced_s) / untraced_s,
        "frac", 1);
}

}  // namespace

RunResult run_serving_workload(const RunOptions& opt, Tracer& tracer) {
  const Scenario sc = scenario(opt.workload);
  RunResult r;
  std::vector<double> setups;
  std::vector<std::vector<Request>> traces;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    traces = make_traces(sc, opt.seed, sc.trace.duration_s);
    setups.push_back(seconds_since(t0));
  }

  // Warm-up pass: untimed; its digests are what every later pass matches.
  std::vector<std::uint64_t> digests;
  pass(sc, traces, digests, r);

  if (opt.trace) {
    traced_run(sc, opt, traces, digests, tracer, r);
    return r;
  }

  Timings t;
  const Clock::time_point loop0 = Clock::now();
  while (another_rep_fits(loop0, t.reps(), opt.seconds)) {
    timed_pass(sc, traces, digests, r, t);
  }
  r.reps = t.reps();
  r.add("throughput_norm_per_s",
        normalized_throughput(static_cast<double>(request_count(traces)), t),
        "1/s", t.reps());
  r.add("setup_s", median(setups), "s", setups.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  return r;
}

}  // namespace e2e

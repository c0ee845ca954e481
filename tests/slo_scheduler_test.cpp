// SLO-aware overload control: priority classes, deadlines, shedding and
// the precision-downshift degradation ladder (serving/engine.h).
//
// The scenarios deliberately overdrive a small KV pool (Phi3-mini on a
// 40 GB PCIe card at low headroom) so admission control, preemption,
// deadline timeouts and the pressure controller all fire; the assertions
// then check the policy-level contracts: every request reaches exactly
// one terminal state, per-class counters reconcile to the totals,
// class-aware scheduling protects the interactive tier where FIFO does
// not, the ladder trades KV fidelity for fewer preemptions/timeouts, and
// everything is bit-identical per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/trace.h"
#include "sim/attention_model.h"
#include "tests/serving_fixtures.h"

namespace turbo::serving {
namespace {

using test::crushed_engine;
using test::digest;
using test::overload_mix_trace;
using test::pressured_engine;

std::size_t terminal_count(const ServingMetrics& m) {
  return m.completed + m.rejected + m.timed_out + m.shed;
}

// --- Terminal-state accounting ---------------------------------------------

TEST(SloAccountingTest, EveryRequestReachesExactlyOneTerminalState) {
  // Deadlines, shedding, preemption and degradation all active at once:
  // the exactly-one-terminal-state invariant must still hold.
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  const auto trace = generate_trace(overload_mix_trace());
  const EngineResult r = run_engine(cfg, trace);
  ASSERT_FALSE(r.hit_time_limit);

  std::size_t completed = 0, rejected = 0, timed_out = 0, shed = 0;
  for (const Request& req : r.requests) {
    EXPECT_NE(req.outcome, Outcome::kPending);
    EXPECT_TRUE(req.finished());
    switch (req.outcome) {
      case Outcome::kCompleted:
        ++completed;
        EXPECT_EQ(req.generated, req.max_new_tokens);
        break;
      case Outcome::kRejected:
        ++rejected;
        EXPECT_EQ(req.generated, 0u);
        break;
      case Outcome::kTimedOut:
        ++timed_out;
        // A timed-out request never delivered its full budget — that is
        // what timing out means.
        EXPECT_LT(req.generated, req.max_new_tokens);
        break;
      case Outcome::kShed:
        ++shed;
        EXPECT_EQ(req.generated, 0u);
        EXPECT_FALSE(req.started());
        break;
      case Outcome::kPending:
        break;
    }
  }
  EXPECT_EQ(completed + rejected + timed_out + shed, trace.size());
  EXPECT_EQ(completed, trace.size() - r.rejected - r.timed_out - r.shed);
  EXPECT_EQ(rejected, r.rejected);
  EXPECT_EQ(timed_out, r.timed_out);
  EXPECT_EQ(shed, r.shed);
}

TEST(SloAccountingTest, PerClassCountersReconcileToTotals) {
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  const auto trace = generate_trace(overload_mix_trace());
  const ServingMetrics m = summarize(run_engine(cfg, trace));

  std::size_t requests = 0, completed = 0, rejected = 0, timed_out = 0,
              shed = 0, preemptions = 0;
  for (const ClassBreakdown& cb : m.by_class) {
    requests += cb.requests;
    completed += cb.completed;
    rejected += cb.rejected;
    timed_out += cb.timed_out;
    shed += cb.shed;
    preemptions += cb.preemptions;
    EXPECT_EQ(cb.completed + cb.rejected + cb.timed_out + cb.shed,
              cb.requests);
    EXPECT_LE(cb.deadline_met, cb.deadline_requests);
  }
  EXPECT_EQ(requests, trace.size());
  EXPECT_EQ(completed, m.completed);
  EXPECT_EQ(rejected, m.rejected);
  EXPECT_EQ(timed_out, m.timed_out);
  EXPECT_EQ(shed, m.shed);
  EXPECT_EQ(preemptions, m.preemptions);
  EXPECT_EQ(terminal_count(m), trace.size());
  EXPECT_EQ(m.unfinished, 0u);
  EXPECT_FALSE(m.hit_time_limit);
  // Every trace request carried a class from the mix; the all-standard
  // default would put everything in one bucket.
  EXPECT_GT(m.by_class[0].requests, 0u);
  EXPECT_GT(m.by_class[1].requests, 0u);
  EXPECT_GT(m.by_class[2].requests, 0u);
}

TEST(SloAccountingTest, TimeLimitTruncationIsVisibleNotClean) {
  // A run cut off by max_sim_time_s must say so: hit_time_limit set,
  // stranded requests reported as unfinished (still kPending), and the
  // terminal counters must NOT silently cover the whole trace.
  EngineConfig cfg = pressured_engine();
  cfg.max_sim_time_s = 3.0;  // far too short for the 15 s trace
  const auto trace = generate_trace(overload_mix_trace());
  const EngineResult r = run_engine(cfg, trace);
  EXPECT_TRUE(r.hit_time_limit);
  const ServingMetrics m = summarize(r);
  EXPECT_TRUE(m.hit_time_limit);
  EXPECT_GT(m.unfinished, 0u);
  EXPECT_LT(terminal_count(m), trace.size());
  EXPECT_EQ(terminal_count(m) + m.unfinished, trace.size());
  std::size_t pending = 0;
  for (const Request& req : r.requests) {
    if (req.outcome == Outcome::kPending) {
      ++pending;
      EXPECT_FALSE(req.finished());
    }
  }
  EXPECT_EQ(pending, m.unfinished);
}

TEST(SloAccountingTest, CleanRunReportsNoTruncation) {
  const auto trace = generate_trace(overload_mix_trace());
  const ServingMetrics m = summarize(run_engine(pressured_engine(), trace));
  EXPECT_FALSE(m.hit_time_limit);
  EXPECT_EQ(m.unfinished, 0u);
  EXPECT_EQ(terminal_count(m), trace.size());
}

// --- Class-aware scheduling vs FIFO ----------------------------------------

TEST(SloPolicyTest, ClassAwareProtectsInteractiveTailWhereFifoMisses) {
  // Same overload trace, deadlines carried but NOT enforced so both
  // policies run the full trace and the raw tails are comparable. FIFO
  // queues interactive requests behind batch prefills and blows the
  // interactive TTFT SLO; class-aware admission, re-admission and victim
  // selection keep the interactive p99 inside it.
  const auto trace = generate_trace(overload_mix_trace());
  const double deadline = overload_mix_trace().ttft_deadline_s[0];

  EngineConfig fifo = pressured_engine();
  fifo.policy = SchedPolicy::kFifo;
  fifo.enforce_deadlines = false;
  EngineConfig aware = pressured_engine();
  aware.policy = SchedPolicy::kClassAware;
  aware.enforce_deadlines = false;

  const ServingMetrics mf = summarize(run_engine(fifo, trace));
  const ServingMetrics ma = summarize(run_engine(aware, trace));
  ASSERT_FALSE(mf.hit_time_limit);
  ASSERT_FALSE(ma.hit_time_limit);

  const ClassBreakdown& fi = mf.by_class[0];
  const ClassBreakdown& ai = ma.by_class[0];
  ASSERT_GT(fi.requests, 10u);
  EXPECT_GT(fi.ttft_p99, deadline);   // FIFO misses the interactive SLO
  EXPECT_LE(ai.ttft_p99, deadline);   // class-aware holds it
  EXPECT_GT(ai.ttft_attainment, fi.ttft_attainment);
  EXPECT_GE(ai.ttft_attainment, 0.95);
}

TEST(SloPolicyTest, BatchPreemptedBeforeInteractive) {
  // Victim selection evicts the batch tier first: eviction events charged
  // to interactive requests must not exceed those charged to batch, and
  // interactive requests must be a strict minority of victims.
  EngineConfig cfg = crushed_engine();
  cfg.enforce_deadlines = false;
  const auto trace = generate_trace(overload_mix_trace());
  const ServingMetrics m = summarize(run_engine(cfg, trace));
  ASSERT_GT(m.preemptions, 0u);
  EXPECT_LE(m.by_class[0].preemptions, m.by_class[2].preemptions);
  EXPECT_LT(m.by_class[0].preemptions, m.preemptions / 2 + 1);
}

TEST(SloPolicyTest, FifoPolicyKeepsLegacyBehavior) {
  // On an all-standard trace with deadlines off, the FIFO policy is the
  // pre-SLO engine: every request completes or is rejected, nothing is
  // timed out, shed or degraded.
  TraceConfig t;
  t.arrival_rate = 8.0;
  t.duration_s = 15.0;
  t.prompt_log_mean = 5.5;
  t.prompt_log_std = 0.5;
  t.gen_log_mean = 4.0;
  t.gen_log_std = 0.5;
  t.seed = 7;
  const auto trace = generate_trace(t);
  EngineConfig cfg = pressured_engine();
  cfg.policy = SchedPolicy::kFifo;
  const ServingMetrics m = summarize(run_engine(cfg, trace));
  EXPECT_EQ(m.completed + m.rejected, trace.size());
  EXPECT_EQ(m.timed_out, 0u);
  EXPECT_EQ(m.shed, 0u);
  EXPECT_EQ(m.degraded_admissions, 0u);
  EXPECT_EQ(m.by_class[1].requests, trace.size());
}

TEST(SloPolicyTest, QuotasAreWorkConserving) {
  // A batch-only stream must be able to borrow the whole pool when the
  // other classes are idle: class-aware throughput stays within a few
  // percent of FIFO's on the identical trace.
  TraceConfig t = overload_mix_trace();
  t.class_mix = {0.0, 0.0, 1.0};
  t.ttft_deadline_s = {0.0, 0.0, 0.0};
  t.arrival_rate = 12.0;
  const auto trace = generate_trace(t);

  EngineConfig fifo = pressured_engine();
  fifo.policy = SchedPolicy::kFifo;
  EngineConfig aware = pressured_engine();
  aware.policy = SchedPolicy::kClassAware;

  const EngineResult rf = run_engine(fifo, trace);
  const EngineResult ra = run_engine(aware, trace);
  ASSERT_FALSE(rf.hit_time_limit);
  ASSERT_FALSE(ra.hit_time_limit);
  EXPECT_EQ(summarize(ra).completed, summarize(rf).completed);
  EXPECT_LT(ra.makespan_s, rf.makespan_s * 1.05);
}

TEST(SloPolicyTest, GuaranteedShareAdmitsInteractiveUnderBatchLoad) {
  // With the pool saturated by batch work, an interactive arrival must
  // still get in on the strength of its guaranteed share — its TTFT
  // cannot degrade to the back-of-queue FIFO position.
  TraceConfig t = overload_mix_trace();
  t.class_mix = {0.1, 0.1, 0.8};
  const auto trace = generate_trace(t);

  EngineConfig fifo = pressured_engine();
  fifo.policy = SchedPolicy::kFifo;
  fifo.enforce_deadlines = false;
  EngineConfig aware = pressured_engine();
  aware.enforce_deadlines = false;

  const ServingMetrics mf = summarize(run_engine(fifo, trace));
  const ServingMetrics ma = summarize(run_engine(aware, trace));
  ASSERT_GT(ma.by_class[0].requests, 5u);
  EXPECT_LT(ma.by_class[0].ttft_p99, mf.by_class[0].ttft_p99);
}

// --- Deadlines --------------------------------------------------------------

TEST(SloDeadlineTest, TtftDeadlineTimesOutQueuedRequest) {
  // Two monster prompts occupy the machine; a third request with a tight
  // TTFT deadline arrives behind them and cannot start in time. It must
  // be timed out at its deadline (not serviced late, not stranded), and
  // the run must still drain.
  std::vector<Request> trace(3);
  trace[0].id = 0;
  trace[0].arrival_s = 0.0;
  trace[0].prompt_tokens = 8192;
  trace[0].max_new_tokens = 256;
  trace[1] = trace[0];
  trace[1].id = 1;
  trace[2].id = 2;
  trace[2].arrival_s = 0.1;
  trace[2].prompt_tokens = 4096;
  trace[2].max_new_tokens = 64;
  trace[2].service_class = ServiceClass::kStandard;
  trace[2].ttft_deadline_s = 0.05;  // unmeetable behind two 8k prefills

  EngineConfig cfg = pressured_engine();
  cfg.max_batch = 2;  // force the third request to queue
  const EngineResult r = run_engine(cfg, trace);
  ASSERT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.timed_out, 1u);
  const Request& victim = *std::find_if(
      r.requests.begin(), r.requests.end(),
      [](const Request& q) { return q.id == 2; });
  EXPECT_EQ(victim.outcome, Outcome::kTimedOut);
  EXPECT_EQ(victim.generated, 0u);
  // Timed out when the deadline passed, not when a batch slot opened.
  EXPECT_NEAR(victim.finish_s, victim.arrival_s + victim.ttft_deadline_s,
              0.5);
  EXPECT_FALSE(victim.met_ttft_deadline());
  for (const Request& req : r.requests) {
    if (req.id != 2) {
      EXPECT_EQ(req.outcome, Outcome::kCompleted);
    }
  }
}

TEST(SloDeadlineTest, E2eDeadlineCutsOffMidDecode) {
  // A request with a generation budget far beyond its e2e deadline gets
  // cut off mid-stream: partial tokens delivered, terminal state timed
  // out, pages returned (the allocator must end the run empty —
  // otherwise the next admission would have leaked capacity).
  std::vector<Request> trace(1);
  trace[0].id = 0;
  trace[0].arrival_s = 0.0;
  trace[0].prompt_tokens = 256;
  trace[0].max_new_tokens = 8000;  // fits the pool, not the deadline
  trace[0].e2e_deadline_s = 2.0;

  const EngineResult r = run_engine(pressured_engine(), trace);
  ASSERT_FALSE(r.hit_time_limit);
  ASSERT_EQ(r.rejected, 0u);  // the budget itself fits the machine
  EXPECT_EQ(r.timed_out, 1u);
  const Request& req = r.requests[0];
  EXPECT_EQ(req.outcome, Outcome::kTimedOut);
  EXPECT_GT(req.generated, 0u);
  EXPECT_LT(req.generated, req.max_new_tokens);
  EXPECT_NEAR(req.finish_s, 2.0, 0.5);
}

TEST(SloDeadlineTest, EnforcementOffCarriesDeadlinesWithoutActingOnThem) {
  const auto trace = generate_trace(overload_mix_trace());
  EngineConfig cfg = pressured_engine();
  cfg.enforce_deadlines = false;
  const ServingMetrics m = summarize(run_engine(cfg, trace));
  EXPECT_EQ(m.timed_out, 0u);
  EXPECT_EQ(terminal_count(m), trace.size());
  // Attainment is still measured from the carried deadlines.
  EXPECT_GT(m.by_class[0].deadline_requests, 0u);
}

TEST(SloDeadlineTest, MetTtftDeadlineSemantics) {
  Request r;
  EXPECT_TRUE(r.met_ttft_deadline());  // vacuous without a deadline
  r.ttft_deadline_s = 1.0;
  EXPECT_FALSE(r.met_ttft_deadline());  // no first token yet
  r.arrival_s = 10.0;
  r.first_token_s = 10.9;
  EXPECT_TRUE(r.met_ttft_deadline());
  r.first_token_s = 11.0 + 1e-12;  // exactly on the line (within slack)
  EXPECT_TRUE(r.met_ttft_deadline());
  r.first_token_s = 11.5;
  EXPECT_FALSE(r.met_ttft_deadline());
}

// --- Degradation ladder -----------------------------------------------------

TEST(SloDegradeTest, LadderReducesPreemptionsAndTimeouts) {
  // Equal load, ladder off vs on. Downshifted KV packs more tokens per
  // page and sheds batch arrivals at the door, so the engine preempts
  // and times out strictly less; the price is recorded: degraded
  // admissions, a minimum KV precision below the configured one, and a
  // nonzero quantization-error proxy.
  const auto trace = generate_trace(overload_mix_trace());
  EngineConfig off = crushed_engine();
  EngineConfig on = crushed_engine();
  on.degrade.enabled = true;

  const EngineResult roff = run_engine(off, trace);
  const EngineResult ron = run_engine(on, trace);
  ASSERT_FALSE(roff.hit_time_limit);
  ASSERT_FALSE(ron.hit_time_limit);

  ASSERT_GT(roff.preemptions + roff.timed_out, 0u);
  EXPECT_LT(ron.preemptions, roff.preemptions);
  EXPECT_LE(ron.timed_out, roff.timed_out);
  EXPECT_LT(ron.preemptions + ron.timed_out,
            roff.preemptions + roff.timed_out);

  EXPECT_GT(ron.ladder_escalations, 0u);
  EXPECT_GT(ron.degraded_admissions, 0u);
  EXPECT_GT(ron.degraded_iterations, 0u);
  EXPECT_LT(ron.min_kv_bits, on.attention.kv_bits);
  EXPECT_DOUBLE_EQ(ron.min_kv_bits, 2.0);  // full 2-bit downshift
  EXPECT_GT(ron.degrade_rmse_proxy, 0.0);

  // Ladder off: no degradation machinery may fire.
  EXPECT_EQ(roff.ladder_escalations, 0u);
  EXPECT_EQ(roff.degraded_admissions, 0u);
  EXPECT_EQ(roff.shed, 0u);
  EXPECT_DOUBLE_EQ(roff.min_kv_bits, off.attention.kv_bits);
  EXPECT_DOUBLE_EQ(roff.degrade_rmse_proxy, 0.0);
}

TEST(SloDegradeTest, ShedsBatchNeverInteractive) {
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  const auto trace = generate_trace(overload_mix_trace());
  const ServingMetrics m = summarize(run_engine(cfg, trace));
  if (m.shed > 0) {
    EXPECT_EQ(m.by_class[0].shed, 0u);  // interactive is never shed
    EXPECT_GT(m.by_class[2].shed + m.by_class[1].shed, 0u);
  }
  // Interactive kept its SLO through the degraded regime.
  EXPECT_GE(m.by_class[0].ttft_attainment, 0.95);
}

TEST(SloDegradeTest, DegradedRequestsRecordTheirPrecision) {
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  cfg.degrade.two_bit_head_fraction = 0.5;  // the paper's 3.0-bit 2/4 mix
  const auto trace = generate_trace(overload_mix_trace());
  const EngineResult r = run_engine(cfg, trace);
  ASSERT_GT(r.degraded_admissions, 0u);
  EXPECT_DOUBLE_EQ(r.min_kv_bits, 3.0);
  std::size_t degraded = 0;
  for (const Request& req : r.requests) {
    if (req.outcome == Outcome::kRejected || req.outcome == Outcome::kShed) {
      continue;
    }
    if (!req.started()) continue;
    // Admitted requests carry the precision they were written at.
    EXPECT_TRUE(req.kv_bits_used == 4.0 || req.kv_bits_used == 3.0)
        << req.kv_bits_used;
    if (req.kv_bits_used == 3.0) ++degraded;
  }
  EXPECT_GT(degraded, 0u);
}

TEST(SloDegradeTest, LadderDeescalatesWhenPressureClears) {
  // Overload burst followed by a long quiet tail: the controller must
  // come back down (de-escalations recorded) and late admissions return
  // to full precision.
  TraceConfig burst = overload_mix_trace();
  burst.duration_s = 10.0;
  auto trace = generate_trace(burst);
  // Quiet tail: a few stragglers long after the burst.
  const double tail_start = 60.0;
  for (std::size_t i = 0; i < 5; ++i) {
    Request r;
    r.id = 100000 + i;
    r.arrival_s = tail_start + static_cast<double>(i) * 2.0;
    r.prompt_tokens = 128;
    r.max_new_tokens = 32;
    r.service_class = ServiceClass::kStandard;
    trace.push_back(r);
  }
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  const EngineResult r = run_engine(cfg, trace);
  ASSERT_FALSE(r.hit_time_limit);
  ASSERT_GT(r.ladder_escalations, 0u);
  EXPECT_GT(r.ladder_deescalations, 0u);
  for (const Request& req : r.requests) {
    if (req.id >= 100000) {
      EXPECT_EQ(req.outcome, Outcome::kCompleted);
      EXPECT_DOUBLE_EQ(req.kv_bits_used, cfg.attention.kv_bits);
    }
  }
}

TEST(SloDegradeTest, HeadwiseMixedBitsMapsFractionToAverage) {
  EXPECT_DOUBLE_EQ(sim::headwise_mixed_kv_bits(0.0), 4.0);
  EXPECT_DOUBLE_EQ(sim::headwise_mixed_kv_bits(0.5), 3.0);
  EXPECT_DOUBLE_EQ(sim::headwise_mixed_kv_bits(1.0), 2.0);
  EXPECT_THROW(sim::headwise_mixed_kv_bits(-0.1), CheckError);
  EXPECT_THROW(sim::headwise_mixed_kv_bits(1.1), CheckError);
}

// --- Config validation ------------------------------------------------------

TEST(SloConfigTest, RejectsInvalidPolicies) {
  const auto trace = generate_trace(overload_mix_trace());
  {
    EngineConfig cfg = pressured_engine();
    cfg.classes[0].page_share = 0.9;  // shares sum past 1
    EXPECT_THROW(run_engine(cfg, trace), CheckError);
  }
  {
    EngineConfig cfg = pressured_engine();
    cfg.classes[1].page_share = -0.1;
    EXPECT_THROW(run_engine(cfg, trace), CheckError);
  }
  {
    EngineConfig cfg = pressured_engine();
    cfg.degrade.enabled = true;
    cfg.degrade.low_watermark = 0.9;  // low >= high
    cfg.degrade.high_watermark = 0.8;
    EXPECT_THROW(run_engine(cfg, trace), CheckError);
  }
  {
    EngineConfig cfg = pressured_engine();
    cfg.degrade.enabled = true;
    cfg.degrade.two_bit_head_fraction = 1.5;  // outside [0, 1]
    EXPECT_THROW(run_engine(cfg, trace), CheckError);
  }
  {
    EngineConfig cfg = pressured_engine();
    cfg.backoff_jitter = -0.5;
    EXPECT_THROW(run_engine(cfg, trace), CheckError);
  }
}

// --- Determinism ------------------------------------------------------------

TEST(SloDeterminismTest, BitIdenticalAcrossRunsWithAllPoliciesActive) {
  EngineConfig cfg = pressured_engine();
  cfg.degrade.enabled = true;
  cfg.faults.seed = 5;
  cfg.faults.page_alloc_failure_prob = 0.02;
  cfg.faults.stream_corruption_prob = 0.05;
  const auto trace = generate_trace(overload_mix_trace());
  const EngineResult a = run_engine(cfg, trace);
  const EngineResult b = run_engine(cfg, trace);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(SloDeterminismTest, JitterSeedChangesScheduleDeterministically) {
  EngineConfig cfg = crushed_engine();
  cfg.enforce_deadlines = false;
  const auto trace = generate_trace(overload_mix_trace());
  const EngineResult base = run_engine(cfg, trace);
  ASSERT_GT(base.preemptions, 0u);  // jitter only matters under eviction
  cfg.jitter_seed = 0xBEEF;
  const EngineResult other = run_engine(cfg, trace);
  const EngineResult other2 = run_engine(cfg, trace);
  EXPECT_EQ(digest(other), digest(other2));
  EXPECT_NE(digest(base), digest(other));
}

}  // namespace
}  // namespace turbo::serving

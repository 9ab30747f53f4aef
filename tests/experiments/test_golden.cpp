// Golden regression tests: exact pinned values for the schedule/reliability
// metric pipeline (Sapp / Fapp / Japp / Wapp, the Table-2 per-task bundle)
// on one tiny fixed application and configuration. The tracer instruments
// exactly these hot paths; these literals make a silent numeric drift in a
// "performance-neutral" refactor a loud test failure instead.
//
// The pinned chromosome is problem.random_genes(Rng(7)) for the 6-task app
// with seed 42, spelled out literally so the test does not depend on the
// random-genes draw order. If a deliberate model change moves these values,
// re-capture them with a %.17g print and update the literals in one commit
// with the model change.

#include <gtest/gtest.h>

#include <cstring>

#include "dse/mapping_problem.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "runtime/drc_matrix.hpp"
#include "schedule/scheduler.hpp"
#include "support/literal_db.hpp"

namespace clr::exp {
namespace {

class GoldenSchedule : public ::testing::Test {
 protected:
  GoldenSchedule()
      : app_(make_synthetic_app(6, 42)),
        problem_(app_->context(), dse::QosSpec{1e9, 0.0}, dse::ObjectiveMode::EnergyQos) {}

  sched::ScheduleResult evaluate() const {
    const std::vector<int> genes{3, 0, 6, 5, 1, 0, 47, 5, 2, 0, 43, 3,
                                 1, 0, 47, 1, 4, 0, 49, 1, 3, 0, 2,  0};
    return sched::ListScheduler{}.run(app_->context(), problem_.decode(genes));
  }

  std::unique_ptr<AppInstance> app_;
  dse::MappingProblem problem_;
};

TEST_F(GoldenSchedule, ApplicationMetricsAreExact) {
  const auto res = evaluate();
  EXPECT_DOUBLE_EQ(res.makespan, 155.97094771512113);      // Sapp (Eq. 1)
  EXPECT_DOUBLE_EQ(res.func_rel, 0.99759311712513665);     // Fapp (Eq. 2)
  EXPECT_DOUBLE_EQ(res.energy, 478.59789316039718);        // Japp (Eq. 3)
  EXPECT_DOUBLE_EQ(res.peak_power, 6.2743007359690264);    // Wapp
  EXPECT_DOUBLE_EQ(res.system_mttf, 25632.587574607835);
}

TEST_F(GoldenSchedule, TaskWindowsAreExact) {
  const auto res = evaluate();
  ASSERT_EQ(res.tasks.size(), 6u);
  EXPECT_DOUBLE_EQ(res.tasks.front().start, 0.0);
  EXPECT_DOUBLE_EQ(res.tasks.front().end, 19.538159423485002);
  EXPECT_DOUBLE_EQ(res.tasks.back().start, 136.00635193706029);
  EXPECT_DOUBLE_EQ(res.tasks.back().end, 154.23815673589002);
}

TEST_F(GoldenSchedule, Table2BundleOfTaskZeroIsExact) {
  const auto res = evaluate();
  const auto& m = res.tasks[0].metrics;
  EXPECT_DOUBLE_EQ(m.min_ext, 19.267441685971907);
  EXPECT_DOUBLE_EQ(m.avg_ext, 19.538159423485002);
  EXPECT_DOUBLE_EQ(m.err_prob, 0.0056549654298288198);
  EXPECT_DOUBLE_EQ(m.mttf, 2293827.8216240308);
  EXPECT_DOUBLE_EQ(m.avg_power, 1.1828919278778716);
  EXPECT_DOUBLE_EQ(m.eta, 2579401.8261115714);
}

// Explore golden: the byte digest of a whole small design flow (spec, BaseD
// and ReD databases: every configuration and metric bit). The literals were
// captured before the DSE bookkeeping was reworked (one genome hash per
// evaluation, compiled dRC tables); that rework must not move a single bit,
// at any thread count, batched or scalar.
/// FNV-1a over the bytes of a sequence of values.
struct ByteDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  template <typename T>
  void operator()(const T& v) {
    unsigned char b[sizeof(v)];
    std::memcpy(b, &v, sizeof(v));
    for (unsigned char c : b) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t flow_digest(const FlowResult& flow) {
  ByteDigest add;
  const auto add_db = [&](const dse::DesignDb& db) {
    add(static_cast<std::uint64_t>(db.size()));
    for (const auto& p : db.points()) {
      for (const auto& t : p.config.tasks) {
        add(t.pe);
        add(t.impl_index);
        add(t.clr_index);
        add(t.priority);
      }
      add(p.energy);
      add(p.makespan);
      add(p.func_rel);
      add(static_cast<std::uint8_t>(p.extra));
    }
  };
  add(flow.spec.max_makespan);
  add(flow.spec.min_func_rel);
  add_db(flow.based);
  add_db(flow.red);
  return add.h;
}

TEST(GoldenExplore, FlowDigestIsPinnedAtEveryThreadCountAndMode) {
  const std::pair<std::size_t, std::uint64_t> golden[] = {{12, 0xbb876ac602a82c55ULL},
                                                          {16, 0x9363fa314dae8978ULL}};
  for (const auto& [tasks, digest] : golden) {
    const auto app = make_synthetic_app(tasks, 100 + tasks);
    for (const std::size_t threads : {1u, 2u}) {
      for (const bool batched : {true, false}) {
        FlowParams params;
        params.dse.base_ga.population = 24;
        params.dse.base_ga.generations = 10;
        params.dse.red_ga.population = 12;
        params.dse.red_ga.generations = 6;
        params.dse.max_red_seeds = 4;
        params.dse.threads = threads;
        params.dse.batched_eval = batched;
        util::Rng rng(tasks);
        const FlowResult flow = run_design_flow(*app, params, rng);
        EXPECT_GT(flow.red.size(), flow.based.size()) << "ReD found no extra";
        EXPECT_EQ(flow_digest(flow), digest)
            << tasks << " tasks, threads " << threads << (batched ? ", batched" : ", scalar");
      }
    }
  }
}

TEST(GoldenRuntime, FoldedReconfigAccountingIsExactAfterTheStallSplit) {
  // ISSUE 10 satellite: reconfig_stall_time was split out of the previously
  // folded reconfiguration accounting. This pins the OLD folded sum (and the
  // fields derived from it) as exact literals on a fixed fixture, so the
  // split provably re-derives — not re-defines — the historical quantity:
  // with prefetch off, stall must carry the identical bits.
  dse::DesignDb db;
  auto add = [&](double s, double f, double j, int tag) {
    dse::DesignPoint p;
    p.makespan = s;
    p.func_rel = f;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    db.add(p);
  };
  add(100, 0.95, 50, 0);
  add(120, 0.99, 80, 1);
  add(80, 0.92, 30, 2);
  const rt::DrcMatrix drc(3, {0, 10, 2, 10, 0, 10, 2, 10, 0});
  dse::MetricRanges ranges;
  ranges.makespan_min = 80.0;
  ranges.makespan_max = 120.0;
  ranges.func_rel_min = 0.92;
  ranges.func_rel_max = 0.99;
  ranges.energy_min = 30.0;
  ranges.energy_max = 80.0;

  RuntimeEvalParams params;
  params.kind = PolicyKind::Ura;
  params.p_rc = 0.3;
  params.sim.total_cycles = 2e4;
  const rt::RuntimeStats s = evaluate_policy_with(db, drc, ranges, params, 42);

  EXPECT_DOUBLE_EQ(s.total_reconfig_cost, 130.0);
  EXPECT_DOUBLE_EQ(s.avg_reconfig_cost, 0.67010309278350511);
  EXPECT_EQ(s.num_reconfigs, 57u);
  // The split re-derives the folded sum bit-for-bit.
  EXPECT_EQ(s.reconfig_stall_time, s.total_reconfig_cost);
  EXPECT_EQ(s.prefetch_hidden_time, 0.0);
  EXPECT_DOUBLE_EQ(s.service_availability, 0.99350000000000005);
}

// Runtime golden: the byte digest of every RuntimeStats field plus the first
// 64 trace records, per policy, over test::LiteralDb. That database holds no
// design-time result, so only run-time code can move it. The literals were
// captured before the run-time decision path was rewritten
// (column scans into policy-owned scratch, the episode-boundary inner loop,
// the index-free struck-task draw); that rewrite must not move a single bit.
// Fleet-vs-evaluate_policy_with tests cannot catch such a drift: both sides
// run the same rewritten code.
std::uint64_t stats_digest(const rt::RuntimeStats& s) {
  ByteDigest add;
  add(s.total_cycles);
  add(static_cast<std::uint64_t>(s.num_events));
  add(static_cast<std::uint64_t>(s.num_reconfigs));
  add(static_cast<std::uint64_t>(s.num_infeasible_events));
  add(s.avg_energy);
  add(s.total_reconfig_cost);
  add(s.avg_reconfig_cost);
  add(s.max_drc);
  add(s.qos_violation_time);
  add(static_cast<std::uint64_t>(s.num_transient_faults));
  add(static_cast<std::uint64_t>(s.num_recovered_transients));
  add(static_cast<std::uint64_t>(s.num_unrecovered_failures));
  add(static_cast<std::uint64_t>(s.num_permanent_faults));
  add(static_cast<std::uint64_t>(s.num_evacuations));
  add(static_cast<std::uint64_t>(s.num_safe_mode_entries));
  add(s.downtime);
  add(s.availability);
  add(s.mttr);
  add(s.reconfig_stall_time);
  add(s.prefetch_hidden_time);
  add(static_cast<std::uint64_t>(s.prefetch_hits));
  add(static_cast<std::uint64_t>(s.prefetch_misses));
  add(s.service_availability);
  add(static_cast<std::uint64_t>(s.trace.size()));
  for (const auto& ev : s.trace) {
    add(ev.time);
    add(static_cast<std::uint64_t>(ev.point));
    add(ev.drc);
    add(static_cast<std::uint8_t>(ev.reconfigured));
    add(static_cast<std::uint8_t>(ev.infeasible));
    add(static_cast<std::uint8_t>(ev.fault));
    add(static_cast<std::uint8_t>(ev.violation));
    add(static_cast<std::uint8_t>(ev.safe_mode));
  }
  return add.h;
}

TEST(GoldenRuntime, StatsDigestIsPinnedForEveryPolicy) {
  struct Case {
    const char* name;
    PolicyKind kind;
    bool faults;
    bool prefetch;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"baseline", PolicyKind::Baseline, false, false, 0x70ead8e58fa9dee1ULL},
      {"baseline+faults", PolicyKind::Baseline, true, false, 0x71915b2eee361613ULL},
      {"ura", PolicyKind::Ura, false, false, 0x13668445815a7d2bULL},
      {"ura+faults", PolicyKind::Ura, true, false, 0x817e476ea18dce89ULL},
      {"aura", PolicyKind::Aura, false, false, 0x1d171cdae508c1c4ULL},
      {"aura+faults", PolicyKind::Aura, true, false, 0x263e5f15c6e17532ULL},
      {"aura+prefetch", PolicyKind::Aura, false, true, 0x1bb6b4d032616deeULL},
      {"aura+faults+prefetch", PolicyKind::Aura, true, true, 0x98578c596483ed3eULL},
      {"mdp", PolicyKind::Mdp, false, false, 0xe2e80af64f5bbf0eULL},
      {"mdp+faults", PolicyKind::Mdp, true, false, 0xde51c12d279c3589ULL},
      {"mdp+prefetch", PolicyKind::Mdp, false, true, 0xea3719afdf79f22fULL},
      {"mdp+faults+prefetch", PolicyKind::Mdp, true, true, 0x412c6f37fe80406cULL},
  };
  const test::LiteralDb lit;
  rt::RuntimeStats sum;  // non-vacuity: every path the digests guard was taken
  for (const Case& c : cases) {
    RuntimeEvalParams params;
    params.kind = c.kind;
    params.p_rc = 0.4;
    params.pretrain_cycles = 1e4;
    params.pretrain_sweeps = 2;
    params.aura.guard = 0.05;  // let the value lookahead overrule uRA
    params.sim.total_cycles = 3e4;
    params.sim.trace_events = 64;
    if (c.faults) {
      params.faults.transient_rate = 2e-3;
      params.faults.pe_mtbf = 2e4;
      params.faults.qos_tolerance = 0.5;  // evacuate rather than drop to safe mode
    }
    params.prefetch = c.prefetch;
    const rt::RuntimeStats s =
        evaluate_policy_with(lit.db, lit.drc, lit.ranges, params, 9, &lit.space);
    EXPECT_EQ(stats_digest(s), c.digest) << c.name << " 0x" << std::hex << stats_digest(s);
    sum.num_reconfigs += s.num_reconfigs;
    sum.num_infeasible_events += s.num_infeasible_events;
    sum.num_recovered_transients += s.num_recovered_transients;
    sum.num_unrecovered_failures += s.num_unrecovered_failures;
    sum.num_permanent_faults += s.num_permanent_faults;
    sum.num_evacuations += s.num_evacuations;
    sum.prefetch_hits += s.prefetch_hits;
    sum.num_safe_mode_entries += s.num_safe_mode_entries;
  }
  EXPECT_GT(sum.num_reconfigs, 0u);
  EXPECT_GT(sum.num_infeasible_events, 0u);
  EXPECT_GT(sum.num_recovered_transients, 0u);
  EXPECT_GT(sum.num_unrecovered_failures, 0u);
  EXPECT_GT(sum.num_permanent_faults, 0u);
  EXPECT_GT(sum.num_evacuations, 0u);
  EXPECT_GT(sum.prefetch_hits, 0u);
  EXPECT_GT(sum.num_safe_mode_entries, 0u);

  // Pre-trained AuRA values: every bit of the stationary learning reward
  // (global_reward's normalizations) over a fault-free pre-training run.
  {
    rt::AuraPolicy aura(lit.db, lit.drc, 0.4);
    util::Rng rng(9);
    ByteDigest add;
    for (const double v :
         rt::pretrain_aura(aura, lit.db, rt::QosProcess(lit.ranges), 1e4, 2, rng)) {
      add(v);
    }
    EXPECT_EQ(add.h, 0x4a9476e886cf20aeULL) << "pre-trained AuRA values 0x" << std::hex << add.h;
  }

  // Tie fixture: twin points (same metrics, zero dRC between them) make the
  // current point tie exactly with its twin on every event it stays
  // feasible, so the "prefer the current point" tie-breaks decide. Moving
  // from 4 or 5 is cheaper into twin 1 (or 3), so the current twin is often
  // the higher index — dropping a tie-break then moves to the lower one.
  // AuRA's tiny learning rate keeps gamma * V below the RET's last bit, so
  // its value lookahead ties exactly too.
  dse::DesignDb twins;
  const auto add_point = [&](double s, double f, double j, int tag) {
    dse::DesignPoint p;
    p.makespan = s;
    p.func_rel = f;
    p.energy = j;
    p.config.tasks.resize(1);
    p.config.tasks[0].priority = tag;
    twins.add(p);
  };
  add_point(90, 0.95, 40, 0);
  add_point(90, 0.95, 40, 1);
  add_point(85, 0.97, 60, 2);
  add_point(85, 0.97, 60, 3);
  add_point(80, 0.99, 80, 4);
  add_point(110, 0.93, 30, 5);
  const rt::DrcMatrix twin_drc(6, {0,  0,  10, 10, 2,  7,    //
                                   0,  0,  10, 10, 2,  7,    //
                                   10, 10, 0,  0,  13, 3,    //
                                   10, 10, 0,  0,  13, 3,    //
                                   5,  2,  14, 13, 0,  11,   //
                                   9,  7,  4,  3,  11, 0});  //
  dse::MetricRanges twin_ranges;
  twin_ranges.makespan_min = 80.0;
  twin_ranges.makespan_max = 120.0;
  twin_ranges.func_rel_min = 0.92;
  twin_ranges.func_rel_max = 0.99;
  twin_ranges.energy_min = 30.0;
  twin_ranges.energy_max = 80.0;
  const Case twin_cases[] = {
      {"twins baseline", PolicyKind::Baseline, false, false, 0xbac6da1129826f21ULL},
      {"twins ura", PolicyKind::Ura, false, false, 0xdae97dc2d4158f46ULL},
      {"twins aura", PolicyKind::Aura, false, false, 0xdae97dc2d4158f46ULL},
      {"twins mdp", PolicyKind::Mdp, false, false, 0xdae97dc2d4158f46ULL},
  };
  for (const Case& c : twin_cases) {
    RuntimeEvalParams params;
    params.kind = c.kind;
    params.p_rc = 0.3;
    params.aura.alpha = 1e-30;
    params.pretrain_cycles = 5e3;
    params.pretrain_sweeps = 2;
    params.sim.total_cycles = 2e4;
    params.sim.trace_events = 64;
    const rt::RuntimeStats s = evaluate_policy_with(twins, twin_drc, twin_ranges, params, 42);
    EXPECT_EQ(stats_digest(s), c.digest) << c.name << " 0x" << std::hex << stats_digest(s);
  }
}

TEST_F(GoldenSchedule, ScheduleStructurallyValid) {
  // The pinned values only matter if the schedule itself is well-formed.
  const std::vector<int> genes{3, 0, 6, 5, 1, 0, 47, 5, 2, 0, 43, 3,
                               1, 0, 47, 1, 4, 0, 49, 1, 3, 0, 2,  0};
  const auto cfg = problem_.decode(genes);
  const auto res = sched::ListScheduler{}.run(app_->context(), cfg);
  EXPECT_EQ(sched::validate_schedule(app_->context(), cfg, res), "");
}

}  // namespace
}  // namespace clr::exp

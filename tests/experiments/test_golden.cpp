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
#include "schedule/scheduler.hpp"

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
std::uint64_t flow_digest(const FlowResult& flow) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the value bytes
  const auto add = [&h](const auto& v) {
    unsigned char b[sizeof(v)];
    std::memcpy(b, &v, sizeof(v));
    for (unsigned char c : b) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
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
  return h;
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

// Exhaustive small-instance oracle for the MDP solvers (DESIGN.md §5.14).
//
// The optimality claim behind rt::MdpPolicy is proven here the strong way:
// on fuzzed tiny instances every policy is enumerated and scored by the SAME
// exact evaluation routine that scores the solver's policy, so "the solver is
// optimal" is a bit-exact comparison against a brute-force maximum — not a
// tolerance check against a reimplementation that could share a bug.
//
//   - finite horizon: ALL (possibly non-stationary) action sequences are
//     enumerated and evaluate_finite_horizon_policy-scored; backward
//     induction must attain the enumerated maximum exactly;
//   - infinite horizon: all stationary deterministic policies are enumerated
//     and evaluate_stationary_policy-scored; the value-iteration and
//     policy-iteration policies must attain the per-state maximum exactly
//     (an optimal policy maximizes the value in every state simultaneously);
//   - the converged Bellman residual is independently recomputed and checked
//     against the solver's tolerance;
//   - Gauss-Seidel sweep order (Forward vs Reverse) must not change the
//     fixed point reached;
//   - the factored solver (FactoredMdp) must reproduce the generic solver
//     on its expand()ed MDP bit for bit, on random factored instances and on
//     the planning MDPs build_mdp_model derives from random databases.
//
// Rewards are continuous uniform draws, so distinct policies are separated
// by gaps many orders of magnitude above double rounding — exact ties that
// would make bit-exact maxima flaky are measure-zero by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "runtime/mdp.hpp"
#include "runtime/mdp_policy.hpp"

namespace clr::rt {
namespace {

/// A random dense-as-sparse MDP: every (s, a) gets its own stochastic row
/// over all states (some instances share rows across states to exercise the
/// row_of indirection), rewards uniform in [-1, 1], and roughly a third of
/// the instances carry a non-trivial action mask.
Mdp fuzz_mdp(util::Rng& rng, std::size_t num_states, std::size_t num_actions) {
  Mdp mdp;
  mdp.num_states = num_states;
  mdp.num_actions = num_actions;
  const bool share_rows = rng.chance(0.33);
  // Shared mode mirrors the production binding: the row depends only on the
  // action, so all states point at the same num_actions rows.
  const std::size_t distinct = share_rows ? num_actions : num_states * num_actions;
  for (std::size_t r = 0; r < distinct; ++r) {
    MdpRow row;
    double sum = 0.0;
    for (std::uint32_t next = 0; next < num_states; ++next) {
      const double w = rng.uniform(0.05, 1.0);
      row.emplace_back(next, w);
      sum += w;
    }
    for (auto& e : row) e.second /= sum;
    mdp.rows.push_back(std::move(row));
  }
  mdp.row_of.resize(num_states * num_actions);
  for (std::size_t s = 0; s < num_states; ++s) {
    for (std::size_t a = 0; a < num_actions; ++a) {
      mdp.row_of[s * num_actions + a] =
          static_cast<std::uint32_t>(share_rows ? a : s * num_actions + a);
    }
  }
  mdp.reward.resize(num_states * num_actions);
  for (double& r : mdp.reward) r = rng.uniform(-1.0, 1.0);
  if (rng.chance(0.33)) {
    mdp.allowed.assign(num_states * num_actions, 1);
    for (std::size_t s = 0; s < num_states; ++s) {
      // Forbid a random strict subset so every state keeps >= 1 action.
      const std::size_t keep = rng.index(num_actions);
      for (std::size_t a = 0; a < num_actions; ++a) {
        if (a != keep && rng.chance(0.3)) mdp.allowed[s * num_actions + a] = 0;
      }
    }
  }
  mdp.validate();
  return mdp;
}

/// Allowed actions per state, the enumeration alphabet.
std::vector<std::vector<std::uint32_t>> allowed_actions(const Mdp& mdp) {
  std::vector<std::vector<std::uint32_t>> per_state(mdp.num_states);
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    for (std::size_t a = 0; a < mdp.num_actions; ++a) {
      if (mdp.action_allowed(s, a)) per_state[s].push_back(static_cast<std::uint32_t>(a));
    }
  }
  return per_state;
}

/// Number of distinct stationary deterministic policies (product of the
/// per-state allowed counts).
std::uint64_t stationary_count(const std::vector<std::vector<std::uint32_t>>& per_state) {
  std::uint64_t n = 1;
  for (const auto& actions : per_state) n *= actions.size();
  return n;
}

/// The i-th stationary policy in mixed-radix order over the allowed sets.
std::vector<std::uint32_t> nth_stationary(
    const std::vector<std::vector<std::uint32_t>>& per_state, std::uint64_t i) {
  std::vector<std::uint32_t> policy(per_state.size());
  for (std::size_t s = 0; s < per_state.size(); ++s) {
    policy[s] = per_state[s][i % per_state[s].size()];
    i /= per_state[s].size();
  }
  return policy;
}

TEST(MdpOracle, BackwardInductionAttainsTheExhaustiveFiniteHorizonOptimumExactly) {
  util::Rng rng(20260808);
  int instances = 0;
  // >= 50 fuzzed instances; the horizon shrinks as the per-step policy count
  // grows so the full (A^S)^H non-stationary enumeration stays ~<= 20000.
  while (instances < 56) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    const auto per_state = allowed_actions(mdp);
    const std::uint64_t per_step = stationary_count(per_state);
    std::size_t horizon = 1;
    std::uint64_t total = per_step;
    while (horizon < 4 && total * per_step <= 20000) {
      ++horizon;
      total *= per_step;
    }
    ++instances;

    // Uniform start distribution: optimality must hold from every state, so
    // a mixture catches a solver wrong in any of them.
    const std::vector<double> initial(S, 1.0 / static_cast<double>(S));

    // Enumerate EVERY non-stationary policy (an independent stationary map
    // per step) — for a finite MDP this sweeps the whole deterministic
    // policy space, Markov policies being sufficient for optimality.
    double best = -std::numeric_limits<double>::infinity();
    std::vector<std::vector<std::uint32_t>> candidate(horizon);
    for (std::uint64_t code = 0; code < total; ++code) {
      std::uint64_t c = code;
      for (std::size_t t = 0; t < horizon; ++t) {
        candidate[t] = nth_stationary(per_state, c % per_step);
        c /= per_step;
      }
      best = std::max(best, evaluate_finite_horizon_policy(mdp, candidate, initial));
    }

    const FiniteHorizonSolution solved = solve_finite_horizon(mdp, horizon);
    const double solver_score = evaluate_finite_horizon_policy(mdp, solved.policy, initial);
    // Bit-exact: the solver's policy is inside the enumerated set and both
    // sides are scored by the same routine, so any suboptimality — even one
    // ulp — fails here.
    EXPECT_EQ(solver_score, best)
        << "instance " << instances << " (S=" << S << " A=" << A << " H=" << horizon << ")";

    // The solver's own value function must agree with its policy's exact
    // score state-by-state (start distribution concentrated on s).
    for (std::size_t s = 0; s < S; ++s) {
      std::vector<double> delta(S, 0.0);
      delta[s] = 1.0;
      EXPECT_NEAR(evaluate_finite_horizon_policy(mdp, solved.policy, delta), solved.value[s],
                  1e-12 * (1.0 + std::abs(solved.value[s])));
    }
  }
  EXPECT_GE(instances, 50);
}

TEST(MdpOracle, ValueIterationAttainsTheExhaustiveStationaryOptimumExactly) {
  util::Rng rng(777);
  const double gamma = 0.9;
  for (int instance = 0; instance < 56; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    const auto per_state = allowed_actions(mdp);
    const std::uint64_t count = stationary_count(per_state);
    ASSERT_LE(count, 4096u);

    // Per-state maximum over every stationary deterministic policy. The
    // optimal policy attains it in every state simultaneously.
    std::vector<double> best(S, -std::numeric_limits<double>::infinity());
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto policy = nth_stationary(per_state, i);
      const auto value = evaluate_stationary_policy(mdp, policy, gamma);
      for (std::size_t s = 0; s < S; ++s) best[s] = std::max(best[s], value[s]);
    }

    ValueIterationOptions opts;
    opts.gamma = gamma;
    const MdpSolution vi = solve_value_iteration(mdp, opts);
    ASSERT_TRUE(vi.converged);
    const auto vi_value = evaluate_stationary_policy(mdp, vi.policy, gamma);
    for (std::size_t s = 0; s < S; ++s) {
      // Bit-exact for the same measure-zero-ties reason as the finite
      // horizon test: the VI policy is one of the enumerated candidates and
      // both sides went through evaluate_stationary_policy.
      EXPECT_EQ(vi_value[s], best[s]) << "instance " << instance << " state " << s;
    }

    const MdpSolution pi = solve_policy_iteration(mdp, gamma);
    ASSERT_TRUE(pi.converged);
    const auto pi_value = evaluate_stationary_policy(mdp, pi.policy, gamma);
    for (std::size_t s = 0; s < S; ++s) {
      EXPECT_EQ(pi_value[s], best[s]) << "instance " << instance << " state " << s;
    }
  }
}

TEST(MdpOracle, ConvergedBellmanResidualIsBelowToleranceWhenRecomputedIndependently) {
  util::Rng rng(4242);
  for (int instance = 0; instance < 25; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    ValueIterationOptions opts;
    opts.gamma = 0.92;
    opts.tolerance = 1e-10;
    const MdpSolution sol = solve_value_iteration(mdp, opts);
    ASSERT_TRUE(sol.converged);

    // Recompute max_s |V(s) - (TV)(s)| from scratch.
    double residual = 0.0;
    for (std::size_t s = 0; s < S; ++s) {
      double bellman = -std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < A; ++a) {
        if (!mdp.action_allowed(s, a)) continue;
        double q = mdp.reward[s * A + a];
        for (const auto& [next, prob] : mdp.row(s, a)) {
          q += opts.gamma * prob * sol.value[next];
        }
        bellman = std::max(bellman, q);
      }
      residual = std::max(residual, std::abs(sol.value[s] - bellman));
    }
    // The in-place sweep's self-reported residual and this Jacobi recompute
    // agree up to the contraction factor; both must sit under tolerance with
    // the usual gamma/(1-gamma) slack of a Gauss-Seidel stop rule.
    EXPECT_LE(residual, opts.tolerance * (1.0 + opts.gamma / (1.0 - opts.gamma)))
        << "instance " << instance;
  }
}

TEST(MdpOracle, SweepOrderDoesNotChangeTheFixedPointReached) {
  util::Rng rng(99);
  for (int instance = 0; instance < 25; ++instance) {
    const std::size_t S = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t A = static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Mdp mdp = fuzz_mdp(rng, S, A);
    ValueIterationOptions forward;
    forward.gamma = 0.9;
    ValueIterationOptions reverse = forward;
    reverse.order = SweepOrder::Reverse;
    const MdpSolution f = solve_value_iteration(mdp, forward);
    const MdpSolution r = solve_value_iteration(mdp, reverse);
    ASSERT_TRUE(f.converged);
    ASSERT_TRUE(r.converged);
    // The greedy policies must coincide (continuous rewards keep the argmax
    // gaps far above the solve tolerance), making their exact evaluations
    // bit-identical too.
    EXPECT_EQ(f.policy, r.policy) << "instance " << instance;
    const auto vf = evaluate_stationary_policy(mdp, f.policy, forward.gamma);
    const auto vr = evaluate_stationary_policy(mdp, r.policy, forward.gamma);
    for (std::size_t s = 0; s < S; ++s) EXPECT_EQ(vf[s], vr[s]);
  }
}

TEST(MdpOracle, ValidateRejectsStructurallyBrokenInstances) {
  util::Rng rng(5);
  Mdp good = fuzz_mdp(rng, 3, 2);

  Mdp non_stochastic = good;
  non_stochastic.rows[0][0].second += 0.5;
  EXPECT_THROW(non_stochastic.validate(), std::invalid_argument);

  Mdp bad_row_id = good;
  bad_row_id.row_of[0] = static_cast<std::uint32_t>(bad_row_id.rows.size());
  EXPECT_THROW(bad_row_id.validate(), std::invalid_argument);

  Mdp bad_next = good;
  bad_next.rows[0][0].first = static_cast<std::uint32_t>(bad_next.num_states);
  EXPECT_THROW(bad_next.validate(), std::invalid_argument);

  Mdp no_action = good;
  no_action.allowed.assign(no_action.num_states * no_action.num_actions, 1);
  for (std::size_t a = 0; a < no_action.num_actions; ++a) {
    no_action.allowed[1 * no_action.num_actions + a] = 0;
  }
  EXPECT_THROW(no_action.validate(), std::invalid_argument);

  Mdp wrong_sizes = good;
  wrong_sizes.reward.pop_back();
  EXPECT_THROW(wrong_sizes.validate(), std::invalid_argument);
}

// --- Factored solver vs generic solver ---

/// Bit-level equality of two solutions, so -0.0 vs 0.0 and NaN payloads
/// count as differences too.
void expect_bit_identical(const MdpSolution& factored, const MdpSolution& generic,
                          const std::string& what) {
  EXPECT_EQ(factored.iterations, generic.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(factored.residual),
            std::bit_cast<std::uint64_t>(generic.residual))
      << what;
  EXPECT_EQ(factored.converged, generic.converged) << what;
  EXPECT_EQ(factored.policy, generic.policy) << what;
  ASSERT_EQ(factored.value.size(), generic.value.size()) << what;
  std::size_t differing = 0;
  for (std::size_t s = 0; s < factored.value.size(); ++s) {
    differing += std::bit_cast<std::uint64_t>(factored.value[s]) !=
                 std::bit_cast<std::uint64_t>(generic.value[s]);
  }
  EXPECT_EQ(differing, 0u) << what;
}

bool has_self_transition(const FactoredMdp& mdp, std::size_t bin) {
  return std::any_of(mdp.kernel[bin].begin(), mdp.kernel[bin].end(),
                     [&](const auto& e) { return e.first == bin; });
}

/// A random factored MDP: sparse kernel rows (each bin keeps a random subset
/// of next bins, so some rows lack their own bin) and integer rewards in
/// [-2, 2], so exact ties exercise the first-maximum rule.
FactoredMdp fuzz_factored(util::Rng& rng, std::size_t bins, std::size_t actions) {
  FactoredMdp mdp;
  mdp.num_bins = bins;
  mdp.num_actions = actions;
  mdp.kernel.resize(bins);
  for (auto& row : mdp.kernel) {
    double sum = 0.0;
    for (std::uint32_t nb = 0; nb < bins; ++nb) {
      if (!rng.chance(0.6)) continue;
      const double w = rng.uniform(0.05, 1.0);
      row.emplace_back(nb, w);
      sum += w;
    }
    if (row.empty()) {
      row.emplace_back(static_cast<std::uint32_t>(rng.index(bins)), 1.0);
      sum = 1.0;
    }
    for (auto& e : row) e.second /= sum;
  }
  mdp.reward.resize(mdp.num_states() * actions);
  for (double& r : mdp.reward) r = static_cast<double>(rng.uniform_int(-2, 2));
  mdp.validate();
  return mdp;
}

TEST(FactoredMdp, SolverIsBitIdenticalToTheGenericSolveOfItsExpansion) {
  util::Rng rng(31337);
  std::size_t with_self = 0, without_self = 0;
  for (int instance = 0; instance < 60; ++instance) {
    const std::size_t bins = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const std::size_t actions = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const FactoredMdp mdp = fuzz_factored(rng, bins, actions);
    for (std::size_t b = 0; b < bins; ++b) {
      (has_self_transition(mdp, b) ? with_self : without_self)++;
    }
    const Mdp generic = mdp.expand();
    generic.validate();
    ValueIterationOptions opts;
    opts.gamma = instance % 5 == 0 ? 0.0 : rng.uniform(0.3, 0.97);
    opts.tolerance = 1e-11;
    opts.max_sweeps = instance % 7 == 0 ? 4 : 100000;  // unconverged runs too
    for (const SweepOrder order : {SweepOrder::Forward, SweepOrder::Reverse}) {
      opts.order = order;
      expect_bit_identical(solve_value_iteration(mdp, opts), solve_value_iteration(generic, opts),
                           "instance " + std::to_string(instance));
    }
  }
  // Both paths of the in-bin refresh must have been taken.
  EXPECT_GT(with_self, 0u);
  EXPECT_GT(without_self, 0u);
}

/// A random `points`-point database over up to four PEs, a random
/// asymmetric dRC table, and the database's own QoS box.
struct PlanningInstance {
  dse::DesignDb db;
  DrcMatrix drc{1, {0.0}};
  dse::MetricRanges ranges;
};

PlanningInstance fuzz_planning(util::Rng& rng, std::size_t points) {
  PlanningInstance inst;
  for (std::size_t k = 0; k < points; ++k) {
    dse::DesignPoint p;
    p.makespan = rng.uniform(80.0, 120.0);
    p.func_rel = rng.uniform(0.9, 0.99);
    p.energy = rng.uniform(30.0, 80.0);
    p.config.tasks.resize(3);
    for (auto& t : p.config.tasks) t.pe = static_cast<plat::PeId>(rng.index(4));
    p.config.tasks[0].priority = static_cast<std::int32_t>(k);  // distinct configurations
    inst.db.add(p);
  }
  std::vector<double> costs(points * points, 0.0);
  for (std::size_t i = 0; i < points; ++i) {
    for (std::size_t j = 0; j < points; ++j) {
      costs[i * points + j] = i == j ? 0.0 : rng.uniform(1.0, 50.0);
    }
  }
  inst.drc = DrcMatrix(points, std::move(costs));
  inst.ranges = inst.db.ranges();
  return inst;
}

TEST(FactoredMdp, PlanningSolveIsBitIdenticalToTheGenericSolveAcrossFuzzedInstances) {
  // The planning MDPs themselves: N in [1, 60], bin grids 1x1..6x6, pRC
  // {0, 0.5, 1}, faults on and off, AR(1) phi {0, 0.5, 0.95}, and a tiny
  // step sd on every fourth instance so that kernel rows concentrate on the
  // drift target and some bins cannot stay put.
  util::Rng rng(20261017);
  const double prcs[] = {0.0, 0.5, 1.0};
  const double phis[] = {0.0, 0.5, 0.95};
  std::size_t with_self = 0, without_self = 0;
  for (int instance = 0; instance < 54; ++instance) {
    std::size_t points = static_cast<std::size_t>(rng.uniform_int(1, 60));
    MdpPolicyParams params;
    params.makespan_bins = static_cast<std::size_t>(rng.uniform_int(1, 6));
    params.func_rel_bins = static_cast<std::size_t>(rng.uniform_int(1, 6));
    if (instance == 0) {
      points = 1;
      params.makespan_bins = params.func_rel_bins = 1;
    } else if (instance == 1) {
      points = 60;
      params.makespan_bins = params.func_rel_bins = 6;
    }
    const PlanningInstance inst = fuzz_planning(rng, points);
    QosProcessParams qos;
    qos.ar1_phi = phis[(instance / 3) % 3];
    if (instance % 4 == 3) qos.makespan_sd_frac = qos.func_rel_sd_frac = 1e-6;
    flt::FaultParams faults;
    if ((instance / 2) % 2 == 1) {
      faults.transient_rate = 1e-4;
      faults.pe_mtbf = 1e5;
    }
    const FactoredMdp mdp = build_mdp_model(inst.db, inst.drc, inst.ranges,
                                            prcs[instance % 3], qos, faults, params);
    ASSERT_EQ(mdp.num_actions, points);
    ASSERT_EQ(mdp.num_bins, params.makespan_bins * params.func_rel_bins);
    for (std::size_t b = 0; b < mdp.num_bins; ++b) {
      (has_self_transition(mdp, b) ? with_self : without_self)++;
    }
    const Mdp generic = mdp.expand();
    generic.validate();
    ValueIterationOptions opts;
    opts.gamma = params.gamma;
    opts.tolerance = params.tolerance;
    // The generic reference costs B²·N² per sweep: keep the suite fast by
    // capping the sweeps of the largest instances (unconverged solves must
    // match bit for bit as well).
    const std::size_t work = mdp.num_bins * mdp.num_bins * points * points;
    if (work > 200000) opts.max_sweeps = 20;
    const std::string what = "instance " + std::to_string(instance) + " (N=" +
                             std::to_string(points) + ", bins=" +
                             std::to_string(params.makespan_bins) + "x" +
                             std::to_string(params.func_rel_bins) + ")";
    expect_bit_identical(solve_value_iteration(mdp, opts), solve_value_iteration(generic, opts),
                         what);
    if (instance % 6 == 0) {
      opts.order = SweepOrder::Reverse;
      expect_bit_identical(solve_value_iteration(mdp, opts),
                           solve_value_iteration(generic, opts), what + " reverse");
    }
  }
  EXPECT_GT(with_self, 0u);
  EXPECT_GT(without_self, 0u);
}

TEST(FactoredMdp, PlanTableMatchesTheGenericSolveAndItsPolicyIterationFallback) {
  util::Rng rng(8);
  const PlanningInstance inst = fuzz_planning(rng, 12);
  const QosProcessParams qos;
  const flt::FaultParams faults;
  MdpPolicyParams params;
  params.makespan_bins = 3;
  params.func_rel_bins = 4;
  const Mdp generic =
      build_mdp_model(inst.db, inst.drc, inst.ranges, 0.5, qos, faults, params).expand();

  // Converged: the table is the generic value-iteration solution.
  ValueIterationOptions opts;
  opts.gamma = params.gamma;
  opts.tolerance = params.tolerance;
  opts.max_sweeps = params.max_sweeps;
  const MdpSolution vi = solve_value_iteration(generic, opts);
  ASSERT_TRUE(vi.converged);
  const MdpTable table = build_mdp_table(inst.db, inst.drc, inst.ranges, 0.5, qos, faults, params);
  EXPECT_EQ(table.policy, vi.policy);
  EXPECT_EQ(table.values, vi.value);

  // Three sweeps cannot converge: the table is Howard policy iteration's.
  params.max_sweeps = 3;
  opts.max_sweeps = 3;
  const FactoredMdp model =
      build_mdp_model(inst.db, inst.drc, inst.ranges, 0.5, qos, faults, params);
  const MdpSolution capped = solve_value_iteration(model, opts);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.iterations, 3u);
  expect_bit_identical(capped, solve_value_iteration(generic, opts), "max_sweeps = 3");
  const MdpSolution pi = solve_policy_iteration(generic, params.gamma);
  ASSERT_TRUE(pi.converged);
  const MdpTable fallback =
      build_mdp_table(inst.db, inst.drc, inst.ranges, 0.5, qos, faults, params);
  EXPECT_EQ(fallback.policy, pi.policy);
  EXPECT_EQ(fallback.values, pi.value);
}

TEST(FactoredMdp, ValidateRejectsStructurallyBrokenInstances) {
  util::Rng rng(6);
  const FactoredMdp good = fuzz_factored(rng, 3, 2);

  FactoredMdp non_stochastic = good;
  non_stochastic.kernel[0][0].second += 0.5;
  EXPECT_THROW(non_stochastic.validate(), std::invalid_argument);

  FactoredMdp bad_next = good;
  bad_next.kernel[0][0].first = 3;
  EXPECT_THROW(bad_next.validate(), std::invalid_argument);

  FactoredMdp wrong_sizes = good;
  wrong_sizes.reward.pop_back();
  EXPECT_THROW(wrong_sizes.validate(), std::invalid_argument);

  FactoredMdp missing_row = good;
  missing_row.kernel.pop_back();
  EXPECT_THROW(missing_row.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace clr::rt

#include "runtime/mdp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace clr::rt {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Bellman backup of one state: max over allowed actions of
/// R(s,a) + gamma * E[V(s')]. Returns the best action through `best_action`.
double backup(const Mdp& mdp, const std::vector<double>& value, double gamma, std::size_t s,
              std::uint32_t& best_action) {
  double best = kNegInf;
  std::uint32_t arg = 0;
  for (std::size_t a = 0; a < mdp.num_actions; ++a) {
    if (!mdp.action_allowed(s, a)) continue;
    double expected = 0.0;
    for (const auto& [next, prob] : mdp.row(s, a)) expected += prob * value[next];
    const double q = mdp.reward[s * mdp.num_actions + a] + gamma * expected;
    if (q > best) {
      best = q;
      arg = static_cast<std::uint32_t>(a);
    }
  }
  best_action = arg;
  return best;
}

/// Throws std::invalid_argument unless `row` is a distribution over
/// [0, limit) that sums to 1 within 1e-9. `owner` prefixes the message.
void validate_row(const MdpRow& row, std::size_t limit, const char* owner) {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(owner) + ": " + what);
  };
  double sum = 0.0;
  for (const auto& [next, prob] : row) {
    if (next >= limit) fail("next state out of range");
    if (prob < 0.0) fail("negative transition probability");
    sum += prob;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    fail("transition row sums to " + std::to_string(sum) + ", expected 1");
  }
}

}  // namespace

void Mdp::validate() const {
  if (num_states == 0 || num_actions == 0) {
    throw std::invalid_argument("Mdp: num_states and num_actions must be > 0");
  }
  const std::size_t sa = num_states * num_actions;
  if (row_of.size() != sa) throw std::invalid_argument("Mdp: row_of size mismatch");
  if (reward.size() != sa) throw std::invalid_argument("Mdp: reward size mismatch");
  if (!allowed.empty() && allowed.size() != sa) {
    throw std::invalid_argument("Mdp: allowed size mismatch");
  }
  for (std::uint32_t r : row_of) {
    if (r >= rows.size()) throw std::invalid_argument("Mdp: row id out of range");
  }
  for (const MdpRow& row : rows) validate_row(row, num_states, "Mdp");
  if (!allowed.empty()) {
    for (std::size_t s = 0; s < num_states; ++s) {
      bool any = false;
      for (std::size_t a = 0; a < num_actions && !any; ++a) any = action_allowed(s, a);
      if (!any) {
        throw std::invalid_argument("Mdp: state " + std::to_string(s) +
                                    " has no allowed action");
      }
    }
  }
}

MdpSolution solve_value_iteration(const Mdp& mdp, const ValueIterationOptions& opts) {
  if (opts.gamma < 0.0 || opts.gamma >= 1.0) {
    throw std::invalid_argument("solve_value_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.value.assign(mdp.num_states, 0.0);
  sol.policy.assign(mdp.num_states, 0);

  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double residual = 0.0;
    // Gauss-Seidel: V(s) updated in place; later states of the same sweep
    // read the fresh values, which only accelerates the contraction (the
    // fixed point is the same — proven sweep-order-independent by the oracle
    // suite).
    if (opts.order == SweepOrder::Forward) {
      for (std::size_t s = 0; s < mdp.num_states; ++s) {
        std::uint32_t a = 0;
        const double v = backup(mdp, sol.value, opts.gamma, s, a);
        residual = std::max(residual, std::abs(v - sol.value[s]));
        sol.value[s] = v;
      }
    } else {
      for (std::size_t s = mdp.num_states; s-- > 0;) {
        std::uint32_t a = 0;
        const double v = backup(mdp, sol.value, opts.gamma, s, a);
        residual = std::max(residual, std::abs(v - sol.value[s]));
        sol.value[s] = v;
      }
    }
    sol.iterations = sweep + 1;
    sol.residual = residual;
    if (residual <= opts.tolerance) {
      sol.converged = true;
      break;
    }
  }

  // Greedy policy of the final value function (one more consistent pass so
  // the reported policy matches `value` regardless of sweep order).
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    backup(mdp, sol.value, opts.gamma, s, sol.policy[s]);
  }
  return sol;
}

void FactoredMdp::validate() const {
  if (num_bins == 0 || num_actions == 0) {
    throw std::invalid_argument("FactoredMdp: num_bins and num_actions must be > 0");
  }
  if (kernel.size() != num_bins) throw std::invalid_argument("FactoredMdp: kernel size mismatch");
  if (reward.size() != num_states() * num_actions) {
    throw std::invalid_argument("FactoredMdp: reward size mismatch");
  }
  for (const MdpRow& row : kernel) validate_row(row, num_bins, "FactoredMdp");
}

Mdp FactoredMdp::expand() const {
  const std::size_t n = num_actions;
  Mdp mdp;
  mdp.num_states = num_states();
  mdp.num_actions = n;
  mdp.reward = reward;
  mdp.rows.resize(num_bins * n);
  mdp.row_of.resize(mdp.num_states * n);
  for (std::size_t bin = 0; bin < num_bins; ++bin) {
    for (std::size_t a = 0; a < n; ++a) {
      MdpRow& row = mdp.rows[bin * n + a];
      row.reserve(kernel[bin].size());
      for (const auto& [nb, prob] : kernel[bin]) {
        row.emplace_back(static_cast<std::uint32_t>(nb * n + a), prob);
      }
    }
    for (std::size_t cur = 0; cur < n; ++cur) {
      for (std::size_t a = 0; a < n; ++a) {
        mdp.row_of[(bin * n + cur) * n + a] = static_cast<std::uint32_t>(bin * n + a);
      }
    }
  }
  return mdp;
}

MdpSolution solve_value_iteration(const FactoredMdp& mdp, const ValueIterationOptions& opts) {
  if (opts.gamma < 0.0 || opts.gamma >= 1.0) {
    throw std::invalid_argument("solve_value_iteration: gamma must be in [0,1)");
  }
  const std::size_t n = mdp.num_actions;
  MdpSolution sol;
  sol.value.assign(mdp.num_states(), 0.0);
  sol.policy.assign(mdp.num_states(), 0);

  // expected[a] = E(bin, a) over the current values, accumulated in kernel
  // order exactly like the generic backup's per-row sum, so every partial
  // sum (and therefore every bit) matches it.
  std::vector<double> expected(n);
  const auto fill_expected = [&](std::size_t bin) {
    std::fill(expected.begin(), expected.end(), 0.0);
    for (const auto& [nb, prob] : mdp.kernel[bin]) {
      const double* v = sol.value.data() + nb * n;
      for (std::size_t a = 0; a < n; ++a) expected[a] += prob * v[a];
    }
  };
  const auto refresh_expected = [&](std::size_t bin, std::size_t a) {
    double e = 0.0;
    for (const auto& [nb, prob] : mdp.kernel[bin]) e += prob * sol.value[nb * n + a];
    expected[a] = e;
  };
  // Generic backup of state (bin, cur) over the shared expectations: the
  // first maximum of R + gamma·E, the same expression in the same order.
  const auto backup_state = [&](std::size_t s, std::uint32_t& best_action) {
    const double* r = mdp.reward.data() + s * n;
    double best = kNegInf;
    std::uint32_t arg = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const double q = r[a] + opts.gamma * expected[a];
      if (q > best) {
        best = q;
        arg = static_cast<std::uint32_t>(a);
      }
    }
    best_action = arg;
    return best;
  };
  // Writing V(bin, cur) changes E(bin, cur) only if the bin can stay put.
  std::vector<std::uint8_t> self_loop(mdp.num_bins, 0);
  for (std::size_t bin = 0; bin < mdp.num_bins; ++bin) {
    for (const auto& entry : mdp.kernel[bin]) self_loop[bin] |= entry.first == bin ? 1 : 0;
  }
  // One Gauss-Seidel update of (bin, cur). E(bin, ·) was filled when the
  // sweep entered the bin, and since then only V(bin, ·) has changed: each
  // write refreshes the one expectation it feeds, so every later state of
  // the bin reads exactly the values the generic in-place sweep reads.
  const auto update = [&](std::size_t bin, std::size_t cur, double& residual) {
    const std::size_t s = bin * n + cur;
    std::uint32_t a = 0;
    const double v = backup_state(s, a);
    residual = std::max(residual, std::abs(v - sol.value[s]));
    sol.value[s] = v;
    if (self_loop[bin] != 0) refresh_expected(bin, cur);
  };

  for (std::size_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    double residual = 0.0;
    if (opts.order == SweepOrder::Forward) {
      for (std::size_t bin = 0; bin < mdp.num_bins; ++bin) {
        fill_expected(bin);
        for (std::size_t cur = 0; cur < n; ++cur) update(bin, cur, residual);
      }
    } else {
      for (std::size_t bin = mdp.num_bins; bin-- > 0;) {
        fill_expected(bin);
        for (std::size_t cur = n; cur-- > 0;) update(bin, cur, residual);
      }
    }
    sol.iterations = sweep + 1;
    sol.residual = residual;
    if (residual <= opts.tolerance) {
      sol.converged = true;
      break;
    }
  }

  // Greedy policy of the final value function (no writes, so one fill per bin).
  for (std::size_t bin = 0; bin < mdp.num_bins; ++bin) {
    fill_expected(bin);
    for (std::size_t cur = 0; cur < n; ++cur) {
      backup_state(bin * n + cur, sol.policy[bin * n + cur]);
    }
  }
  return sol;
}

std::vector<double> evaluate_stationary_policy(const Mdp& mdp,
                                               std::span<const std::uint32_t> policy,
                                               double gamma) {
  const std::size_t n = mdp.num_states;
  if (policy.size() != n) {
    throw std::invalid_argument("evaluate_stationary_policy: policy size mismatch");
  }
  // Dense system A V = b with A = I - gamma * P_pi, b = R_pi.
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    a[s * n + s] = 1.0;
    const std::size_t act = policy[s];
    if (act >= mdp.num_actions || !mdp.action_allowed(s, act)) {
      throw std::invalid_argument("evaluate_stationary_policy: disallowed action");
    }
    for (const auto& [next, prob] : mdp.row(s, act)) a[s * n + next] -= gamma * prob;
    b[s] = mdp.reward[s * mdp.num_actions + act];
  }
  // Partial-pivot Gaussian elimination. A is strictly diagonally dominant for
  // gamma < 1, so the system is always solvable; pivoting keeps it stable.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double diag = a[col * n + col];
    if (diag == 0.0) {
      throw std::runtime_error("evaluate_stationary_policy: singular system");
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / diag;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> v(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (std::size_t c = row + 1; c < n; ++c) sum -= a[row * n + c] * v[c];
    v[row] = sum / a[row * n + row];
  }
  return v;
}

MdpSolution solve_policy_iteration(const Mdp& mdp, double gamma, std::size_t max_rounds) {
  if (gamma < 0.0 || gamma >= 1.0) {
    throw std::invalid_argument("solve_policy_iteration: gamma must be in [0,1)");
  }
  MdpSolution sol;
  sol.policy.assign(mdp.num_states, 0);
  // Start from the first allowed action of every state.
  for (std::size_t s = 0; s < mdp.num_states; ++s) {
    for (std::size_t a = 0; a < mdp.num_actions; ++a) {
      if (mdp.action_allowed(s, a)) {
        sol.policy[s] = static_cast<std::uint32_t>(a);
        break;
      }
    }
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    sol.value = evaluate_stationary_policy(mdp, sol.policy, gamma);
    sol.iterations = round + 1;
    bool stable = true;
    double residual = 0.0;
    for (std::size_t s = 0; s < mdp.num_states; ++s) {
      std::uint32_t best = 0;
      const double v = backup(mdp, sol.value, gamma, s, best);
      residual = std::max(residual, std::abs(v - sol.value[s]));
      if (best != sol.policy[s]) {
        // Accept strictly-improving switches only: ties keep the incumbent,
        // or PI can cycle between equal-value policies forever.
        double incumbent = 0.0;
        for (const auto& [next, prob] : mdp.row(s, sol.policy[s])) {
          incumbent += prob * sol.value[next];
        }
        incumbent = mdp.reward[s * mdp.num_actions + sol.policy[s]] + gamma * incumbent;
        if (v > incumbent) {
          sol.policy[s] = best;
          stable = false;
        }
      }
    }
    sol.residual = residual;
    if (stable) {
      sol.converged = true;
      break;
    }
  }
  return sol;
}

FiniteHorizonSolution solve_finite_horizon(const Mdp& mdp, std::size_t horizon, double gamma) {
  FiniteHorizonSolution sol;
  sol.value.assign(mdp.num_states, 0.0);
  sol.policy.assign(horizon, std::vector<std::uint32_t>(mdp.num_states, 0));
  // Backward induction: V_H = 0, V_t(s) = max_a R(s,a) + gamma * E[V_{t+1}].
  for (std::size_t t = horizon; t-- > 0;) {
    std::vector<double> v_next = sol.value;
    for (std::size_t s = 0; s < mdp.num_states; ++s) {
      sol.value[s] = backup(mdp, v_next, gamma, s, sol.policy[t][s]);
    }
  }
  return sol;
}

double evaluate_finite_horizon_policy(const Mdp& mdp,
                                      const std::vector<std::vector<std::uint32_t>>& policy,
                                      std::span<const double> initial, double gamma) {
  if (initial.size() != mdp.num_states) {
    throw std::invalid_argument("evaluate_finite_horizon_policy: initial size mismatch");
  }
  std::vector<double> dist(initial.begin(), initial.end());
  std::vector<double> next(mdp.num_states, 0.0);
  double total = 0.0;
  double discount = 1.0;
  for (const auto& step : policy) {
    if (step.size() != mdp.num_states) {
      throw std::invalid_argument("evaluate_finite_horizon_policy: step size mismatch");
    }
    std::fill(next.begin(), next.end(), 0.0);
    for (std::size_t s = 0; s < mdp.num_states; ++s) {
      if (dist[s] == 0.0) continue;
      const std::size_t a = step[s];
      if (a >= mdp.num_actions || !mdp.action_allowed(s, a)) {
        throw std::invalid_argument("evaluate_finite_horizon_policy: disallowed action");
      }
      total += discount * dist[s] * mdp.reward[s * mdp.num_actions + a];
      for (const auto& [n, prob] : mdp.row(s, a)) next[n] += dist[s] * prob;
    }
    dist.swap(next);
    discount *= gamma;
  }
  return total;
}

}  // namespace clr::rt

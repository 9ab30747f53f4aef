#pragma once
// Run-time adaptation policies (paper §4.3):
//
//  - BaselinePolicy: the [11]-style purely performance-oriented selection —
//    on every event it moves to the feasible point with the best signed
//    hypervolume w.r.t. the new QoS corner, regardless of reconfiguration
//    cost (the behaviour BaseD exhibits in Fig. 6).
//  - UraPolicy: user-modulated run-time adaptation, Algorithm 1 —
//    RET(p) = pRC * norm(R(p)) - (1 - pRC) * norm(dRC(p)) over the feasible
//    stored points, normalized within the feasible set.
//  - AuraPolicy: agent-based uRA (§4.3.2) — every stored design point is an
//    RL state; selection adds a one-step lookahead of the learned state value
//    (gamma * V(p)), and values are updated by every-visit Monte-Carlo
//    returns over fixed-length episodes. gamma = 0 recovers uRA exactly.
//    Prior knowledge is injected by pre-training V with an offline
//    Monte-Carlo simulation of the same fixed policy (see RuntimeSimulator).

#include <vector>

#include "dse/design_db.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::flt {
class PlatformHealth;
}

namespace clr::rt {

/// Outcome of one policy decision.
struct Decision {
  std::size_t point = 0;        ///< selected database index
  bool feasible_set_empty = false;  ///< no stored point satisfied the spec
  double drc = 0.0;             ///< reconfiguration cost from the current point
  double reward = 0.0;          ///< normalized immediate return (uRA's RET term)
};

/// Common interface: select the next stored design point for a new QoS spec.
class AdaptationPolicy {
 public:
  virtual ~AdaptationPolicy() = default;

  /// Pick the next point given the current one and the new requirement.
  virtual Decision select(std::size_t current, const dse::QosSpec& spec) = 0;

  /// Pick the initial point before the simulation starts (t = 0). `hint` is
  /// only a starting suggestion, never a point the system occupied — no dRC
  /// is paid — so learning policies must not record this decision into their
  /// episode (the reward would charge a cost from a state never visited).
  /// Defaults to the regular selection for memoryless policies.
  virtual Decision select_initial(std::size_t hint, const dse::QosSpec& spec) {
    return select(hint, spec);
  }

  /// Side-effect-free preview of select(): the point the policy WOULD pick
  /// for `spec` from `current`. Never records learning state — the prefetch
  /// wrapper uses this to stage a *predicted* requirement's target without
  /// perturbing the policy. Memoryless policies default to select(); learning
  /// policies must override with their episode-free evaluation.
  virtual Decision peek(std::size_t current, const dse::QosSpec& spec) {
    return select(current, spec);
  }

  /// Episode boundary notification (learning policies update values here).
  virtual void end_episode() {}

  /// Reset transient state between simulation runs (learned values persist).
  virtual void reset() {}

  /// Attach (or detach, with nullptr) the platform-health state of the
  /// current run. While attached, every selection is restricted to stored
  /// points whose PEs are all alive — the feasible set shrinks as permanent
  /// faults retire PEs. The simulator owns the health object; it attaches it
  /// at run start and detaches it before returning. Virtual so wrappers
  /// (PrefetchPolicy) can forward the attachment to their inner policy.
  virtual void set_health(const flt::PlatformHealth* health) { health_ = health; }
  const flt::PlatformHealth* health() const { return health_; }

 protected:
  /// Alive-mask over stored points, nullptr when no health is attached (the
  /// fault-free fast path: feasibility checks skip the mask entirely).
  const std::vector<bool>* alive_mask() const;

 private:
  const flt::PlatformHealth* health_ = nullptr;
};

/// Performance-oriented baseline: best signed hypervolume w.r.t. the QoS
/// corner on every event (reconfiguration-cost-blind).
class BaselinePolicy : public AdaptationPolicy {
 public:
  BaselinePolicy(const dse::DesignDb& db, const DrcMatrix& drc);
  Decision select(std::size_t current, const dse::QosSpec& spec) override;

 private:
  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  // Scratch sized once at construction; select() allocates nothing.
  std::vector<std::size_t> feas_;  ///< FEAS indices (db.size() entries)
  std::vector<double> ref_;        ///< QoS corner (S, -F, J); J fixed per db
  std::vector<double> scale_;      ///< per-axis 1 / db range
  std::vector<double> objectives_; ///< candidate (S, -F, J)
};

/// Algorithm 1. pRC = 1 maximizes performance (energy reduction); pRC = 0
/// minimizes reconfiguration cost (stay put whenever feasible).
class UraPolicy : public AdaptationPolicy {
 public:
  UraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc);
  Decision select(std::size_t current, const dse::QosSpec& spec) override;

  double p_rc() const { return p_rc_; }

 protected:
  /// Shared evaluation core: returns RET per feasible point (plus lookahead
  /// hook used by AuRA). Handles the empty-feasible-set fallback. Reads the
  /// database's metric columns into the scratch below; allocation-free.
  Decision evaluate_and_pick(std::size_t current, const dse::QosSpec& spec,
                             const std::vector<double>* state_values, double gamma,
                             double guard);

  /// Stationary (database-global) reward for the RL value updates:
  /// pRC * normR(point) - (1 - pRC) * norm(dRC paid), normalized over the
  /// whole database / cost table.
  double global_reward(std::size_t point, double paid_drc) const;

  const dse::DesignDb* db_;
  const DrcMatrix* drc_;
  double p_rc_;
  double global_energy_lo_ = 0.0;
  double global_energy_hi_ = 0.0;
  double global_drc_hi_ = 0.0;

 private:
  // Per-candidate scratch, db.size() entries each, sized at construction.
  std::vector<std::size_t> feas_;  ///< FEAS indices
  std::vector<double> cand_drc_;   ///< dRC(current -> feas[k])
  std::vector<double> cand_perf_;  ///< R = -Japp of feas[k]
  std::vector<double> cand_ret_;   ///< immediate RET of feas[k]
};

/// AuRA (§4.3.2): uRA with learned state-value lookahead.
class AuraPolicy : public UraPolicy {
 public:
  struct Params {
    double gamma = 0.5;   ///< discount factor (0 => uRA)
    double alpha = 0.05;  ///< value-function learning rate
    /// Guard band: the value lookahead only arbitrates among candidates
    /// whose immediate RET is within `guard` of the best immediate RET.
    /// 0 (default) restricts the lookahead to exact ties — the agent then
    /// can never do worse than uRA on the immediate objective and uses its
    /// learned values to resolve cost ties (e.g. between several free
    /// CLR-only reconfiguration targets). Larger values trade bounded
    /// immediate loss for speculative long-run gain.
    double guard = 0.0;
    /// Initial value for every state (uniform prior of the purely online
    /// agent; replaced by Monte-Carlo pre-training when prior knowledge is
    /// available).
    double initial_value = 0.0;
  };

  AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc, Params params);
  /// Defaults: gamma 0.5, alpha 0.05, guard 0 (exact ties), zero-valued prior.
  AuraPolicy(const dse::DesignDb& db, const DrcMatrix& drc, double p_rc);

  Decision select(std::size_t current, const dse::QosSpec& spec) override;
  /// Same selection as select(), but never recorded into the episode: the
  /// free initial placement must not bias the value updates.
  Decision select_initial(std::size_t hint, const dse::QosSpec& spec) override;
  /// Episode-free evaluation (speculative previews must not enter learning).
  Decision peek(std::size_t current, const dse::QosSpec& spec) override;
  void end_episode() override;
  void reset() override;

  const std::vector<double>& values() const { return values_; }
  void set_values(std::vector<double> values);
  const Params& rl_params() const { return params_; }

  /// Number of value updates each state has received.
  const std::vector<std::size_t>& visit_counts() const { return visits_; }

  /// Give states never visited during (pre-)training the mean value of the
  /// visited ones. Without this, an arbitrary initial value acts as a strong
  /// optimism/pessimism bias relative to the learned values and distorts the
  /// ranking (argmax only cares about value *differences*).
  void neutralize_unvisited();

  /// Freeze learning (used after offline pre-training when evaluating).
  void set_learning(bool enabled) { learning_ = enabled; }

 private:
  Params params_;
  std::vector<double> values_;
  std::vector<std::size_t> visits_;
  bool learning_ = true;
  /// (state, reward) trajectory of the current episode.
  std::vector<std::pair<std::size_t, double>> episode_;
};

}  // namespace clr::rt

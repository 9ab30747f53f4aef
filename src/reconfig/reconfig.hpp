#pragma once
// Reconfiguration model (paper §3.5). Of the four adaptation modes, only
// (3) changing a task's implementation and (4) changing its PE binding incur
// cost: the task binary must be copied to the new PE's local memory over the
// on-chip interconnect, and — when the new implementation is an accelerator
// in a PRR — the PRR bitstream must be streamed through the ICAP.
// Re-ordering (1) and CLR-configuration changes (2) are free.
//
// dRC(a, b) is the total cost of reconfiguring from configuration a to b.

#include <cstdint>
#include <span>
#include <vector>

#include "reliability/implementation.hpp"
#include "schedule/configuration.hpp"

namespace clr::recfg {

/// Breakdown of one reconfiguration's cost.
struct ReconfigCost {
  double migration = 0.0;  ///< binary copies over the interconnect + overhead
  double bitstream = 0.0;  ///< PRR bitstream loads through the ICAP
  std::size_t migrated_tasks = 0;
  std::size_t prr_loads = 0;

  double total() const { return migration + bitstream; }
};

/// Deterministic dRC evaluation, compiled at construction into flat tables:
/// one migration term per (task, from-PE, to-PE, target implementation) and
/// one bitstream term per target PE. A cost is then a walk over the tasks
/// that adds table entries in task order (DESIGN.md §5.6 "Memoization").
/// The platform and implementation set are read only by the constructor.
class ReconfigModel {
 public:
  ReconfigModel(const plat::Platform& platform, const rel::ImplementationSet& impls);

  /// Cost breakdown of switching from `from` to `to`.
  /// dRC(x, x) is always zero. Throws std::invalid_argument when the sizes
  /// differ, std::out_of_range when a changed task names an unknown PE or
  /// implementation.
  ReconfigCost cost(const sched::Configuration& from, const sched::Configuration& to) const;

  /// Convenience: total dRC.
  double drc(const sched::Configuration& from, const sched::Configuration& to) const {
    return cost(from, to).total();
  }

  /// out[k] = drc(from, *targets[k]) for every target, bit for bit, in one
  /// task-major pass over all targets. Same exceptions as cost().
  void drc_row(const sched::Configuration& from,
               std::span<const sched::Configuration* const> targets, double* out) const;

  /// Average dRC from `from` to every configuration in `targets` — the
  /// secondary objective of the ReD stage (§4.2.1). The per-target totals
  /// are summed in target order.
  double average_drc(const sched::Configuration& from,
                     const std::vector<sched::Configuration>& targets) const;

 private:
  /// Migration terms of task `t` leaving PE `from_pe`, indexed
  /// [to_pe * impls + impl]; nullptr when `t` or `from_pe` is unknown.
  const double* migration_row(std::size_t t, plat::PeId from_pe) const;
  std::size_t impls_of(std::size_t t) const { return t < task_impls_.size() ? task_impls_[t] : 0; }

  std::size_t num_pes_ = 0;
  std::vector<std::size_t> task_offset_;  ///< per task: start of its [from][to][impl] block
  std::vector<std::size_t> task_impls_;   ///< per task: implementation count
  std::vector<double> migration_;
  std::vector<double> bitstream_;  ///< per target PE; +0.0 when it hosts no PRR
  std::vector<std::uint8_t> prr_;  ///< per target PE: hosted in a PRR
};

}  // namespace clr::recfg

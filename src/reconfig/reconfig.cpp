#include "reconfig/reconfig.hpp"

#include <algorithm>
#include <stdexcept>

namespace clr::recfg {

namespace {

[[noreturn]] void throw_unknown_index() {
  throw std::out_of_range("ReconfigModel: unknown PE or implementation index");
}

void check_sizes(const sched::Configuration& from, const sched::Configuration& to) {
  if (from.size() != to.size()) {
    throw std::invalid_argument("ReconfigModel::cost: configuration size mismatch");
  }
}

}  // namespace

ReconfigModel::ReconfigModel(const plat::Platform& platform, const rel::ImplementationSet& impls)
    : num_pes_(platform.num_pes()) {
  const auto& ic = platform.interconnect();
  for (tg::TaskId t = 0; t < impls.num_tasks(); ++t) {
    const auto& task_impls = impls.for_task(t);
    task_offset_.push_back(migration_.size());
    task_impls_.push_back(task_impls.size());
    for (plat::PeId a = 0; a < num_pes_; ++a) {
      for (plat::PeId b = 0; b < num_pes_; ++b) {
        // On a mesh NoC the binary travels hop-by-hop from the old to the
        // new PE; implementation swaps on the same PE load from backing
        // store at unit distance.
        const bool moved = a != b;
        const double factor = moved ? platform.comm_factor(a, b) : 1.0;
        for (const rel::Implementation& impl : task_impls) {
          migration_.push_back(factor * static_cast<double>(impl.binary_bytes) /
                                   ic.binary_bandwidth +
                               ic.per_migration_overhead);
        }
      }
    }
  }
  // Loading onto a PRR-hosted accelerator requires its bitstream unless the
  // same accelerator implementation already occupied that PRR slot.
  for (const plat::Pe& pe : platform.pes()) {
    const bool in_prr = pe.prr != plat::Pe::kNoPrr;
    prr_.push_back(in_prr ? 1 : 0);
    bitstream_.push_back(
        in_prr ? static_cast<double>(platform.prr(pe.prr).bitstream_bytes) / ic.icap_bandwidth
               : 0.0);
  }
}

const double* ReconfigModel::migration_row(std::size_t t, plat::PeId from_pe) const {
  if (t >= task_impls_.size() || from_pe >= num_pes_) return nullptr;
  return migration_.data() + task_offset_[t] + from_pe * num_pes_ * task_impls_[t];
}

ReconfigCost ReconfigModel::cost(const sched::Configuration& from,
                                 const sched::Configuration& to) const {
  check_sizes(from, to);
  ReconfigCost c;
  for (tg::TaskId t = 0; t < from.size(); ++t) {
    const auto& a = from[t];
    const auto& b = to[t];
    if (a.pe == b.pe && a.impl_index == b.impl_index) continue;  // re-ordering / CLR change: free

    const double* row = migration_row(t, a.pe);
    const std::size_t impls = impls_of(t);
    if (row == nullptr || b.pe >= num_pes_ || b.impl_index >= impls) throw_unknown_index();
    c.migration += row[b.pe * impls + b.impl_index];
    ++c.migrated_tasks;
    if (prr_[b.pe] != 0) {
      c.bitstream += bitstream_[b.pe];
      ++c.prr_loads;
    }
  }
  return c;
}

void ReconfigModel::drc_row(const sched::Configuration& from,
                            std::span<const sched::Configuration* const> targets,
                            double* out) const {
  // Task-major over all targets: out[k] accumulates target k's migration
  // and `bitstream[k]` its bitstream terms, each in task order as in cost().
  // A non-PRR PE's bitstream term is +0.0, and adding +0.0 to a sum that
  // starts at +0.0 never changes its bits, so it is added unconditionally.
  thread_local std::vector<const sched::TaskAssignment*> rows;
  thread_local std::vector<double> bitstream;
  const std::size_t n = targets.size();
  rows.clear();
  for (const sched::Configuration* to : targets) {
    check_sizes(from, *to);
    rows.push_back(to->tasks.data());
  }
  bitstream.assign(n, 0.0);
  std::fill(out, out + n, 0.0);

  for (tg::TaskId t = 0; t < from.size(); ++t) {
    const auto& a = from[t];
    const double* row = migration_row(t, a.pe);
    const std::size_t impls = impls_of(t);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& b = rows[k][t];
      if (a.pe == b.pe && a.impl_index == b.impl_index) continue;
      if (row == nullptr || b.pe >= num_pes_ || b.impl_index >= impls) throw_unknown_index();
      out[k] += row[b.pe * impls + b.impl_index];
      bitstream[k] += bitstream_[b.pe];
    }
  }
  for (std::size_t k = 0; k < n; ++k) out[k] += bitstream[k];  // == cost().total()
}

double ReconfigModel::average_drc(const sched::Configuration& from,
                                  const std::vector<sched::Configuration>& targets) const {
  if (targets.empty()) return 0.0;
  thread_local std::vector<const sched::Configuration*> ptrs;
  thread_local std::vector<double> totals;
  ptrs.clear();
  for (const auto& target : targets) ptrs.push_back(&target);
  totals.resize(targets.size());
  drc_row(from, ptrs, totals.data());
  double sum = 0.0;
  for (double d : totals) sum += d;
  return sum / static_cast<double>(targets.size());
}

}  // namespace clr::recfg

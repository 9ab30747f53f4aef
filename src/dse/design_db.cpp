#include "dse/design_db.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace clr::dse {

std::uint64_t hash_configuration(const sched::Configuration& config) {
  util::Fnv1a h;
  for (const auto& t : config.tasks) {
    h.value<std::uint64_t>((static_cast<std::uint64_t>(t.pe) << 32) | t.impl_index);
    h.value<std::uint64_t>((static_cast<std::uint64_t>(t.clr_index) << 32) |
                           static_cast<std::uint32_t>(t.priority));
  }
  return h.digest();
}

std::size_t DesignDb::add(DesignPoint point) {
  auto& bucket = index_[hash_configuration(point.config)];
  for (std::size_t i : bucket) {
    if (points_[i].config == point.config) return i;
  }
  bucket.push_back(points_.size());
  // Same min/max fold, in the same point order, as a full rescan.
  if (points_.empty()) {
    ranges_.energy_min = ranges_.energy_max = point.energy;
    ranges_.makespan_min = ranges_.makespan_max = point.makespan;
    ranges_.func_rel_min = ranges_.func_rel_max = point.func_rel;
  }
  ranges_.energy_min = std::min(ranges_.energy_min, point.energy);
  ranges_.energy_max = std::max(ranges_.energy_max, point.energy);
  ranges_.makespan_min = std::min(ranges_.makespan_min, point.makespan);
  ranges_.makespan_max = std::max(ranges_.makespan_max, point.makespan);
  ranges_.func_rel_min = std::min(ranges_.func_rel_min, point.func_rel);
  ranges_.func_rel_max = std::max(ranges_.func_rel_max, point.func_rel);
  makespan_.push_back(point.makespan);
  func_rel_.push_back(point.func_rel);
  energy_.push_back(point.energy);
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

void DesignDb::reserve(std::size_t n) {
  points_.reserve(n);
  makespan_.reserve(n);
  func_rel_.reserve(n);
  energy_.reserve(n);
}

std::size_t DesignDb::feasible_indices(const QosSpec& spec, std::span<std::size_t> out,
                                       const std::vector<bool>* point_alive) const {
  const std::size_t n = points_.size();
  if (out.size() < n) {
    throw std::invalid_argument("DesignDb::feasible_indices: output buffer smaller than size()");
  }
  // Branchless compaction: every index is written, the count advances only
  // past feasible ones (DesignPoint::feasible_for on the columns).
  const double* ms = makespan_.data();
  const double* fr = func_rel_.data();
  const double max_ms = spec.max_makespan;
  const double min_fr = spec.min_func_rel;
  std::size_t count = 0;
  if (point_alive == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[count] = i;
      count += static_cast<std::size_t>((ms[i] <= max_ms) & (fr[i] >= min_fr));
    }
  } else {
    const std::vector<bool>& alive = *point_alive;
    for (std::size_t i = 0; i < n; ++i) {
      out[count] = i;
      count += static_cast<std::size_t>(alive[i] & (ms[i] <= max_ms) & (fr[i] >= min_fr));
    }
  }
  return count;
}

double DesignDb::violation_of(std::size_t i, const QosSpec& spec) const {
  const auto& p = points_.at(i);
  double v = 0.0;
  if (p.makespan > spec.max_makespan) {
    v += (p.makespan - spec.max_makespan) / spec.max_makespan;
  }
  if (p.func_rel < spec.min_func_rel) {
    v += (spec.min_func_rel - p.func_rel) / std::max(spec.min_func_rel, 1e-9);
  }
  return v;
}

std::size_t DesignDb::least_violating(const QosSpec& spec,
                                      const std::vector<bool>* point_alive) const {
  if (points_.empty()) throw std::logic_error("DesignDb::least_violating: empty database");
  std::size_t best = points_.size();
  double best_violation = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (point_alive != nullptr && !(*point_alive)[i]) continue;
    const double v = violation_of(i, spec);
    if (v < best_violation) {
      best_violation = v;
      best = i;
    }
  }
  if (best == points_.size()) {
    throw std::logic_error("DesignDb::least_violating: alive-mask excludes every stored point");
  }
  return best;
}

bool DesignDb::uses_pe(std::size_t i, plat::PeId pe) const {
  const auto& tasks = points_.at(i).config.tasks;
  return std::any_of(tasks.begin(), tasks.end(),
                     [&](const sched::TaskAssignment& a) { return a.pe == pe; });
}

std::size_t DesignDb::num_extra() const {
  return static_cast<std::size_t>(
      std::count_if(points_.begin(), points_.end(), [](const DesignPoint& p) { return p.extra; }));
}

std::vector<sched::Configuration> DesignDb::configurations() const {
  std::vector<sched::Configuration> result;
  result.reserve(points_.size());
  for (const auto& p : points_) result.push_back(p.config);
  return result;
}

DesignDb DesignDb::without_pe(plat::PeId failed_pe) const {
  DesignDb survivor;
  for (const auto& p : points_) {
    const bool uses_failed = std::any_of(
        p.config.tasks.begin(), p.config.tasks.end(),
        [&](const sched::TaskAssignment& a) { return a.pe == failed_pe; });
    if (!uses_failed) survivor.add(p);
  }
  return survivor;
}

std::string DesignDb::summary() const {
  const MetricRanges r = ranges();
  std::ostringstream oss;
  oss << points_.size() << " points (" << num_extra() << " extra), S in [" << r.makespan_min
      << ", " << r.makespan_max << "], F in [" << r.func_rel_min << ", " << r.func_rel_max
      << "], J in [" << r.energy_min << ", " << r.energy_max << "]";
  return oss.str();
}

}  // namespace clr::dse

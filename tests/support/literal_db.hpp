#pragma once
// A design database of literal values for run-time tests: 20 points of
// literal metrics, each mapping six tasks onto four PEs (so a PE death kills
// some points and spares others), one CLR configuration index per task, and
// an integer dRC table from a fixed formula. Every value is exact or one
// correctly rounded operation, and nothing comes out of the design-time
// flow, so neither a DSE change nor the optimization level can move it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "dse/design_db.hpp"
#include "reliability/clr_config.hpp"
#include "runtime/drc_matrix.hpp"

namespace clr::test {

struct LiteralDb {
  struct Row {
    double makespan, func_rel, energy;
    std::array<plat::PeId, 6> pes;
  };
  static constexpr Row kRows[] = {
      {80, 0.990, 92, {0, 1, 2, 3, 0, 1}},   {84, 0.985, 86, {0, 1, 2, 3, 2, 3}},
      {86, 0.980, 80, {0, 1, 0, 1, 0, 1}},   {88, 0.975, 77, {2, 3, 2, 3, 2, 3}},
      {90, 0.970, 72, {0, 2, 0, 2, 0, 2}},   {92, 0.968, 68, {1, 3, 1, 3, 1, 3}},
      {95, 0.962, 64, {0, 1, 2, 0, 1, 2}},   {97, 0.958, 61, {1, 2, 3, 1, 2, 3}},
      {99, 0.955, 58, {0, 0, 1, 1, 0, 1}},   {101, 0.950, 55, {2, 2, 3, 3, 2, 3}},
      {104, 0.946, 52, {0, 3, 0, 3, 0, 3}},  {106, 0.941, 49, {1, 2, 1, 2, 1, 2}},
      {109, 0.937, 46, {0, 0, 0, 1, 1, 1}},  {111, 0.932, 44, {2, 2, 2, 3, 3, 3}},
      {114, 0.926, 41, {0, 0, 0, 0, 0, 0}},  {116, 0.921, 39, {1, 1, 1, 1, 1, 1}},
      {119, 0.915, 37, {2, 2, 2, 2, 2, 2}},  {122, 0.910, 35, {3, 3, 3, 3, 3, 3}},
      {125, 0.906, 33, {0, 1, 0, 1, 0, 1}},  {128, 0.901, 31, {2, 3, 2, 3, 2, 3}},
  };
  static constexpr std::size_t kN = std::size(kRows);

  dse::DesignDb db;
  rt::DrcMatrix drc;
  rel::ClrSpace space{rel::ClrGranularity::Coarse};
  /// QoS-process ranges, a little wider than the database so some
  /// requirements fit no point.
  dse::MetricRanges ranges;

  LiteralDb() : drc(kN, drc_values()) {
    for (std::size_t i = 0; i < kN; ++i) {
      dse::DesignPoint p;
      p.makespan = kRows[i].makespan;
      p.func_rel = kRows[i].func_rel;
      p.energy = kRows[i].energy;
      p.extra = i % 3 == 0;
      p.config.tasks.resize(kRows[i].pes.size());
      for (std::size_t t = 0; t < p.config.tasks.size(); ++t) {
        p.config.tasks[t].pe = kRows[i].pes[t];
        p.config.tasks[t].clr_index = static_cast<std::uint32_t>((i + 2 * t) % space.size());
      }
      db.add(p);
    }
    ranges.makespan_min = 76.0;
    ranges.makespan_max = 132.0;
    ranges.func_rel_min = 0.895;
    ranges.func_rel_max = 0.995;
    ranges.energy_min = 31.0;
    ranges.energy_max = 92.0;
  }

  static std::vector<double> drc_values() {
    std::vector<double> v(kN * kN, 0.0);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t j = 0; j < kN; ++j) {
        if (i != j) v[i * kN + j] = static_cast<double>(2 + (3 * i + 5 * j) % 11);
      }
    }
    return v;
  }
};

}  // namespace clr::test

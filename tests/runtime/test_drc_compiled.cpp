// Compiled dRC: ReconfigModel's flat (task, from-PE, to-PE, impl) and
// per-target-PE tables against a reference copy of the per-task walk they
// replaced, which reads the platform and implementation set directly. On
// fuzzed configurations over Bus and Mesh2D platforms — with PRR targets,
// impl-only changes and free CLR/priority changes — every cost() field,
// average_drc and every DrcMatrix entry must be bit-equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "platform/platform.hpp"
#include "reconfig/reconfig.hpp"
#include "runtime/drc_matrix.hpp"
#include "taskgraph/generator.hpp"

namespace clr::recfg {
namespace {

/// The uncompiled walk: per changed task, the migration term computed from
/// the platform and implementation set, plus the target PRR's bitstream.
ReconfigCost reference_cost(const plat::Platform& hw, const rel::ImplementationSet& impls,
                            const sched::Configuration& from, const sched::Configuration& to) {
  const auto& ic = hw.interconnect();
  ReconfigCost c;
  for (tg::TaskId t = 0; t < from.size(); ++t) {
    const auto& a = from[t];
    const auto& b = to[t];
    const bool moved = a.pe != b.pe;
    const bool impl_changed = a.impl_index != b.impl_index;
    if (!moved && !impl_changed) continue;
    const rel::Implementation& impl = impls.for_task(t).at(b.impl_index);
    const double factor = moved ? hw.comm_factor(a.pe, b.pe) : 1.0;
    c.migration += factor * static_cast<double>(impl.binary_bytes) / ic.binary_bandwidth +
                   ic.per_migration_overhead;
    ++c.migrated_tasks;
    const plat::Pe& target_pe = hw.pe(b.pe);
    if (target_pe.prr != plat::Pe::kNoPrr) {
      c.bitstream += static_cast<double>(hw.prr(target_pe.prr).bitstream_bytes) / ic.icap_bandwidth;
      ++c.prr_loads;
    }
  }
  return c;
}

double reference_average(const plat::Platform& hw, const rel::ImplementationSet& impls,
                         const sched::Configuration& from,
                         const std::vector<sched::Configuration>& targets) {
  if (targets.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& target : targets) sum += reference_cost(hw, impls, from, target).total();
  return sum / static_cast<double>(targets.size());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The default HMPSoC (three PRR-hosted accelerators) under a topology.
/// Bandwidths and overhead are not powers of two, so the terms are inexact
/// and a sum taken in another order would round differently.
plat::Platform platform_with(plat::Topology topology) {
  plat::Platform hw = plat::make_default_hmpsoc();
  plat::Interconnect ic = hw.interconnect();
  ic.topology = topology;
  ic.mesh_columns = 3;
  ic.binary_bandwidth = 3000.0;
  ic.icap_bandwidth = 700.0;
  ic.per_migration_overhead = 1.1;
  hw.set_interconnect(ic);
  return hw;
}

struct Fixture {
  plat::Platform hw;
  rel::ImplementationSet impls;
  std::vector<plat::PeId> prr_pes;
};

Fixture make_fixture(plat::Topology topology, std::size_t tasks, std::uint64_t seed) {
  Fixture f{platform_with(topology), {}, {}};
  tg::GeneratorParams gp;
  gp.num_tasks = tasks;
  util::Rng rng(seed);
  const auto graph = tg::TgffGenerator(gp).generate(rng);
  f.impls = rel::generate_implementations(graph, f.hw, rel::ImplGenParams{}, rng);
  for (const auto& pe : f.hw.pes()) {
    if (pe.prr != plat::Pe::kNoPrr) f.prr_pes.push_back(pe.id);
  }
  return f;
}

/// Any in-range (PE, impl) per task; the model does not check type
/// compatibility, so neither does the fuzzer.
sched::Configuration random_config(const Fixture& f, util::Rng& rng) {
  sched::Configuration cfg;
  cfg.tasks.resize(f.impls.num_tasks());
  for (tg::TaskId t = 0; t < cfg.size(); ++t) {
    cfg[t].pe = static_cast<plat::PeId>(rng.uniform_int(0, static_cast<int>(f.hw.num_pes()) - 1));
    cfg[t].impl_index = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<int>(f.impls.for_task(t).size()) - 1));
    cfg[t].clr_index = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
    cfg[t].priority = rng.uniform_int(0, 50);
  }
  return cfg;
}

/// A target derived from `from` by one kind of edit on a random subset of
/// tasks: 0 = re-bind anywhere, 1 = implementation only, 2 = move onto a
/// PRR-hosted PE, 3 = CLR/priority only (free), 4 = fully random.
sched::Configuration edited(const Fixture& f, const sched::Configuration& from, int kind,
                            util::Rng& rng) {
  if (kind == 4) return random_config(f, rng);
  sched::Configuration to = from;
  const int pes = static_cast<int>(f.hw.num_pes());
  for (tg::TaskId t = 0; t < to.size(); ++t) {
    if (!rng.chance(0.4)) continue;
    const int impls = static_cast<int>(f.impls.for_task(t).size());
    switch (kind) {
      case 0:
        to[t].pe = static_cast<plat::PeId>(rng.uniform_int(0, pes - 1));
        break;
      case 1:
        to[t].impl_index = static_cast<std::uint32_t>(rng.uniform_int(0, impls - 1));
        break;
      case 2:
        to[t].pe = f.prr_pes[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(f.prr_pes.size()) - 1))];
        to[t].impl_index = static_cast<std::uint32_t>(rng.uniform_int(0, impls - 1));
        break;
      default:
        to[t].clr_index += 1;
        to[t].priority += 3;
        break;
    }
  }
  return to;
}

class CompiledDrc : public ::testing::TestWithParam<plat::Topology> {};

TEST_P(CompiledDrc, CostFieldsAreBitEqualToTheReferenceWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Fixture f = make_fixture(GetParam(), 10 + 7 * seed, 100 + seed);
    ASSERT_FALSE(f.prr_pes.empty());
    const ReconfigModel model(f.hw, f.impls);
    util::Rng rng(seed);
    std::size_t prr_loads = 0;
    std::size_t impl_only = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const auto from = random_config(f, rng);
      const auto to = edited(f, from, trial % 5, rng);
      const ReconfigCost got = model.cost(from, to);
      const ReconfigCost want = reference_cost(f.hw, f.impls, from, to);
      ASSERT_EQ(bits(got.migration), bits(want.migration)) << "seed " << seed << " trial " << trial;
      ASSERT_EQ(bits(got.bitstream), bits(want.bitstream)) << "seed " << seed << " trial " << trial;
      ASSERT_EQ(got.migrated_tasks, want.migrated_tasks);
      ASSERT_EQ(got.prr_loads, want.prr_loads);
      ASSERT_EQ(bits(model.drc(from, to)), bits(want.total()));
      prr_loads += got.prr_loads;
      if (trial % 5 == 1) impl_only += got.migrated_tasks;
      if (trial % 5 == 3) {
        ASSERT_EQ(bits(got.total()), bits(0.0));  // CLR/priority: free
      }
    }
    // Non-vacuity: the fuzz reached PRR bitstreams and impl-only swaps.
    EXPECT_GT(prr_loads, 0u);
    EXPECT_GT(impl_only, 0u);
  }
}

TEST_P(CompiledDrc, AverageDrcIsBitEqualToTheReferenceSum) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Fixture f = make_fixture(GetParam(), 30, 200 + seed);
    const ReconfigModel model(f.hw, f.impls);
    util::Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      const auto from = random_config(f, rng);
      std::vector<sched::Configuration> targets;
      const int k = rng.uniform_int(0, 40);
      for (int i = 0; i < k; ++i) targets.push_back(edited(f, from, i % 5, rng));
      if (trial % 7 == 0) targets.push_back(from);  // dRC(x, x) = 0 in the mix
      ASSERT_EQ(bits(model.average_drc(from, targets)),
                bits(reference_average(f.hw, f.impls, from, targets)))
          << "seed " << seed << " trial " << trial << " targets " << targets.size();
    }
  }
}

TEST_P(CompiledDrc, DrcMatrixEntriesAreBitEqualToTheReferenceWalk) {
  const Fixture f = make_fixture(GetParam(), 40, 300);
  const ReconfigModel model(f.hw, f.impls);
  util::Rng rng(17);
  dse::DesignDb db;
  const auto base = random_config(f, rng);
  while (db.size() < 30) {
    dse::DesignPoint p;
    p.config = edited(f, base, static_cast<int>(db.size() % 5), rng);
    db.add(std::move(p));
  }
  util::ThreadPool pool(3);
  const rt::DrcMatrix seq(db, model);
  const rt::DrcMatrix par(db, model, &pool);
  double max_drc = 0.0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (std::size_t j = 0; j < db.size(); ++j) {
      const double want =
          i == j ? 0.0 : reference_cost(f.hw, f.impls, db.point(i).config, db.point(j).config).total();
      ASSERT_EQ(bits(seq.drc(i, j)), bits(want)) << i << " -> " << j;
      ASSERT_EQ(bits(par.drc(i, j)), bits(want)) << i << " -> " << j;
      max_drc = std::max(max_drc, want);
    }
  }
  EXPECT_EQ(bits(seq.max_drc()), bits(max_drc));
  EXPECT_GT(max_drc, 0.0);
}

TEST_P(CompiledDrc, UnknownIndicesOnAChangedTaskStillThrow) {
  const Fixture f = make_fixture(GetParam(), 12, 400);
  const ReconfigModel model(f.hw, f.impls);
  util::Rng rng(5);
  const auto from = random_config(f, rng);
  const auto pes = static_cast<plat::PeId>(f.hw.num_pes());

  auto bad_pe = from;
  bad_pe[3].pe = pes;
  auto bad_impl = from;
  bad_impl[3].impl_index = static_cast<std::uint32_t>(f.impls.for_task(3).size());
  auto bad_from = from;
  bad_from[3].pe = pes + 2;  // unknown source PE of a moved task
  for (const auto* to : {&bad_pe, &bad_impl}) {
    EXPECT_THROW(model.cost(from, *to), std::out_of_range);
    EXPECT_THROW(model.drc(from, *to), std::out_of_range);
    EXPECT_THROW(model.average_drc(from, {from, *to}), std::out_of_range);
  }
  EXPECT_THROW(model.cost(bad_from, from), std::out_of_range);

  sched::Configuration shorter = from;
  shorter.tasks.pop_back();
  EXPECT_THROW(model.cost(from, shorter), std::invalid_argument);
  EXPECT_THROW(model.average_drc(from, {shorter}), std::invalid_argument);
  // An unchanged task is never looked up, exactly as in the walk.
  EXPECT_EQ(model.drc(bad_pe, bad_pe), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, CompiledDrc,
                         ::testing::Values(plat::Topology::Bus, plat::Topology::Mesh2D),
                         [](const auto& info) {
                           return info.param == plat::Topology::Bus ? std::string("Bus")
                                                                    : std::string("Mesh2D");
                         });

}  // namespace
}  // namespace clr::recfg

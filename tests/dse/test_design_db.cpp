#include "dse/design_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace clr::dse {
namespace {

DesignPoint make_point(double energy, double makespan, double func_rel, int tag = 0) {
  DesignPoint p;
  p.energy = energy;
  p.makespan = makespan;
  p.func_rel = func_rel;
  // Distinct configurations via the priority field.
  p.config.tasks.resize(1);
  p.config.tasks[0].priority = tag;
  return p;
}

TEST(DesignDb, AddAndQuery) {
  DesignDb db;
  EXPECT_TRUE(db.empty());
  const auto i = db.add(make_point(10, 100, 0.9, 1));
  EXPECT_EQ(i, 0u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.point(0).energy, 10.0);
}

TEST(DesignDb, DeduplicatesByConfiguration) {
  DesignDb db;
  db.add(make_point(10, 100, 0.9, 1));
  const auto again = db.add(make_point(99, 999, 0.1, 1));  // same config tag
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.point(0).energy, 10.0);  // first insert wins
}

TEST(DesignDb, FeasibleIndices) {
  DesignDb db;
  db.add(make_point(1, 100, 0.95, 1));
  db.add(make_point(2, 200, 0.99, 2));
  db.add(make_point(3, 50, 0.90, 3));
  std::vector<std::size_t> feas(db.size());
  ASSERT_EQ(db.feasible_indices(QosSpec{150.0, 0.94}, feas), 1u);
  EXPECT_EQ(feas[0], 0u);
  EXPECT_EQ(db.feasible_indices(QosSpec{500.0, 0.0}, feas), 3u);
  EXPECT_EQ(feas, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(db.feasible_indices(QosSpec{10.0, 0.999}, feas), 0u);
  std::vector<std::size_t> too_small(db.size() - 1);
  EXPECT_THROW(db.feasible_indices(QosSpec{500.0, 0.0}, too_small), std::invalid_argument);
}

// The branchless column compaction must list exactly the points
// DesignPoint::feasible_for accepts (bounds inclusive), ascending, with and
// without an alive mask; the columns and cached ranges must equal the stored
// points and a full rescan.
TEST(DesignDb, FeasibleIndicesMatchesPointwiseScan) {
  DesignDb db;
  std::uint64_t lcg = 0x5eedULL;
  const auto next = [&lcg](std::uint64_t m) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % m;
  };
  for (int i = 0; i < 64; ++i) {
    db.add(make_point(static_cast<double>(next(50)), static_cast<double>(10 * next(20)),
                      0.9 + 0.01 * static_cast<double>(next(10)), i));
  }
  ASSERT_EQ(db.size(), 64u);
  MetricRanges want;
  want.energy_min = want.energy_max = db.point(0).energy;
  want.makespan_min = want.makespan_max = db.point(0).makespan;
  want.func_rel_min = want.func_rel_max = db.point(0).func_rel;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto& p = db.point(i);
    EXPECT_EQ(db.makespans()[i], p.makespan);
    EXPECT_EQ(db.func_rels()[i], p.func_rel);
    EXPECT_EQ(db.energies()[i], p.energy);
    want.energy_min = std::min(want.energy_min, p.energy);
    want.energy_max = std::max(want.energy_max, p.energy);
    want.makespan_min = std::min(want.makespan_min, p.makespan);
    want.makespan_max = std::max(want.makespan_max, p.makespan);
    want.func_rel_min = std::min(want.func_rel_min, p.func_rel);
    want.func_rel_max = std::max(want.func_rel_max, p.func_rel);
  }
  EXPECT_EQ(db.ranges(), want);

  std::vector<std::size_t> out(db.size());
  std::vector<bool> alive(db.size());
  for (int trial = 0; trial < 200; ++trial) {
    // Grid-valued specs land exactly on stored metrics (inclusive bounds).
    const QosSpec spec{static_cast<double>(10 * next(21)),
                       0.9 + 0.01 * static_cast<double>(next(11))};
    for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = next(4) != 0;
    for (const std::vector<bool>* mask : {static_cast<const std::vector<bool>*>(nullptr),
                                          static_cast<const std::vector<bool>*>(&alive)}) {
      std::vector<std::size_t> want_idx;
      for (std::size_t i = 0; i < db.size(); ++i) {
        if ((mask == nullptr || alive[i]) && db.point(i).feasible_for(spec)) want_idx.push_back(i);
      }
      const std::size_t n = db.feasible_indices(spec, out, mask);
      EXPECT_EQ(std::vector<std::size_t>(out.begin(), out.begin() + static_cast<long>(n)),
                want_idx)
          << "trial " << trial << (mask != nullptr ? " masked" : "");
    }
  }
}

TEST(DesignDb, LeastViolatingPrefersFeasible) {
  DesignDb db;
  db.add(make_point(1, 1000, 0.5, 1));   // violates both
  db.add(make_point(2, 100, 0.95, 2));   // feasible
  EXPECT_EQ(db.least_violating(QosSpec{150.0, 0.9}), 1u);
}

TEST(DesignDb, LeastViolatingPicksSmallestViolation) {
  DesignDb db;
  db.add(make_point(1, 200, 0.95, 1));  // makespan 33% over
  db.add(make_point(2, 160, 0.95, 2));  // makespan 6.7% over
  EXPECT_EQ(db.least_violating(QosSpec{150.0, 0.9}), 1u);
}

TEST(DesignDb, LeastViolatingThrowsOnEmpty) {
  DesignDb db;
  EXPECT_THROW(db.least_violating(QosSpec{1.0, 0.5}), std::logic_error);
}

TEST(DesignDb, RangesSpanAllPoints) {
  DesignDb db;
  db.add(make_point(10, 100, 0.90, 1));
  db.add(make_point(30, 80, 0.99, 2));
  const auto r = db.ranges();
  EXPECT_DOUBLE_EQ(r.energy_min, 10.0);
  EXPECT_DOUBLE_EQ(r.energy_max, 30.0);
  EXPECT_DOUBLE_EQ(r.makespan_min, 80.0);
  EXPECT_DOUBLE_EQ(r.makespan_max, 100.0);
  EXPECT_DOUBLE_EQ(r.func_rel_min, 0.90);
  EXPECT_DOUBLE_EQ(r.func_rel_max, 0.99);
}

TEST(DesignDb, NumExtraCountsFlag) {
  DesignDb db;
  auto p = make_point(1, 1, 0.5, 1);
  p.extra = true;
  db.add(p);
  db.add(make_point(2, 2, 0.6, 2));
  EXPECT_EQ(db.num_extra(), 1u);
}

TEST(DesignDb, ConfigurationsExportsAll) {
  DesignDb db;
  db.add(make_point(1, 1, 0.5, 1));
  db.add(make_point(2, 2, 0.6, 2));
  EXPECT_EQ(db.configurations().size(), 2u);
}

TEST(DesignDb, SummaryMentionsCounts) {
  DesignDb db;
  db.add(make_point(1, 1, 0.5, 1));
  EXPECT_NE(db.summary().find("1 points"), std::string::npos);
}

TEST(HashConfiguration, EqualConfigsHashEqually) {
  sched::Configuration a;
  a.tasks.resize(3);
  a.tasks[1].pe = 2;
  a.tasks[1].impl_index = 4;
  a.tasks[2].clr_index = 1;
  a.tasks[2].priority = -7;
  sched::Configuration b = a;
  EXPECT_EQ(hash_configuration(a), hash_configuration(b));
  b.tasks[0].priority = 1;
  EXPECT_NE(hash_configuration(a), hash_configuration(b));  // overwhelmingly likely
}

TEST(DesignDb, HashedIndexMatchesLinearScanDedup) {
  // Property check of the FNV-bucketed duplicate index: inserting a stream of
  // part-fresh / part-duplicate multi-task configurations must behave exactly
  // like the original linear scan — same returned index per insert, same
  // final contents, first insert winning each duplicate group.
  DesignDb db;
  std::vector<sched::Configuration> reference;  // linear-scan ground truth
  std::uint64_t lcg = 88172645463325252ULL;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int round = 0; round < 400; ++round) {
    DesignPoint p;
    p.energy = static_cast<double>(round);
    p.config.tasks.resize(1 + next() % 4);
    for (auto& t : p.config.tasks) {
      t.pe = static_cast<plat::PeId>(next() % 3);
      t.impl_index = static_cast<std::uint32_t>(next() % 3);
      t.clr_index = static_cast<std::uint32_t>(next() % 2);
      t.priority = static_cast<int>(next() % 2);
    }
    std::size_t expected = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i] == p.config) {
        expected = i;
        break;
      }
    }
    if (expected == reference.size()) reference.push_back(p.config);
    EXPECT_EQ(db.add(p), expected) << "round " << round;
  }
  ASSERT_EQ(db.size(), reference.size());
  EXPECT_LT(db.size(), 400u);  // the modulus guarantees actual duplicates
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.point(i).config == reference[i]);
  }
}

TEST(DesignPoint, FeasibleFor) {
  const auto p = make_point(5, 100, 0.95);
  EXPECT_TRUE(p.feasible_for(QosSpec{100.0, 0.95}));
  EXPECT_FALSE(p.feasible_for(QosSpec{99.0, 0.95}));
  EXPECT_FALSE(p.feasible_for(QosSpec{100.0, 0.96}));
}

}  // namespace
}  // namespace clr::dse

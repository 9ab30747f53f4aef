#include "moea/eval_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "common/parallel.hpp"

namespace clr::moea {
namespace {

/// Deterministic problem that counts how often evaluate() actually runs.
class CountingProblem : public Problem {
 public:
  std::size_t num_genes() const override { return 4; }
  int domain_size(std::size_t) const override { return 1000; }
  std::size_t num_objectives() const override { return 2; }
  Evaluation evaluate(const std::vector<int>& genes) const override {
    evaluations.fetch_add(1, std::memory_order_relaxed);
    double sum = 0.0;
    for (int g : genes) sum += g;
    return Evaluation{{sum, -sum}, genes[0] == 0 ? 1.0 : 0.0};
  }

  mutable std::atomic<std::uint64_t> evaluations{0};
};

TEST(HashGenes, IsDeterministicAndDiscriminates) {
  EXPECT_EQ(hash_genes({1, 2, 3}), hash_genes({1, 2, 3}));
  EXPECT_NE(hash_genes({1, 2, 3}), hash_genes({3, 2, 1}));
  EXPECT_NE(hash_genes({0}), hash_genes({0, 0}));
  EXPECT_NE(hash_genes({-1}), hash_genes({1}));
  hash_genes({});  // empty chromosome must not crash
}

TEST(EvalCache, HitReturnsTheExactCachedEvaluation) {
  EvalCache cache(64);
  const std::vector<int> genes{4, 8, 15, 16};
  const Evaluation stored{{1.25, -3.5, 7.0}, 0.125};
  cache.store(genes, stored);

  Evaluation out;
  ASSERT_TRUE(cache.lookup(genes, &out));
  EXPECT_EQ(out.objectives, stored.objectives);
  EXPECT_EQ(out.violation, stored.violation);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(EvalCache, MissLeavesOutputUntouchedAndCounts) {
  EvalCache cache(64);
  Evaluation out{{9.0}, 9.0};
  EXPECT_FALSE(cache.lookup({1, 2}, &out));
  EXPECT_EQ(out.objectives, (std::vector<double>{9.0}));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(EvalCache, StoreOverwritesExistingKey) {
  EvalCache cache(64);
  cache.store({7}, Evaluation{{1.0}, 0.0});
  cache.store({7}, Evaluation{{2.0}, 0.5});
  Evaluation out;
  ASSERT_TRUE(cache.lookup({7}, &out));
  EXPECT_DOUBLE_EQ(out.objectives[0], 2.0);
  EXPECT_DOUBLE_EQ(out.violation, 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, BoundedSizeEvictsOldestEntries) {
  EvalCache cache(32);  // 2 entries per shard
  for (int i = 0; i < 500; ++i) {
    cache.store({i, i + 1}, Evaluation{{static_cast<double>(i)}, 0.0});
  }
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.evictions(), 0u);
  // The newest entry must still be present (FIFO evicts from the front).
  Evaluation out;
  EXPECT_TRUE(cache.lookup({499, 500}, &out));
  EXPECT_DOUBLE_EQ(out.objectives[0], 499.0);
}

TEST(EvalCache, ClearEmptiesEveryShard) {
  EvalCache cache(64);
  for (int i = 0; i < 40; ++i) cache.store({i}, Evaluation{{0.0}, 0.0});
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(GenomeKey, CarriesHashGenesAndComparesTheFullGenes) {
  const std::vector<int> a{1, 2, 3}, a_copy{1, 2, 3}, b{3, 2, 1};
  EXPECT_EQ(GenomeKey(a).hash, hash_genes(a));
  EXPECT_TRUE(GenomeKey(a) == GenomeKey(a_copy));
  EXPECT_FALSE(GenomeKey(a) == GenomeKey(b));
  EXPECT_FALSE(GenomeKey(a, 42) == GenomeKey(b, 42));  // same hash, different genes
  EXPECT_TRUE(GenomeKey(a, 42) == GenomeKey(a, 42));
}

TEST(GenomeKey, EqualHashWithDifferentGenesIsAMissNotAWrongValue) {
  EvalCache cache(64);
  const std::vector<int> a{1, 2, 3}, b{3, 2, 1};
  const GenomeKey ka(a, 0x1234), kb(b, 0x1234);  // forced collision: same shard, same bucket
  cache.store(ka, Evaluation{{1.0}, 0.0});

  Evaluation out{{9.0}, 9.0};
  EXPECT_FALSE(cache.lookup(kb, &out));
  EXPECT_EQ(out.objectives, (std::vector<double>{9.0}));
  EXPECT_EQ(cache.misses(), 1u);

  cache.store(kb, Evaluation{{2.0}, 0.5});
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.lookup(ka, &out));
  EXPECT_EQ(out.objectives, (std::vector<double>{1.0}));
  ASSERT_TRUE(cache.lookup(kb, &out));
  EXPECT_EQ(out.objectives, (std::vector<double>{2.0}));
  EXPECT_EQ(out.violation, 0.5);
}

TEST(GenomeKey, EvictionIsFifoWithinAShard) {
  EvalCache cache(32);  // 2 entries per shard
  const std::vector<int> g0{0}, g1{1}, g2{2}, g3{3};
  // One hash for all four keys puts them in the same shard.
  cache.store(GenomeKey(g0, 7), Evaluation{{0.0}, 0.0});
  cache.store(GenomeKey(g1, 7), Evaluation{{1.0}, 0.0});
  cache.store(GenomeKey(g0, 7), Evaluation{{10.0}, 0.0});  // overwrite keeps its age
  cache.store(GenomeKey(g2, 7), Evaluation{{2.0}, 0.0});   // evicts g0, the oldest
  cache.store(GenomeKey(g3, 7), Evaluation{{3.0}, 0.0});   // evicts g1
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  Evaluation out;
  EXPECT_FALSE(cache.lookup(GenomeKey(g0, 7), &out));
  EXPECT_FALSE(cache.lookup(GenomeKey(g1, 7), &out));
  ASSERT_TRUE(cache.lookup(GenomeKey(g2, 7), &out));
  EXPECT_EQ(out.objectives[0], 2.0);
  ASSERT_TRUE(cache.lookup(GenomeKey(g3, 7), &out));
  EXPECT_EQ(out.objectives[0], 3.0);
}

TEST(HashGenes, EverySingleGeneChangeMovesTheHash) {
  std::vector<int> genes(241);  // odd length: the last gene fills half a word
  for (std::size_t i = 0; i < genes.size(); ++i) genes[i] = static_cast<int>(i % 7);
  const std::uint64_t base = hash_genes(genes);
  for (std::size_t i = 0; i < genes.size(); ++i) {
    auto changed = genes;
    changed[i] += 1;
    EXPECT_NE(hash_genes(changed), base) << "gene " << i;
  }
}

TEST(BatchEvaluator, DeduplicatesIdenticalGenomesWithinABatch) {
  CountingProblem prob;
  BatchEvaluator evaluator(prob, {});
  std::vector<Individual> group(6);
  group[0].genes = {1, 2, 3, 4};
  group[1].genes = {5, 6, 7, 8};
  group[2].genes = {1, 2, 3, 4};  // duplicate of 0
  group[3].genes = {1, 2, 3, 4};  // duplicate of 0
  group[4].genes = {5, 6, 7, 8};  // duplicate of 1
  group[5].genes = {9, 9, 9, 9};
  std::vector<Individual*> batch;
  for (auto& ind : group) batch.push_back(&ind);

  evaluator.evaluate(batch);
  EXPECT_EQ(prob.evaluations.load(), 3u);
  EXPECT_EQ(group[2].eval.objectives, group[0].eval.objectives);
  EXPECT_DOUBLE_EQ(group[0].eval.objectives[0], 10.0);
  EXPECT_DOUBLE_EQ(group[5].eval.objectives[0], 36.0);
}

TEST(BatchEvaluator, CacheSkipsReEvaluationAcrossBatches) {
  CountingProblem prob;
  EvalCache cache(1 << 10);
  BatchEvaluator evaluator(prob, {nullptr, &cache});
  std::vector<Individual> group(3);
  group[0].genes = {1, 0, 0, 0};
  group[1].genes = {2, 0, 0, 0};
  group[2].genes = {3, 0, 0, 0};
  std::vector<Individual*> batch;
  for (auto& ind : group) batch.push_back(&ind);

  evaluator.evaluate(batch);
  EXPECT_EQ(prob.evaluations.load(), 3u);

  // Second batch with the same genomes: pure cache hits.
  for (auto& ind : group) ind.eval = Evaluation{};
  evaluator.evaluate(batch);
  EXPECT_EQ(prob.evaluations.load(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_DOUBLE_EQ(group[2].eval.objectives[0], 3.0);
}

TEST(BatchEvaluator, ParallelAndSequentialResultsMatch) {
  CountingProblem prob;
  util::ThreadPool pool(4);
  std::vector<Individual> seq(64), par(64);
  for (int i = 0; i < 64; ++i) {
    seq[i].genes = {i, 2 * i, 3 * i, 4 * i};
    par[i].genes = seq[i].genes;
  }
  std::vector<Individual*> seq_batch, par_batch;
  for (auto& ind : seq) seq_batch.push_back(&ind);
  for (auto& ind : par) par_batch.push_back(&ind);

  BatchEvaluator(prob, {}).evaluate(seq_batch);
  BatchEvaluator(prob, {&pool, nullptr}).evaluate(par_batch);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(par[i].eval.objectives, seq[i].eval.objectives) << "individual " << i;
    EXPECT_EQ(par[i].eval.violation, seq[i].eval.violation);
  }
}

}  // namespace
}  // namespace clr::moea

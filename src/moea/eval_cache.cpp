#include "moea/eval_cache.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace clr::moea {

void BatchEvaluator::evaluate(const std::vector<Individual*>& batch) const {
  // Hash every genome once; the key serves the cache lookup, the in-batch
  // dedup below, the problem's own memos and the final store. Resolve cache
  // hits and collapse within-batch duplicates; only the first occurrence of
  // each distinct genome is evaluated.
  std::vector<Individual*> unique;
  std::vector<GenomeKey> keys;  // keys[i] belongs to unique[i]
  std::vector<std::pair<Individual*, Individual*>> copies;  // (dup, source)
  unique.reserve(batch.size());
  keys.reserve(batch.size());
  {
    // Keyed by non-owning GenomeKeys: the batch's gene vectors outlive it.
    std::unordered_map<GenomeKey, Individual*, GenomeKeyHash> seen;
    seen.reserve(batch.size());
    for (Individual* ind : batch) {
      const GenomeKey key(ind->genes);
      if (cache_ != nullptr && cache_->lookup(key, &ind->eval)) continue;
      const auto [it, inserted] = seen.try_emplace(key, ind);
      if (inserted) {
        unique.push_back(ind);
        keys.push_back(key);
      } else {
        copies.emplace_back(ind, it->second);
      }
    }
  }

  // Each iteration writes only its own individual's eval — safe to fan out.
  // Batched mode hands the pool SoA-block-sized chunks so every pool task
  // amortizes one full SIMD block through Problem::evaluate_batch; the chunk
  // boundaries are fixed by index arithmetic, so block composition — and
  // with it every result bit — is identical at any thread count (the
  // sequential path evaluates the same [0,8), [8,16), ... blocks).
  constexpr std::size_t kChunk = 8;  // == sched::BatchGenomes::kLanes
  if (pool_ != nullptr) {
    if (batched_) {
      const std::size_t chunks = (unique.size() + kChunk - 1) / kChunk;
      pool_->parallel_for(chunks, [&](std::size_t c) {
        const std::size_t begin = c * kChunk;
        const std::size_t count = std::min(kChunk, unique.size() - begin);
        problem_->evaluate_batch({unique.data() + begin, count}, {keys.data() + begin, count});
      });
    } else {
      pool_->parallel_for(
          unique.size(), [&](std::size_t i) { unique[i]->eval = problem_->evaluate(unique[i]->genes); });
    }
  } else if (batched_) {
    problem_->evaluate_batch({unique.data(), unique.size()}, {keys.data(), keys.size()});
  } else {
    for (Individual* ind : unique) ind->eval = problem_->evaluate(ind->genes);
  }

  for (auto& [dup, source] : copies) dup->eval = source->eval;
  if (cache_ != nullptr) {
    for (std::size_t i = 0; i < unique.size(); ++i) cache_->store(keys[i], unique[i]->eval);
  }
}

}  // namespace clr::moea

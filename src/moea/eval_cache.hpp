#pragma once
// Memoizing evaluation cache + parallel batch evaluator for the DSE engines.
//
// Crossover and mutation re-produce identical chromosomes constantly (per-gene
// reset mutation at p = 0.03 leaves most children untouched copies of their
// parents), and the ReD stage re-seeds every secondary run from the same BaseD
// front — so a genome-keyed memo table converts a large share of the
// scheduler-bound evaluations into hash lookups.
//
// The cache is sharded (one mutex + map per shard) so parallel evaluation
// batches do not serialize on a single lock, and bounded: each shard evicts
// its oldest entries (FIFO) once it reaches capacity / kShards entries.
// Lookups compare the full gene vector, never the hash alone, so a hash
// collision degrades to a miss instead of returning a wrong evaluation.
// Each entry stores its gene vector once (the map key); the FIFO order
// points at that key instead of copying it.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "moea/genome_key.hpp"
#include "moea/individual.hpp"
#include "moea/problem.hpp"

namespace clr::util {
class ThreadPool;
}

namespace clr::moea {

/// Bounded, sharded, thread-safe memo table: chromosome -> payload.
/// Generic over the payload so the DSE layer can reuse it for schedule
/// results and reconfiguration costs (see MappingProblem / DesignTimeDse).
/// Every operation takes a GenomeKey, so the genome's hash is computed by
/// the caller once and reused for the shard pick and the bucket pick; the
/// std::vector overloads hash on the spot.
template <typename Value>
class GenomeCache {
 public:
  explicit GenomeCache(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    shard_capacity_ = capacity_ / kShards;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }

  /// Copy the cached payload for `key` into *out. Returns false on miss.
  bool lookup(const GenomeKey& key, Value* out) const {
    Shard& shard = shard_for(key.hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *out = it->second;
    return true;
  }
  bool lookup(const std::vector<int>& genes, Value* out) const {
    return lookup(GenomeKey(genes), out);
  }

  /// Insert (or overwrite) the payload for `key`, evicting the shard's
  /// oldest entry when it is full. The gene vector is copied once, into the
  /// map's key; the FIFO order refers to that key.
  void store(const GenomeKey& key, const Value& value) {
    Shard& shard = shard_for(key.hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second = value;
      return;
    }
    const auto inserted = shard.map.emplace(StoredKey{*key.genes, key.hash}, value).first;
    shard.order.push_back(&inserted->first);
    while (shard.map.size() > shard_capacity_) {
      shard.map.erase(shard.map.find(*shard.order.front()));
      shard.order.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void store(const std::vector<int>& genes, const Value& value) { store(GenomeKey(genes), value); }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  std::size_t capacity() const { return shard_capacity_ * kShards; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }

  /// Fraction of lookups answered from the cache (0 when never queried).
  double hit_rate() const {
    const double total = static_cast<double>(hits() + misses());
    return total > 0.0 ? static_cast<double>(hits()) / total : 0.0;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.order.clear();
    }
  }

 private:
  /// The one owned copy of a cached genome, with its hash.
  struct StoredKey {
    std::vector<int> genes;
    std::uint64_t hash;
  };
  // Transparent hash/equality: a GenomeKey probes the map without copying
  // its genes. Equality is on the full gene vector, never the hash alone.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(const StoredKey& k) const noexcept { return k.hash; }
    std::size_t operator()(const GenomeKey& k) const noexcept { return k.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const StoredKey& a, const StoredKey& b) const {
      return &a == &b || (a.hash == b.hash && a.genes == b.genes);
    }
    bool operator()(const GenomeKey& a, const StoredKey& b) const {
      return a.hash == b.hash && *a.genes == b.genes;
    }
    bool operator()(const StoredKey& a, const GenomeKey& b) const { return (*this)(b, a); }
  };

  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<StoredKey, Value, KeyHash, KeyEq> map;
    /// Insertion order for FIFO eviction: pointers to the map's own keys
    /// (node-based, so they stay valid across rehashes until erased).
    std::deque<const StoredKey*> order;
  };

  Shard& shard_for(std::uint64_t hash) const {
    // Use the high bits for shard selection; the map consumes the low bits.
    return shards_[(hash >> 48) % kShards];
  }

  mutable std::array<Shard, kShards> shards_;
  std::size_t capacity_;
  std::size_t shard_capacity_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
};

/// The chromosome -> Evaluation memo shared by the GA engines.
using EvalCache = GenomeCache<Evaluation>;

/// Execution context for the generate-then-evaluate phase of the engines:
/// an optional shared thread pool and an optional shared memo cache. Both
/// nullptr reproduce the sequential, uncached behavior.
struct EvalOptions {
  util::ThreadPool* pool = nullptr;
  EvalCache* cache = nullptr;
  /// Route misses through Problem::evaluate_batch in SoA-block-sized chunks
  /// (bit-identical to the scalar path; off = per-genome evaluate(), kept
  /// for the side-by-side throughput bench and A/B debugging).
  bool batched = true;
};

/// Evaluates a batch of individuals against a Problem: consults the cache,
/// deduplicates identical genomes within the batch, fans the remaining
/// misses out over the pool, and stores the results back. Results are
/// independent of thread count and batch order because Problem::evaluate is
/// deterministic and the batched chunking is fixed by index arithmetic.
class BatchEvaluator {
 public:
  BatchEvaluator(const Problem& problem, const EvalOptions& opts)
      : problem_(&problem), pool_(opts.pool), cache_(opts.cache), batched_(opts.batched) {}

  /// Fill ind->eval for every individual in the batch.
  void evaluate(const std::vector<Individual*>& batch) const;

 private:
  const Problem* problem_;
  util::ThreadPool* pool_;
  EvalCache* cache_;
  bool batched_;
};

}  // namespace clr::moea

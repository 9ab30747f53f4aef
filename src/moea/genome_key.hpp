#pragma once
// Chromosome hashing for the genome-keyed memo tables (DESIGN.md §5.6
// "Memoization"). A genome is hashed once, when it enters a
// BatchEvaluator batch or a problem's evaluate(); the resulting GenomeKey
// then carries that hash through every cache layer it touches.

#include <cstdint>
#include <vector>

namespace clr::moea {

/// Word-wise 64-bit hash of a chromosome: two genes per 64-bit word, one
/// rotate-xor-multiply step per word (the FxHash step), seeded with the
/// length and finished with the MurmurHash3 avalanche so both the high bits
/// (shard pick) and the low bits (bucket pick) are well mixed. Deterministic
/// across runs and platforms: it reads gene values, never bytes.
inline std::uint64_t hash_genes(const std::vector<int>& genes) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const auto word = [](int g) { return static_cast<std::uint64_t>(static_cast<std::uint32_t>(g)); };
  const auto step = [](std::uint64_t h, std::uint64_t w) {
    return (((h << 5) | (h >> 59)) ^ w) * kMul;
  };
  const std::size_t n = genes.size();
  std::uint64_t h = static_cast<std::uint64_t>(n) * kMul;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) h = step(h, word(genes[i]) | (word(genes[i + 1]) << 32));
  if (i < n) h = step(h, word(genes[i]));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A chromosome and its hash, computed once. Non-owning: the gene vector
/// must outlive the key. Equality compares the hash first and then the full
/// gene vector, so two genomes that share a hash are still different keys.
struct GenomeKey {
  const std::vector<int>* genes = nullptr;
  std::uint64_t hash = 0;

  explicit GenomeKey(const std::vector<int>& g) : genes(&g), hash(hash_genes(g)) {}
  /// A key whose hash was computed elsewhere (the caller vouches for it).
  GenomeKey(const std::vector<int>& g, std::uint64_t h) : genes(&g), hash(h) {}
  GenomeKey(std::vector<int>&&) = delete;
  GenomeKey(std::vector<int>&&, std::uint64_t) = delete;

  friend bool operator==(const GenomeKey& a, const GenomeKey& b) {
    return a.hash == b.hash && *a.genes == *b.genes;
  }
};

/// Hasher for maps keyed by GenomeKey: returns the carried hash.
struct GenomeKeyHash {
  std::size_t operator()(const GenomeKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash);
  }
};

}  // namespace clr::moea

#pragma once
// Abstract integer-chromosome multi-objective problem. The DSE layer
// implements this for the CLR-integrated mapping space of Eq. (4).

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "moea/genome_key.hpp"
#include "moea/individual.hpp"

namespace clr::moea {

class Problem {
 public:
  virtual ~Problem() = default;

  /// Number of integer genes.
  virtual std::size_t num_genes() const = 0;

  /// Domain size of gene `locus`; valid alleles are [0, domain_size).
  virtual int domain_size(std::size_t locus) const = 0;

  /// Number of (minimized) objectives.
  virtual std::size_t num_objectives() const = 0;

  /// Evaluate a chromosome. Must be deterministic.
  virtual Evaluation evaluate(const std::vector<int>& genes) const = 0;

  /// Evaluate a batch, filling ind->eval for every individual. `keys[i]` is
  /// the GenomeKey of batch[i]->genes, hashed once by the caller so
  /// genome-keyed memos need not hash again. Semantically identical to
  /// calling evaluate() per individual — the default does exactly that;
  /// problems with a vectorized kernel override it (dse::MappingProblem
  /// routes through CompiledGraph::evaluate_block). Results must not depend
  /// on how callers partition work into batches.
  virtual void evaluate_batch(std::span<Individual* const> batch,
                              std::span<const GenomeKey> keys) const;

  /// Uniform-random chromosome within the domains.
  std::vector<int> random_genes(util::Rng& rng) const;

  /// Clamp/wrap out-of-domain alleles (used after seeding from foreign
  /// chromosomes).
  void repair(std::vector<int>& genes) const;
};

}  // namespace clr::moea

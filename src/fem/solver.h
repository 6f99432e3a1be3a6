// Static linear solve: displacements from a StaticProblem.
#pragma once

#include <vector>

#include "fem/assembly.h"
#include "feio/run_options.h"

namespace feio::fem {

struct StaticSolution {
  std::vector<geom::Vec2> displacement;  // one per node

  geom::Vec2 at(int node) const {
    return displacement[static_cast<size_t>(node)];
  }
};

// Assembles, applies constraints, factorizes (envelope LDL^T) and solves.
// Throws feio::Error on singular systems.
StaticSolution solve(const StaticProblem& problem);

// Same, under a RunOptions block: `threads` scopes the thread count for the
// parallel assembly stage, and the tracer/metrics sinks are installed for
// the duration of the call (spans fem.assemble, fem.factorize, fem.solve).
// When opts.factor_cache is set, the solve consults the factorized-
// stiffness LRU first (fem/factor_cache.h) under a key that includes
// opts.ordering, so differently-ordered factors never alias: a hit skips
// assembly and factorization entirely and a successful cold solve
// populates the cache. Output is byte-identical to the one-argument
// overload at any thread count, cached or cold.
StaticSolution solve(const StaticProblem& problem, const RunOptions& opts);

}  // namespace feio::fem

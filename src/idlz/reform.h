// Element reform: removing needle-like corners after shaping.
//
// The paper (Figures 9 and 10) notes that the convenient arbitrary element
// creation "often produces elements having shapes quite different from the
// most desirable equilateral shape", so IDLZ reforms elements where
// necessary after shaping. The reform is realized as local diagonal swaps:
// for each interior edge whose two triangles form a convex quadrilateral,
// the diagonal is flipped whenever that raises the smaller of the six
// interior angles. Iterated to a fixed point this is Lawson's min-angle
// flip, whose result is the locally optimal triangulation of the shaped
// node set.
#pragma once

#include "mesh/tri_mesh.h"

namespace feio::idlz {

struct ReformOptions {
  // Only flip when the min angle improves by more than this (radians);
  // guards against infinite alternation on symmetric quads.
  double improvement_tol = 1e-9;
  int max_passes = 50;
};

struct ReformReport {
  int flips = 0;
  int passes = 0;
  bool converged = true;
};

// Reforms elements in place. Element count and node positions are
// unchanged; only connectivity is rewritten. Requires CCW orientation
// (call mesh.orient_ccw() first; assemble()/shape() already do).
ReformReport reform(mesh::TriMesh& mesh, const ReformOptions& opts = {});

// Whether flipping the shared edge of elements e1, e2 would improve the
// local min angle; exposed for tests.
bool flip_improves(const mesh::TriMesh& mesh, int e1, int e2, double tol);

}  // namespace feio::idlz

// Coefficient-matrix bandwidth measures.
//
// The paper offers optional node renumbering because "the size of the
// coefficient matrix bandwidth ... is directly related to the numbering
// scheme". These helpers compute the quantities that scheme minimizes.
#pragma once

#include <vector>

#include "mesh/tri_mesh.h"

namespace feio::mesh {

// Maximum |i - j| over all element node pairs (the semi-bandwidth of the
// stiffness matrix in node terms, excluding the diagonal). Zero for meshes
// without elements.
int bandwidth(const TriMesh& mesh);

// lowest[i]: the smallest node index sharing an element with node i, or i
// itself when no lower-numbered node couples in — the row envelope of any
// one-value-per-node matrix assembled over the mesh.
std::vector<int> lowest_neighbours(const TriMesh& mesh);

// Sum over rows of the column height `i - lowest(i) + 1` — the diagonal is
// included, so this is the exact entry count of a skyline/envelope factor
// in node terms (the storage the fem skyline path allocates, times 2x2 dof
// blocks). Historically this sum excluded the diagonal and under-counted by
// num_nodes.
long profile(const TriMesh& mesh);

}  // namespace feio::mesh

// Derived mesh connectivity as one immutable CSR table: the undirected
// edges, edge -> element incidence, element -> edge ids, node adjacency,
// node -> element incidence and the boundary edges. Built once from a
// TriMesh by a single sort of the 3·E element edges (the sort-unique idiom
// of Long Chen's "Programming of FEM in MATLAB") and shared by boundary
// classification, validation, reform, renumbering, refinement, smoothing,
// OSPL and the plotters.
#pragma once

#include <span>
#include <vector>

#include "mesh/tri_mesh.h"

namespace feio::mesh {

// Undirected edge with a < b.
struct Edge {
  int a = -1;
  int b = -1;

  Edge() = default;
  Edge(int x, int y) : a(x < y ? x : y), b(x < y ? y : x) {}

  auto operator<=>(const Edge&) const = default;
};

class EdgeTable {
 public:
  // Requires every element to hold three distinct in-range node indices
  // (mesh::validate checks this before it builds a table).
  explicit EdgeTable(const TriMesh& mesh);

  int num_nodes() const { return static_cast<int>(nbr_off_.size()) - 1; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  // Edge ids number the edges used by the elements in (a, b) order.
  Edge edge(int id) const { return edges_[static_cast<size_t>(id)]; }

  // Id of `e`, or -1 when no element uses it.
  int find(Edge e) const;

  // Elements using edge `id`, ascending.
  std::span<const int> edge_elements(int id) const {
    return range(edge_elem_off_, edge_elem_, id);
  }
  bool is_boundary(int id) const { return edge_elements(id).size() == 1; }

  // Edge ids of element `e`: entry k is the edge (n[k], n[(k + 1) % 3]).
  std::span<const int, 3> element_edges(int e) const {
    return std::span<const int, 3>(elem_edges_.data() + 3 * static_cast<size_t>(e), 3);
  }

  // Nodes sharing an edge with `n`, ascending.
  std::span<const int> neighbors(int n) const {
    return range(nbr_off_, nbr_, n);
  }

  // Elements incident to node `n`, ascending.
  std::span<const int> elements_of(int n) const {
    return range(node_elem_off_, node_elem_, n);
  }

  // Ids of the edges used by exactly one element (the mesh boundary),
  // ascending — that is, in (a, b) order.
  const std::vector<int>& boundary_edges() const { return boundary_; }

  // Each node's BoundaryKind as TriMesh::classify_boundary defines it.
  const std::vector<BoundaryKind>& boundary_kinds() const { return kinds_; }

  // Boundary edges linked into closed loops; each loop is a list of node
  // indices in traversal order (first node not repeated at the end). Open
  // chains (non-manifold input) are returned as-is.
  std::vector<std::vector<int>> boundary_loops() const;

 private:
  static std::span<const int> range(const std::vector<int>& off,
                                    const std::vector<int>& items, int i) {
    const auto begin = static_cast<size_t>(off[static_cast<size_t>(i)]);
    const auto end = static_cast<size_t>(off[static_cast<size_t>(i) + 1]);
    return {items.data() + begin, end - begin};
  }

  std::vector<Edge> edges_;
  std::vector<int> edge_elem_off_, edge_elem_;
  std::vector<int> elem_edges_;
  std::vector<int> nbr_off_, nbr_;
  std::vector<int> node_elem_off_, node_elem_;
  std::vector<int> boundary_;
  std::vector<BoundaryKind> kinds_;
};

}  // namespace feio::mesh

#include "mesh/refine.h"

#include <numeric>

#include "mesh/edge_table.h"
#include "util/error.h"

namespace feio::mesh {

RefineResult refine_uniform(const TriMesh& mesh) {
  RefineResult out;
  out.mesh = TriMesh();
  for (const Node& n : mesh.nodes()) {
    out.mesh.add_node(n.pos, n.boundary);
  }

  // Midpoint node per edge id, created on first use (interpolated in that
  // use's direction), so midpoints are numbered in element order.
  const EdgeTable topo(mesh);
  std::vector<int> midpoint(static_cast<size_t>(topo.num_edges()), -1);
  auto mid = [&](int id, int a, int b) {
    int& m = midpoint[static_cast<size_t>(id)];
    if (m < 0) m = out.mesh.add_node(geom::lerp(mesh.pos(a), mesh.pos(b), 0.5));
    return m;
  };

  out.parent.reserve(static_cast<size_t>(mesh.num_elements()) * 4);
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const auto& n = mesh.element(e).n;
    const auto edges = topo.element_edges(e);
    const int m01 = mid(edges[0], n[0], n[1]);
    const int m12 = mid(edges[1], n[1], n[2]);
    const int m20 = mid(edges[2], n[2], n[0]);
    out.mesh.add_element(n[0], m01, m20);
    out.mesh.add_element(n[1], m12, m01);
    out.mesh.add_element(n[2], m20, m12);
    out.mesh.add_element(m01, m12, m20);  // the central child
    for (int k = 0; k < 4; ++k) out.parent.push_back(e);
  }
  out.mesh.orient_ccw();
  out.mesh.classify_boundary();
  return out;
}

RefineResult refine_uniform(const TriMesh& mesh, int levels) {
  FEIO_REQUIRE(levels >= 0, "refinement level must be non-negative");
  RefineResult out;
  out.mesh = mesh;
  out.parent.resize(static_cast<size_t>(mesh.num_elements()));
  std::iota(out.parent.begin(), out.parent.end(), 0);
  for (int l = 0; l < levels; ++l) {
    RefineResult next = refine_uniform(out.mesh);
    // Compose parentage back to the original mesh.
    for (int& p : next.parent) p = out.parent[static_cast<size_t>(p)];
    out = std::move(next);
  }
  return out;
}

}  // namespace feio::mesh

#include "mesh/edge_table.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "util/error.h"

namespace feio::mesh {
namespace {

// Offsets of a CSR whose row i holds count[i] items: off[i + 1] - off[i].
std::vector<int> offsets_from_counts(std::vector<int> count) {
  std::vector<int> off(count.size() + 1, 0);
  for (size_t i = 0; i < count.size(); ++i) off[i + 1] = off[i] + count[i];
  return off;
}

}  // namespace

EdgeTable::EdgeTable(const TriMesh& mesh) {
  const int nn = mesh.num_nodes();
  const int ne = mesh.num_elements();
  const auto slots = 3 * static_cast<size_t>(ne);

  // One key per element edge: the undirected edge packed as (a << 32 | b)
  // and the slot 3·e + k it came from. Sorting by (edge, slot) groups the
  // uses of each edge in (a, b) order with their elements ascending.
  struct Key {
    std::uint64_t ab;
    int slot;
  };
  std::vector<Key> keys(slots);
  for (int e = 0; e < ne; ++e) {
    const auto& n = mesh.element(e).n;
    FEIO_REQUIRE(n[0] >= 0 && n[0] < nn && n[1] >= 0 && n[1] < nn &&
                     n[2] >= 0 && n[2] < nn && n[0] != n[1] &&
                     n[1] != n[2] && n[0] != n[2],
                 "element " + std::to_string(e) +
                     " needs three distinct in-range nodes");
    for (int k = 0; k < 3; ++k) {
      const Edge ed(n[static_cast<size_t>(k)], n[static_cast<size_t>((k + 1) % 3)]);
      const int slot = 3 * e + k;
      keys[static_cast<size_t>(slot)] = {
          (static_cast<std::uint64_t>(ed.a) << 32) | static_cast<std::uint32_t>(ed.b),
          slot};
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
    return x.ab != y.ab ? x.ab < y.ab : x.slot < y.slot;
  });

  elem_edges_.resize(slots);
  edge_elem_.resize(slots);
  for (size_t i = 0; i < slots; ++i) {
    if (i == 0 || keys[i].ab != keys[i - 1].ab) {
      edges_.emplace_back(static_cast<int>(keys[i].ab >> 32),
                          static_cast<int>(keys[i].ab & 0xffffffffu));
      edge_elem_off_.push_back(static_cast<int>(i));
    }
    edge_elem_[i] = keys[i].slot / 3;
    elem_edges_[static_cast<size_t>(keys[i].slot)] = num_edges() - 1;
  }
  edge_elem_off_.push_back(static_cast<int>(slots));

  // Node adjacency. Walking the edges in (a, b) order appends to node n
  // first every x < n (edges (x, n), ascending x), then every y > n (edges
  // (n, y), ascending y), so each row comes out sorted.
  std::vector<int> count(static_cast<size_t>(nn), 0);
  for (const Edge& ed : edges_) {
    ++count[static_cast<size_t>(ed.a)];
    ++count[static_cast<size_t>(ed.b)];
  }
  nbr_off_ = offsets_from_counts(count);
  nbr_.resize(2 * edges_.size());
  std::vector<int> fill(nbr_off_.begin(), nbr_off_.end() - 1);
  for (const Edge& ed : edges_) {
    nbr_[static_cast<size_t>(fill[static_cast<size_t>(ed.a)]++)] = ed.b;
    nbr_[static_cast<size_t>(fill[static_cast<size_t>(ed.b)]++)] = ed.a;
  }

  // Node -> elements, filled in element order so each row is ascending.
  std::fill(count.begin(), count.end(), 0);
  for (const Element& el : mesh.elements()) {
    for (int n : el.n) ++count[static_cast<size_t>(n)];
  }
  node_elem_off_ = offsets_from_counts(std::move(count));
  node_elem_.resize(slots);
  fill.assign(node_elem_off_.begin(), node_elem_off_.end() - 1);
  for (int e = 0; e < ne; ++e) {
    for (int n : mesh.element(e).n) {
      node_elem_[static_cast<size_t>(fill[static_cast<size_t>(n)]++)] = e;
    }
  }

  // Boundary edges and node kinds: a node is on the boundary iff it lies
  // on an edge used by exactly one element, and kBoundarySingle iff it
  // also belongs to exactly one element.
  kinds_.assign(static_cast<size_t>(nn), BoundaryKind::kInterior);
  for (int id = 0; id < num_edges(); ++id) {
    if (!is_boundary(id)) continue;
    boundary_.push_back(id);
    kinds_[static_cast<size_t>(edges_[static_cast<size_t>(id)].a)] =
        BoundaryKind::kBoundaryShared;
    kinds_[static_cast<size_t>(edges_[static_cast<size_t>(id)].b)] =
        BoundaryKind::kBoundaryShared;
  }
  for (int n = 0; n < nn; ++n) {
    if (kinds_[static_cast<size_t>(n)] != BoundaryKind::kInterior &&
        elements_of(n).size() == 1) {
      kinds_[static_cast<size_t>(n)] = BoundaryKind::kBoundarySingle;
    }
  }
}

int EdgeTable::find(Edge e) const {
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), e);
  if (it == edges_.end() || *it != e) return -1;
  return static_cast<int>(it - edges_.begin());
}

std::vector<std::vector<int>> EdgeTable::boundary_loops() const {
  // Adjacency restricted to boundary edges: (neighbour, boundary index)
  // per node, in (a, b) edge order — the order the walk tries them.
  const size_t nb = boundary_.size();
  std::vector<int> count(static_cast<size_t>(num_nodes()), 0);
  for (int id : boundary_) {
    ++count[static_cast<size_t>(edge(id).a)];
    ++count[static_cast<size_t>(edge(id).b)];
  }
  const std::vector<int> off = offsets_from_counts(std::move(count));
  std::vector<std::pair<int, int>> adj(2 * nb);
  std::vector<int> fill(off.begin(), off.end() - 1);
  for (size_t i = 0; i < nb; ++i) {
    const Edge ed = edge(boundary_[i]);
    adj[static_cast<size_t>(fill[static_cast<size_t>(ed.a)]++)] = {ed.b, static_cast<int>(i)};
    adj[static_cast<size_t>(fill[static_cast<size_t>(ed.b)]++)] = {ed.a, static_cast<int>(i)};
  }

  std::vector<char> used(nb, 0);
  std::vector<std::vector<int>> loops;
  for (size_t first = 0; first < nb; ++first) {
    if (used[first]) continue;
    used[first] = 1;
    const Edge start = edge(boundary_[first]);
    std::vector<int> loop{start.a, start.b};
    int cur = start.b;
    while (true) {
      // Leave `cur` by its first unused boundary edge (the edge just
      // walked is already used).
      int next = -1;
      const auto row_begin = static_cast<size_t>(off[static_cast<size_t>(cur)]);
      const auto row_end = static_cast<size_t>(off[static_cast<size_t>(cur) + 1]);
      for (size_t j = row_begin; j < row_end; ++j) {
        const auto [cand, bi] = adj[j];
        if (used[static_cast<size_t>(bi)]) continue;
        used[static_cast<size_t>(bi)] = 1;
        next = cand;
        break;
      }
      if (next < 0) break;  // open chain or finished loop
      if (next == loop.front()) break;  // closed; do not repeat the first node
      loop.push_back(next);
      cur = next;
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

}  // namespace feio::mesh

#include "idlz/renumber.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "mesh/bandwidth.h"
#include "mesh/edge_table.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

// BFS from `start`; returns level of each node (-1 when unreached) and the
// index of a deepest node. `adj(n)` yields n's neighbours.
template <class Adjacency>
std::vector<int> bfs_levels(const Adjacency& adj, int num_nodes, int start,
                            int& deepest) {
  std::vector<int> level(static_cast<size_t>(num_nodes), -1);
  std::deque<int> queue{start};
  level[static_cast<size_t>(start)] = 0;
  deepest = start;
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int nb : adj(n)) {
      if (level[static_cast<size_t>(nb)] < 0) {
        level[static_cast<size_t>(nb)] = level[static_cast<size_t>(n)] + 1;
        if (level[static_cast<size_t>(nb)] > level[static_cast<size_t>(deepest)]) {
          deepest = nb;
        }
        queue.push_back(nb);
      }
    }
  }
  return level;
}

template <class Adjacency>
int peripheral_node(const Adjacency& adj, int num_nodes, int seed) {
  // George–Liu repeated BFS. Each round roots a level structure at
  // `candidate`; while the eccentricity keeps growing, the minimum-degree
  // node of the deepest level becomes the next candidate (the "shrinking
  // strategy" — low degree keeps the next level structure narrow). We
  // return the deepest-level pick of the last structure that grew, whose
  // eccentricity the following round verified. The pre-fix code returned
  // the raw BFS frontier node instead: frontier discovery order is
  // adjacency-list order, so it could land on a high-degree node of the
  // deepest level and seed Cuthill–McKee from a non-peripheral corner.
  int best = seed;
  int depth = -1;
  int candidate = seed;
  for (int iter = 0; iter < 16; ++iter) {
    int far = candidate;
    const std::vector<int> level = bfs_levels(adj, num_nodes, candidate, far);
    const int ecc = level[static_cast<size_t>(far)];
    if (ecc <= depth) break;
    depth = ecc;
    int pick = far;
    for (int v = 0; v < num_nodes; ++v) {
      if (level[static_cast<size_t>(v)] != ecc) continue;
      const size_t dv = adj(v).size();
      const size_t dp = adj(pick).size();
      if (dv < dp || (dv == dp && v < pick)) pick = v;
    }
    best = pick;
    candidate = pick;
  }
  return best;
}

// Cuthill–McKee order (order[new] = old) of the table's node graph;
// disconnected components follow one another. Reverse Cuthill–McKee is the
// same order reversed.
std::vector<int> cuthill_mckee_order(const mesh::EdgeTable& topo) {
  const int n = topo.num_nodes();
  auto adj = [&](int i) { return topo.neighbors(i); };
  auto degree = [&](int i) { return static_cast<int>(adj(i).size()); };

  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  std::vector<char> visited(static_cast<size_t>(n), 0);
  std::vector<int> nbrs;
  for (int seed = 0; seed < n; ++seed) {
    if (visited[static_cast<size_t>(seed)]) continue;
    const int start = adj(seed).empty() ? seed : peripheral_node(adj, n, seed);

    // The order vector doubles as the BFS queue.
    size_t head = order.size();
    order.push_back(start);
    visited[static_cast<size_t>(start)] = 1;
    for (; head < order.size(); ++head) {
      nbrs.clear();
      for (int nb : adj(order[head])) {
        if (!visited[static_cast<size_t>(nb)]) nbrs.push_back(nb);
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](int a, int b) {
        const int da = degree(a);
        const int db = degree(b);
        return da != db ? da < db : a < b;
      });
      for (int nb : nbrs) {
        visited[static_cast<size_t>(nb)] = 1;
        order.push_back(nb);
      }
    }
  }
  FEIO_ASSERT(static_cast<int>(order.size()) == n);
  return order;
}

// The bandwidth and profile (mesh::bandwidth, mesh::profile) the mesh
// would have after renumber_nodes(perm), without applying it.
void score(const mesh::TriMesh& mesh, const std::vector<int>& perm,
           int& bandwidth, long& profile) {
  std::vector<int> lowest(perm.size());
  std::iota(lowest.begin(), lowest.end(), 0);
  bandwidth = 0;
  for (const mesh::Element& el : mesh.elements()) {
    const int p0 = perm[static_cast<size_t>(el.n[0])];
    const int p1 = perm[static_cast<size_t>(el.n[1])];
    const int p2 = perm[static_cast<size_t>(el.n[2])];
    const int lo = std::min({p0, p1, p2});
    bandwidth = std::max(bandwidth, std::max({p0, p1, p2}) - lo);
    for (int p : {p0, p1, p2}) {
      lowest[static_cast<size_t>(p)] = std::min(lowest[static_cast<size_t>(p)], lo);
    }
  }
  profile = 0;
  for (size_t i = 0; i < lowest.size(); ++i) {
    profile += static_cast<long>(i) - lowest[i] + 1;
  }
}

// perm[order[new]] = new.
std::vector<int> permutation_of(const std::vector<int>& order) {
  std::vector<int> perm(order.size());
  for (size_t nu = 0; nu < order.size(); ++nu) {
    perm[static_cast<size_t>(order[nu])] = static_cast<int>(nu);
  }
  return perm;
}

}  // namespace

int pseudo_peripheral_node(const std::vector<std::vector<int>>& adjacency,
                           int seed) {
  return peripheral_node(
      [&](int i) -> const std::vector<int>& {
        return adjacency[static_cast<size_t>(i)];
      },
      static_cast<int>(adjacency.size()), seed);
}

std::vector<int> cuthill_mckee_permutation(const mesh::TriMesh& mesh,
                                           bool reverse) {
  std::vector<int> order = cuthill_mckee_order(mesh::EdgeTable(mesh));
  if (reverse) std::reverse(order.begin(), order.end());
  return permutation_of(order);
}

RenumberReport renumber(mesh::TriMesh& mesh, NumberingScheme scheme) {
  RenumberReport report;
  report.bandwidth_before = mesh::bandwidth(mesh);
  report.profile_before = mesh::profile(mesh);
  report.bandwidth_after = report.bandwidth_before;
  report.profile_after = report.profile_before;
  if (mesh.num_nodes() == 0) return report;

  struct Candidate {
    NumberingScheme scheme;
    std::vector<int> perm;
    int bandwidth = 0;
    long profile = 0;
  };
  std::vector<Candidate> candidates;
  auto add_candidate = [&](NumberingScheme s, std::vector<int> perm) {
    Candidate c{s, std::move(perm)};
    score(mesh, c.perm, c.bandwidth, c.profile);
    candidates.push_back(std::move(c));
  };

  // One Cuthill–McKee BFS serves both candidates: RCM is its reverse.
  std::vector<int> order = cuthill_mckee_order(mesh::EdgeTable(mesh));
  if (scheme != NumberingScheme::kReverseCuthillMcKee) {
    add_candidate(NumberingScheme::kCuthillMcKee, permutation_of(order));
  }
  if (scheme != NumberingScheme::kCuthillMcKee) {
    std::reverse(order.begin(), order.end());
    add_candidate(NumberingScheme::kReverseCuthillMcKee, permutation_of(order));
  }

  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    if (best == nullptr || c.bandwidth < best->bandwidth ||
        (c.bandwidth == best->bandwidth && c.profile < best->profile)) {
      best = &c;
    }
  }
  FEIO_ASSERT(best != nullptr);

  const bool improves =
      best->bandwidth < report.bandwidth_before ||
      (best->bandwidth == report.bandwidth_before &&
       best->profile < report.profile_before);
  if (improves) {
    mesh.renumber_nodes(best->perm);
    report.bandwidth_after = best->bandwidth;
    report.profile_after = best->profile;
    report.used = best->scheme;
    report.applied = true;
    report.permutation = best->perm;
  }
  return report;
}

}  // namespace feio::idlz

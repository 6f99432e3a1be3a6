// mesh::EdgeTable and its consumers. The consumers used to build their own
// node-keyed std::map/std::set edge sets; test-only copies of those
// map-based versions of reform, validate and classify_boundary are kept
// here as references, and the table-based code must agree with them exactly
// on every gallery idealization and on malformed meshes.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geom/vec2.h"
#include "idlz/idlz.h"
#include "idlz/reform.h"
#include "idlz/renumber.h"
#include "mesh/edge_table.h"
#include "mesh/tri_mesh.h"
#include "mesh/validate.h"
#include "scenarios/scenarios.h"
#include "util/error.h"

namespace feio::mesh {
namespace {

// ---- Map-based references ---------------------------------------------

void reference_classify_boundary(TriMesh& mesh) {
  std::map<std::pair<int, int>, int> edge_count;
  std::vector<int> elems_per_node(static_cast<size_t>(mesh.num_nodes()), 0);
  for (const Element& el : mesh.elements()) {
    for (int k = 0; k < 3; ++k) {
      int a = el.n[static_cast<size_t>(k)];
      int b = el.n[static_cast<size_t>((k + 1) % 3)];
      ++elems_per_node[static_cast<size_t>(a)];
      if (a > b) std::swap(a, b);
      ++edge_count[{a, b}];
    }
  }
  std::vector<bool> on_boundary(static_cast<size_t>(mesh.num_nodes()), false);
  for (const auto& [edge, count] : edge_count) {
    if (count == 1) {
      on_boundary[static_cast<size_t>(edge.first)] = true;
      on_boundary[static_cast<size_t>(edge.second)] = true;
    }
  }
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    Node& node = mesh.node(i);
    if (!on_boundary[static_cast<size_t>(i)]) {
      node.boundary = BoundaryKind::kInterior;
    } else if (elems_per_node[static_cast<size_t>(i)] == 1) {
      node.boundary = BoundaryKind::kBoundarySingle;
    } else {
      node.boundary = BoundaryKind::kBoundaryShared;
    }
  }
}

void add_error(ValidationReport& rep, const char* code, std::string msg) {
  rep.diags.push_back({Severity::kError, code, std::move(msg), {}});
}
void add_warning(ValidationReport& rep, const char* code, std::string msg) {
  rep.diags.push_back({Severity::kWarning, code, std::move(msg), {}});
}

ValidationReport reference_validate(const TriMesh& mesh) {
  ValidationReport rep;
  std::set<std::array<int, 3>> seen;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    const Element& el = mesh.element(e);
    const std::string name = "element " + std::to_string(e);
    bool in_range = true;
    for (int n : el.n) {
      if (n < 0 || n >= mesh.num_nodes()) {
        add_error(rep, "E-MESH-001", name + ": node index out of range");
        in_range = false;
      }
    }
    if (!in_range) continue;
    if (el.n[0] == el.n[1] || el.n[1] == el.n[2] || el.n[0] == el.n[2]) {
      add_error(rep, "E-MESH-002", name + ": repeated node index");
      continue;
    }
    std::array<int, 3> key = el.n;
    std::sort(key.begin(), key.end());
    if (!seen.insert(key).second) {
      add_error(rep, "E-MESH-003", name + ": duplicate of an earlier element");
    }
    const double area = mesh.signed_area(e);
    if (area == 0.0) {
      add_error(rep, "E-MESH-004", name + ": zero area");
    } else if (area < 0.0) {
      add_warning(rep, "W-MESH-005", name + ": clockwise orientation");
    }
  }
  if (!rep.ok()) return rep;

  std::map<Edge, int> edge_count;
  std::vector<std::set<int>> adjacency(static_cast<size_t>(mesh.num_nodes()));
  std::vector<int> elements_of(static_cast<size_t>(mesh.num_nodes()), 0);
  for (const Element& el : mesh.elements()) {
    for (int k = 0; k < 3; ++k) {
      const int a = el.n[static_cast<size_t>(k)];
      const int b = el.n[static_cast<size_t>((k + 1) % 3)];
      ++edge_count[Edge(a, b)];
      adjacency[static_cast<size_t>(a)].insert(b);
      adjacency[static_cast<size_t>(b)].insert(a);
      ++elements_of[static_cast<size_t>(a)];
    }
  }
  for (const auto& [edge, count] : edge_count) {
    if (count > 2) {
      add_error(rep, "E-MESH-006",
                "edge (" + std::to_string(edge.a) + "," +
                    std::to_string(edge.b) + ") shared by " +
                    std::to_string(count) + " elements");
    }
  }
  TriMesh copy = mesh;
  reference_classify_boundary(copy);
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    if (mesh.node(i).boundary != copy.node(i).boundary) {
      add_warning(rep, "W-MESH-007",
                  "node " + std::to_string(i) +
                      ": boundary flag inconsistent with topology");
    }
  }
  for (int i = 0; i < mesh.num_nodes(); ++i) {
    if (elements_of[static_cast<size_t>(i)] == 0) {
      add_warning(rep, "W-MESH-008",
                  "node " + std::to_string(i) + " belongs to no element");
    }
  }
  if (mesh.num_nodes() > 0) {
    std::vector<bool> visited(static_cast<size_t>(mesh.num_nodes()), false);
    int start = 0;
    while (start < mesh.num_nodes() &&
           elements_of[static_cast<size_t>(start)] == 0) {
      ++start;
    }
    if (start < mesh.num_nodes()) {
      std::vector<int> stack{start};
      visited[static_cast<size_t>(start)] = true;
      while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        for (int nb : adjacency[static_cast<size_t>(n)]) {
          if (!visited[static_cast<size_t>(nb)]) {
            visited[static_cast<size_t>(nb)] = true;
            stack.push_back(nb);
          }
        }
      }
      for (int i = 0; i < mesh.num_nodes(); ++i) {
        if (!visited[static_cast<size_t>(i)] &&
            elements_of[static_cast<size_t>(i)] > 0) {
          add_warning(rep, "W-MESH-009",
                      "mesh has more than one connected component");
          break;
        }
      }
    }
  }
  return rep;
}

// The reform loop as it was before the table and the verdict memo: a fresh
// edge map per pass, every interior edge re-tested on every pass.
idlz::ReformReport reference_reform(TriMesh& mesh,
                                    const idlz::ReformOptions& opts = {}) {
  idlz::ReformReport report;
  for (int pass = 0; pass < opts.max_passes; ++pass) {
    ++report.passes;
    int flips_this_pass = 0;
    std::map<Edge, std::vector<int>> edge_elems;
    for (int e = 0; e < mesh.num_elements(); ++e) {
      const auto& n = mesh.element(e).n;
      for (int k = 0; k < 3; ++k) {
        edge_elems[Edge(n[static_cast<size_t>(k)],
                        n[static_cast<size_t>((k + 1) % 3)])]
            .push_back(e);
      }
    }
    std::vector<char> touched(static_cast<size_t>(mesh.num_elements()), 0);
    for (const auto& [edge, elems] : edge_elems) {
      if (elems.size() != 2) continue;
      const int e1 = elems[0];
      const int e2 = elems[1];
      if (touched[static_cast<size_t>(e1)] || touched[static_cast<size_t>(e2)]) {
        continue;
      }
      if (!idlz::flip_improves(mesh, e1, e2, opts.improvement_tol)) continue;
      // The quad's private corners p1 (of e1) and p2 (of e2).
      int p1 = -1;
      int p2 = -1;
      for (int n : mesh.element(e1).n) {
        if (n != edge.a && n != edge.b) p1 = n;
      }
      for (int n : mesh.element(e2).n) {
        if (n != edge.a && n != edge.b) p2 = n;
      }
      // flip_improves orders the shared pair as e1 lists it.
      int s1 = -1;
      int s2 = -1;
      for (int n : mesh.element(e1).n) {
        if (n == edge.a || n == edge.b) (s1 < 0 ? s1 : s2) = n;
      }
      mesh.element(e1).n = {p1, p2, s1};
      mesh.element(e2).n = {p1, p2, s2};
      touched[static_cast<size_t>(e1)] = 1;
      touched[static_cast<size_t>(e2)] = 1;
      ++flips_this_pass;
    }
    report.flips += flips_this_pass;
    if (flips_this_pass == 0) {
      mesh.orient_ccw();
      return report;
    }
  }
  report.converged = false;
  mesh.orient_ccw();
  return report;
}

// ---- Fixtures ---------------------------------------------------------

// n x n grid of unit squares, each split along its rising diagonal.
TriMesh grid_mesh(int n) {
  TriMesh m;
  for (int j = 0; j <= n; ++j) {
    for (int i = 0; i <= n; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  auto id = [n](int i, int j) { return j * (n + 1) + i; };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  m.classify_boundary();
  return m;
}

// A 3x3 grid with the centre square's two triangles removed: an annulus.
TriMesh annulus_mesh() {
  const TriMesh g = grid_mesh(3);
  TriMesh m;
  for (const Node& n : g.nodes()) m.add_node(n.pos);
  for (int e = 0; e < g.num_elements(); ++e) {
    if (e == 8 || e == 9) continue;  // square (1, 1)
    const Element& el = g.element(e);
    m.add_element(el.n[0], el.n[1], el.n[2]);
  }
  m.classify_boundary();
  return m;
}

std::vector<std::string> codes(const ValidationReport& rep) {
  std::vector<std::string> out;
  for (const Diag& d : rep.diags) out.push_back(d.code);
  return out;
}

void expect_same_mesh(const TriMesh& got, const TriMesh& want,
                      const std::string& where) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << where;
  ASSERT_EQ(got.num_elements(), want.num_elements()) << where;
  for (int i = 0; i < got.num_nodes(); ++i) {
    EXPECT_EQ(got.pos(i), want.pos(i)) << where << " node " << i;
    EXPECT_EQ(got.node(i).boundary, want.node(i).boundary)
        << where << " node " << i;
  }
  EXPECT_EQ(got.elements(), want.elements()) << where;
}

// ---- EdgeTable --------------------------------------------------------

TEST(EdgeTableTest, EdgesSortedAndElementEdgesConsistent) {
  const TriMesh m = grid_mesh(4);
  const EdgeTable t(m);
  for (int id = 1; id < t.num_edges(); ++id) {
    EXPECT_LT(t.edge(id - 1), t.edge(id));
  }
  for (int e = 0; e < m.num_elements(); ++e) {
    const auto& n = m.element(e).n;
    for (int k = 0; k < 3; ++k) {
      const int id = t.element_edges(e)[static_cast<size_t>(k)];
      EXPECT_EQ(t.edge(id), Edge(n[static_cast<size_t>(k)],
                                 n[static_cast<size_t>((k + 1) % 3)]));
      EXPECT_EQ(t.find(t.edge(id)), id);
      const auto elems = t.edge_elements(id);
      EXPECT_TRUE(std::is_sorted(elems.begin(), elems.end()));
      EXPECT_NE(std::find(elems.begin(), elems.end(), e), elems.end());
    }
  }
  for (int n = 0; n < t.num_nodes(); ++n) {
    const auto nbrs = t.neighbors(n);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
  // Boundary ids ascending: the (a, b) order a std::map would visit.
  EXPECT_TRUE(std::is_sorted(t.boundary_edges().begin(),
                             t.boundary_edges().end()));
}

TEST(EdgeTableTest, FindAbsentEdge) {
  const TriMesh m = grid_mesh(2);
  const EdgeTable t(m);
  EXPECT_GE(t.find(Edge(0, 4)), 0);    // a diagonal
  EXPECT_EQ(t.find(Edge(1, 3)), -1);   // across the wrong diagonal
  EXPECT_EQ(t.find(Edge(0, 8)), -1);   // far corners
  EXPECT_EQ(t.find(Edge(7, 8)), t.num_edges() - 1);  // the last edge
  EXPECT_EQ(EdgeTable(TriMesh()).find(Edge(0, 1)), -1);
}

TEST(EdgeTableTest, EdgeCountFollowsEulerOnADisk) {
  for (int n : {1, 2, 5, 9}) {
    const TriMesh m = grid_mesh(n);
    const EdgeTable t(m);
    // V - E + F = 1 for a disk.
    EXPECT_EQ(t.num_edges(), m.num_nodes() + m.num_elements() - 1) << n;
    EXPECT_EQ(t.boundary_edges().size(), static_cast<size_t>(4 * n)) << n;
  }
}

TEST(EdgeTableTest, AnnulusHasTwoBoundaryLoops) {
  const EdgeTable t(annulus_mesh());
  const auto loops = t.boundary_loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].size(), 12u);  // outer perimeter
  EXPECT_EQ(loops[1].size(), 4u);   // the hole
}

TEST(EdgeTableTest, KirschBoundaryLoopCoversEveryBoundaryEdge) {
  // The quarter plate with a hole is simply connected: one loop that runs
  // along the hole's arc and the plate's outer sides.
  const idlz::IdlzResult r = idlz::run(scenarios::kirsch_plate());
  const EdgeTable t(r.mesh);
  const auto loops = t.boundary_loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].size(), t.boundary_edges().size());
  for (size_t i = 0; i < loops[0].size(); ++i) {
    const int id = t.find(Edge(loops[0][i], loops[0][(i + 1) % loops[0].size()]));
    ASSERT_GE(id, 0);
    EXPECT_TRUE(t.is_boundary(id));
  }
}

TEST(EdgeTableTest, RejectsElementsWithBadIndices) {
  TriMesh m = grid_mesh(1);
  m.element(0).n[2] = 9;
  EXPECT_THROW((EdgeTable(m)), Error);
  m.element(0).n = {1, 1, 2};
  EXPECT_THROW((EdgeTable(m)), Error);
}

// ---- Consumers against the references ---------------------------------

TEST(EdgeTableReferenceTest, GalleryMatchesMapBasedPipeline) {
  const idlz::NumberingScheme schemes[] = {
      idlz::NumberingScheme::kCuthillMcKee,
      idlz::NumberingScheme::kReverseCuthillMcKee,
      idlz::NumberingScheme::kHilbert, idlz::NumberingScheme::kBest};
  int flipped_cases = 0;
  for (const scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    for (bool renumber : {false, true}) {
      for (idlz::NumberingScheme scheme : schemes) {
        idlz::IdlzCase c = nc.c;
        c.options.renumber_nodes = renumber;
        c.options.scheme = scheme;
        const std::string where = nc.id + " renumber=" +
                                  std::to_string(renumber) + " scheme=" +
                                  std::to_string(static_cast<int>(scheme));
        const idlz::IdlzResult r = idlz::run(c);

        // Shaping leaves assemble()'s flags standing.
        TriMesh shaped = r.before_reform;
        reference_classify_boundary(shaped);
        expect_same_mesh(r.before_reform, shaped, where + " shaped");

        TriMesh want = r.before_reform;
        if (c.options.reform_elements) {
          const idlz::ReformReport ref = reference_reform(want);
          EXPECT_EQ(r.reform.flips, ref.flips) << where;
          EXPECT_EQ(r.reform.passes, ref.passes) << where;
          EXPECT_EQ(r.reform.converged, ref.converged) << where;
          if (ref.flips > 0) ++flipped_cases;
        }
        if (renumber) idlz::renumber(want, scheme);
        reference_classify_boundary(want);
        expect_same_mesh(r.mesh, want, where);

        EXPECT_EQ(validate(r.mesh).to_strings(),
                  reference_validate(r.mesh).to_strings())
            << where;
      }
    }
  }
  EXPECT_GT(flipped_cases, 0);  // the sweep exercises real flips
}

TEST(EdgeTableReferenceTest, ReformMatchesOnAMultiPassMesh) {
  // Kirsch needs several passes, so verdicts carried across passes count.
  const idlz::IdlzResult r = idlz::run(scenarios::kirsch_plate());
  TriMesh got = r.before_reform;
  TriMesh want = r.before_reform;
  const idlz::ReformReport a = idlz::reform(got);
  const idlz::ReformReport b = reference_reform(want);
  EXPECT_GT(b.passes, 2);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(got.elements(), want.elements());
}

TEST(EdgeTableReferenceTest, ClassifyBoundaryMatchesOnGalleryAndAnnulus) {
  std::vector<TriMesh> meshes{annulus_mesh(), grid_mesh(3)};
  for (const scenarios::NamedCase& nc : scenarios::all_idealizations()) {
    meshes.push_back(idlz::run(nc.c).initial);
  }
  for (TriMesh& m : meshes) {
    TriMesh want = m;
    reference_classify_boundary(want);
    m.classify_boundary();
    expect_same_mesh(m, want, "classify");
  }
}

struct Malformed {
  const char* name;
  TriMesh mesh;
  std::vector<std::string> codes;  // expected, in order
};

std::vector<Malformed> malformed_meshes() {
  std::vector<Malformed> out;
  {
    TriMesh m = grid_mesh(2);
    m.add_element(m.element(3).n[1], m.element(3).n[2], m.element(3).n[0]);
    out.push_back({"duplicate element", m, {"E-MESH-003"}});
  }
  {
    TriMesh m = grid_mesh(1);  // nodes 0..3, diagonal (0, 3)
    const int apex = m.add_node({2.0, 0.5});
    m.add_element(0, apex, 3);
    m.classify_boundary();
    out.push_back({"three-element edge", m, {"E-MESH-006"}});
  }
  {
    TriMesh m = grid_mesh(2);
    m.add_node({9.0, 9.0});
    out.push_back({"isolated node", m, {"W-MESH-008"}});
  }
  {
    TriMesh m = grid_mesh(2);
    m.node(4).boundary = BoundaryKind::kBoundaryShared;
    m.node(0).boundary = BoundaryKind::kInterior;
    out.push_back({"wrong flags", m, {"W-MESH-007", "W-MESH-007"}});
  }
  {
    TriMesh m = grid_mesh(1);
    const int base = m.num_nodes();
    m.add_node({5, 5});
    m.add_node({6, 5});
    m.add_node({5, 6});
    m.add_element(base, base + 1, base + 2);
    m.classify_boundary();
    out.push_back({"two components", m, {"W-MESH-009"}});
  }
  {
    TriMesh m = grid_mesh(2);
    m.element(2).n[1] = 42;
    m.element(5).n[0] = -1;
    m.add_element(0, 1, 4);  // a duplicate still reported beside them
    out.push_back({"out-of-range index", m,
                   {"E-MESH-001", "E-MESH-001", "E-MESH-003"}});
  }
  return out;
}

TEST(EdgeTableReferenceTest, MalformedMeshesGiveTheSameDiagnostics) {
  for (const Malformed& c : malformed_meshes()) {
    const ValidationReport got = validate(c.mesh);
    const ValidationReport want = reference_validate(c.mesh);
    EXPECT_EQ(codes(want), c.codes) << c.name;
    EXPECT_EQ(got.to_strings(), want.to_strings()) << c.name;
  }
}

TEST(EdgeTableReferenceTest, DuplicateElementsFlagsLaterCopies) {
  TriMesh m = grid_mesh(1);
  m.add_element(1, 3, 0);  // element 0 again, rotated
  m.add_element(0, 3, 2);  // element 1 again
  m.add_element(0, 1, 3);  // element 0 a third time
  EXPECT_EQ(duplicate_elements(m), (std::vector<char>{0, 0, 1, 1, 1}));
}

}  // namespace
}  // namespace feio::mesh

#include <set>

#include <gtest/gtest.h>

#include "idlz/assembler.h"
#include "mesh/edge_table.h"
#include "mesh/validate.h"
#include "util/error.h"

namespace feio::idlz {
namespace {

Subdivision make(int id, int k1, int l1, int k2, int l2, int ntaprw = 0,
                 int ntapcm = 0) {
  Subdivision s;
  s.id = id;
  s.k1 = k1;
  s.l1 = l1;
  s.k2 = k2;
  s.l2 = l2;
  s.ntaprw = ntaprw;
  s.ntapcm = ntapcm;
  return s;
}

TEST(AssembleTest, SingleRectangleCounts) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3)});
  EXPECT_EQ(a.mesh.num_nodes(), 12);
  EXPECT_EQ(a.mesh.num_elements(), 2 * 3 * 2);  // 3x2 cells, 2 triangles each
  EXPECT_TRUE(mesh::validate(a.mesh).ok());
}

TEST(AssembleTest, NodesNumberedLeftToRightBottomToTop) {
  const Assembly a = assemble({make(1, 1, 1, 3, 2)});
  // Within the subdivision: (1,1) -> 0, (2,1) -> 1, (3,1) -> 2, (1,2) -> 3...
  EXPECT_EQ(a.node_at.at(GridPoint{1, 1}), 0);
  EXPECT_EQ(a.node_at.at(GridPoint{3, 1}), 2);
  EXPECT_EQ(a.node_at.at(GridPoint{1, 2}), 3);
  EXPECT_EQ(a.grid_of[0], (GridPoint{1, 1}));
}

TEST(AssembleTest, InitialPositionsAreIntegerCoordinates) {
  const Assembly a = assemble({make(1, 2, 3, 4, 5)});
  const int n = a.node_at.at(GridPoint{3, 4});
  EXPECT_EQ(a.mesh.pos(n), (geom::Vec2{3.0, 4.0}));
}

TEST(AssembleTest, AdjacentSubdivisionsShareNodes) {
  // Two rectangles sharing the row l = 3.
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  EXPECT_EQ(a.mesh.num_nodes(), 12 + 12 - 4);
  EXPECT_TRUE(mesh::validate(a.mesh).ok());
  // The shared grid point resolves to one node id in both subdivisions.
  const int shared = a.node_at.at(GridPoint{2, 3});
  int hits = 0;
  for (int n : a.subdivision_nodes[0]) {
    if (n == shared) ++hits;
  }
  for (int n : a.subdivision_nodes[1]) {
    if (n == shared) ++hits;
  }
  EXPECT_EQ(hits, 2);
}

TEST(AssembleTest, SharedBoundaryIsConforming) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  // No non-manifold edges and exactly one boundary loop.
  const mesh::EdgeTable topo(a.mesh);
  EXPECT_EQ(topo.boundary_loops().size(), 1u);
}

TEST(AssembleTest, RowTrapezoidElementCount) {
  // Widths 1,3,5,7,9: strips contribute (w_lo + w_hi - 2) triangles each.
  const Assembly a = assemble({make(1, 1, 1, 9, 5, +1)});
  EXPECT_EQ(a.mesh.num_nodes(), 25);
  EXPECT_EQ(a.mesh.num_elements(), 2 + 6 + 10 + 14);
  EXPECT_TRUE(mesh::validate(a.mesh).ok());
}

TEST(AssembleTest, ColTrapezoidElementCount) {
  const Assembly a = assemble({make(1, 1, 1, 3, 9, 0, -2)});  // 9,5,1
  EXPECT_EQ(a.mesh.num_nodes(), 15);
  EXPECT_EQ(a.mesh.num_elements(), (9 + 5 - 2) + (5 + 1 - 2));
  EXPECT_TRUE(mesh::validate(a.mesh).ok());
}

TEST(AssembleTest, AllElementsCcw) {
  const Assembly a = assemble({make(1, 1, 1, 9, 5, +1), make(2, 1, 5, 9, 7)});
  for (int e = 0; e < a.mesh.num_elements(); ++e) {
    EXPECT_GT(a.mesh.signed_area(e), 0.0);
  }
}

TEST(AssembleTest, BoundaryFlagsClassified) {
  const Assembly a = assemble({make(1, 1, 1, 4, 4)});
  const int corner = a.node_at.at(GridPoint{1, 1});
  const int mid = a.node_at.at(GridPoint{2, 2});
  EXPECT_NE(a.mesh.node(corner).boundary, mesh::BoundaryKind::kInterior);
  EXPECT_EQ(a.mesh.node(mid).boundary, mesh::BoundaryKind::kInterior);
}

TEST(AssembleTest, SubdivisionElementOwnership) {
  const Assembly a = assemble({make(1, 1, 1, 4, 3), make(2, 1, 3, 4, 5)});
  EXPECT_EQ(a.subdivision_elements[0].size(), 12u);
  EXPECT_EQ(a.subdivision_elements[1].size(), 12u);
  // Ownership is a partition of all elements.
  std::set<int> all;
  for (const auto& v : a.subdivision_elements) all.insert(v.begin(), v.end());
  EXPECT_EQ(static_cast<int>(all.size()), a.mesh.num_elements());
}

// ---- Table 2 restrictions ------------------------------------------------

TEST(LimitsTest, RejectsTooManySubdivisions) {
  std::vector<Subdivision> subs;
  for (int i = 0; i < 51; ++i) subs.push_back(make(i + 1, 1, 1, 2, 2));
  EXPECT_THROW(assemble(subs), Error);
}

TEST(LimitsTest, RejectsGridOverflow) {
  EXPECT_THROW(assemble({make(1, 1, 1, 41, 5)}), Error);   // K > 40
  EXPECT_THROW(assemble({make(1, 1, 1, 5, 61)}), Error);   // L > 60
  EXPECT_NO_THROW(assemble({make(1, 1, 1, 40, 60)},
                           Limits::unlimited()));  // node count too big for
                                                   // paper limits, fine here
}

TEST(LimitsTest, RejectsTooManyNodes) {
  // 21 x 25 grid = 525 nodes > 500.
  EXPECT_THROW(assemble({make(1, 1, 1, 21, 25)}), Error);
  EXPECT_NO_THROW(assemble({make(1, 1, 1, 21, 25)}, Limits::unlimited()));
}

TEST(LimitsTest, RejectsTooManyElements) {
  // 20 x 22 = 440 nodes (ok) but 2*19*21 = 798 elements; use two stacked
  // blocks to pass 850.
  std::vector<Subdivision> subs{make(1, 1, 1, 16, 16), make(2, 1, 16, 16, 31)};
  // nodes: 256 + 256 - 16 = 496 <= 500; elements: 2*15*15*2 = 900 > 850.
  EXPECT_THROW(assemble(subs), Error);
}

TEST(LimitsTest, EmptyInputRejected) {
  EXPECT_THROW(assemble({}), Error);
}

TEST(AssembleTest, DuplicateSubdivisionIdThrows) {
  EXPECT_THROW(assemble({make(3, 1, 1, 3, 3), make(3, 1, 3, 3, 5)}), Error);
}

// ---- Strip triangulation ------------------------------------------------

TEST(TriangulateStripTest, EqualChainsAlternate) {
  mesh::TriMesh m;
  for (int i = 0; i < 3; ++i) m.add_node({static_cast<double>(i), 0});
  for (int i = 0; i < 3; ++i) m.add_node({static_cast<double>(i), 1});
  std::vector<int> elems;
  triangulate_strip({0, 1, 2}, {0, 1, 2}, {3, 4, 5}, {0, 1, 2}, m, &elems);
  EXPECT_EQ(m.num_elements(), 4);
  EXPECT_EQ(elems.size(), 4u);
  m.orient_ccw();
  double area = 0.0;
  for (int e = 0; e < m.num_elements(); ++e) area += m.signed_area(e);
  EXPECT_DOUBLE_EQ(area, 2.0);
}

TEST(TriangulateStripTest, FanFromSingleNode) {
  mesh::TriMesh m;
  const int apex = m.add_node({1, 1});
  std::vector<int> bottom;
  for (int i = 0; i < 4; ++i) {
    bottom.push_back(m.add_node({static_cast<double>(i), 0}));
  }
  triangulate_strip(bottom, {0, 1, 2, 3}, {apex}, {1.5}, m, nullptr);
  EXPECT_EQ(m.num_elements(), 3);
  // Every element touches the apex.
  for (int e = 0; e < m.num_elements(); ++e) {
    const auto& n = m.element(e).n;
    EXPECT_TRUE(n[0] == apex || n[1] == apex || n[2] == apex);
  }
}

TEST(TriangulateStripTest, UnequalChainsCoverArea) {
  mesh::TriMesh m;
  std::vector<int> bottom, top;
  std::vector<double> bpos, tpos;
  for (int i = 0; i < 5; ++i) {
    bottom.push_back(m.add_node({static_cast<double>(i), 0}));
    bpos.push_back(i);
  }
  for (int i = 0; i < 9; ++i) {
    top.push_back(m.add_node({i - 2.0, 1}));
    tpos.push_back(i - 2.0);
  }
  triangulate_strip(bottom, bpos, top, tpos, m, nullptr);
  EXPECT_EQ(m.num_elements(), 5 + 9 - 2);
  m.orient_ccw();
  EXPECT_TRUE(mesh::validate(m).ok());
}

TEST(TriangulateStripTest, AlternatingDiagonalsUnionJack) {
  mesh::TriMesh m;
  for (int i = 0; i < 4; ++i) m.add_node({static_cast<double>(i), 0});
  for (int i = 0; i < 4; ++i) m.add_node({static_cast<double>(i), 1});
  triangulate_strip({0, 1, 2, 3}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3},
                    m, nullptr, DiagonalStyle::kAlternating);
  EXPECT_EQ(m.num_elements(), 6);
  m.orient_ccw();
  EXPECT_TRUE(mesh::validate(m).ok());
  // Cell 0 has the "/" diagonal 0-5; cell 1 the "\" diagonal 5-2.
  auto has_edge = [&](int a, int b) {
    for (int e = 0; e < m.num_elements(); ++e) {
      const auto& n = m.element(e).n;
      for (int k = 0; k < 3; ++k) {
        const int u = n[static_cast<size_t>(k)];
        const int v = n[static_cast<size_t>((k + 1) % 3)];
        if ((u == a && v == b) || (u == b && v == a)) return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_edge(0, 5));
  EXPECT_TRUE(has_edge(5, 2));
  EXPECT_TRUE(has_edge(2, 7));
}

TEST(AssembleTest, DiagonalStyleProducesSameCounts) {
  const std::vector<Subdivision> subs{make(1, 1, 1, 6, 6)};
  const Assembly uniform = assemble(subs, Limits::paper(),
                                    DiagonalStyle::kUniform);
  const Assembly alternating = assemble(subs, Limits::paper(),
                                        DiagonalStyle::kAlternating);
  EXPECT_EQ(uniform.mesh.num_nodes(), alternating.mesh.num_nodes());
  EXPECT_EQ(uniform.mesh.num_elements(), alternating.mesh.num_elements());
  EXPECT_TRUE(mesh::validate(alternating.mesh).ok());
  // And the connectivity genuinely differs.
  bool differs = false;
  for (int e = 0; e < uniform.mesh.num_elements(); ++e) {
    if (uniform.mesh.element(e) != alternating.mesh.element(e)) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(TriangulateStripTest, DegeneratePairOfPointsProducesNothing) {
  mesh::TriMesh m;
  const int a = m.add_node({0, 0});
  const int b = m.add_node({0, 1});
  triangulate_strip({a}, {0}, {b}, {0}, m, nullptr);
  EXPECT_EQ(m.num_elements(), 0);
}

}  // namespace
}  // namespace feio::idlz

#include "ospl/contour.h"

#include <algorithm>
#include <array>

#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"

namespace feio::ospl {

void element_contour(const mesh::TriMesh& mesh,
                     const std::vector<double>& values, int element,
                     double level, std::vector<ContourSegment>& out) {
  const mesh::Element& el = mesh.element(element);
  std::array<geom::Vec2, 2> pts;
  std::array<mesh::Edge, 2> edges;
  int found = 0;
  for (int k = 0; k < 3 && found < 2; ++k) {
    const int i = el.n[static_cast<size_t>(k)];
    const int j = el.n[static_cast<size_t>((k + 1) % 3)];
    const double si = values[static_cast<size_t>(i)];
    const double sj = values[static_cast<size_t>(j)];
    // Half-open rule: a corner exactly at the level belongs to the "above"
    // side, so every triangle is crossed by 0 or 2 edges.
    const bool i_above = si >= level;
    const bool j_above = sj >= level;
    if (i_above == j_above) continue;
    const double t = (level - si) / (sj - si);
    // A crossing exactly at a corner (t = 0 or 1) must land exactly on the
    // node position: lerp's a + (b-a)*t form can be off by an ulp, which
    // would defeat the coincident-endpoint check below.
    pts[static_cast<size_t>(found)] =
        t <= 0.0   ? mesh.pos(i)
        : t >= 1.0 ? mesh.pos(j)
                   : geom::lerp(mesh.pos(i), mesh.pos(j), t);
    edges[static_cast<size_t>(found)] = mesh::Edge(i, j);
    ++found;
  }
  if (found == 2 && pts[0] != pts[1]) {
    // Coincident endpoints happen when the level equals the element's
    // maximum at exactly one corner: both crossings collapse onto that
    // vertex. A zero-length isogram draws nothing and would still attract
    // a label, so it is dropped.
    out.push_back(ContourSegment{pts[0], pts[1], level, element, edges[0],
                                 edges[1]});
  }
}

std::vector<ContourSegment> extract_contours(
    const mesh::TriMesh& mesh, const std::vector<double>& values,
    const std::vector<double>& levels) {
  FEIO_REQUIRE(static_cast<int>(values.size()) == mesh.num_nodes(),
               "one value per node required");
  std::vector<ContourSegment> out;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    // Coarse cancel granularity: one thread-local load per 512 elements.
    if ((e & 511) == 0) FEIO_CHECK_CANCEL("ospl.contour.element");
    FEIO_FAULT("ospl.contour");
    // "The number and size of the contours passing through the element are
    // determined" — skip levels outside the element's value range.
    const mesh::Element& el = mesh.element(e);
    const double lo =
        std::min({values[static_cast<size_t>(el.n[0])],
                  values[static_cast<size_t>(el.n[1])],
                  values[static_cast<size_t>(el.n[2])]});
    const double hi =
        std::max({values[static_cast<size_t>(el.n[0])],
                  values[static_cast<size_t>(el.n[1])],
                  values[static_cast<size_t>(el.n[2])]});
    for (double level : levels) {
      if (level < lo || level > hi) continue;
      element_contour(mesh, values, e, level, out);
    }
  }
  return out;
}

bool clip_segment(const geom::BBox& window, ContourSegment& seg) {
  double t0 = 0.0;
  double t1 = 1.0;
  const geom::Vec2 d = seg.b - seg.a;
  const std::array<double, 4> p{-d.x, d.x, -d.y, d.y};
  const std::array<double, 4> q{seg.a.x - window.lo.x, window.hi.x - seg.a.x,
                                seg.a.y - window.lo.y, window.hi.y - seg.a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[static_cast<size_t>(i)] == 0.0) {
      if (q[static_cast<size_t>(i)] < 0.0) return false;  // parallel outside
      continue;
    }
    const double r = q[static_cast<size_t>(i)] / p[static_cast<size_t>(i)];
    if (p[static_cast<size_t>(i)] < 0.0) {
      t0 = std::max(t0, r);
    } else {
      t1 = std::min(t1, r);
    }
    if (t0 > t1) return false;
  }
  const geom::Vec2 a = seg.a;
  if (t1 < 1.0) {
    seg.b = a + d * t1;
    seg.edge_b = mesh::Edge();  // end point no longer on a mesh edge
  }
  if (t0 > 0.0) {
    seg.a = a + d * t0;
    seg.edge_a = mesh::Edge();
  }
  return true;
}

}  // namespace feio::ospl

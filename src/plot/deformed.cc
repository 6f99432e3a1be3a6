#include "plot/deformed.h"

#include <algorithm>
#include <cmath>

#include "mesh/edge_table.h"
#include "plot/mesh_plot.h"
#include "util/error.h"
#include "util/strings.h"

namespace feio::plot {

double draw_deformed(const mesh::TriMesh& mesh,
                     const std::vector<geom::Vec2>& displacement,
                     PlotFile& out, const DeformedPlotOptions& opts) {
  FEIO_REQUIRE(static_cast<int>(displacement.size()) == mesh.num_nodes(),
               "one displacement per node required");

  double scale = opts.scale;
  if (scale <= 0.0) {
    double max_disp = 0.0;
    for (const geom::Vec2& d : displacement) {
      max_disp = std::max(max_disp, d.norm());
    }
    const geom::BBox box = mesh.bounds();
    const double diag = std::hypot(box.width(), box.height());
    scale = max_disp > 0.0 ? 0.05 * diag / max_disp : 1.0;
  }

  // The deformed mesh has the same elements, so one table serves both.
  const mesh::EdgeTable topo(mesh);
  if (opts.show_undeformed) {
    for (int id : topo.boundary_edges()) {
      const mesh::Edge e = topo.edge(id);
      out.line(mesh.pos(e.a), mesh.pos(e.b), Pen::kGridAid);
    }
  }

  mesh::TriMesh deformed = mesh;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    deformed.set_pos(n, mesh.pos(n) +
                            displacement[static_cast<size_t>(n)] * scale);
  }
  MeshPlotOptions mp;
  mp.draw_boundary = true;
  draw_mesh(deformed, topo, out, mp);
  return scale;
}

PlotFile plot_deformed(const mesh::TriMesh& mesh,
                       const std::vector<geom::Vec2>& displacement,
                       std::string title, const DeformedPlotOptions& opts) {
  PlotFile out;
  const double scale = draw_deformed(mesh, displacement, out, opts);
  out.set_title(title + "  (DEFLECTIONS x" + fixed(scale, 1) + ")");
  return out;
}

}  // namespace feio::plot

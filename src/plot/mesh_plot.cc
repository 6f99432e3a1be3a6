#include "plot/mesh_plot.h"

#include <string>
#include <vector>

#include "mesh/edge_table.h"

namespace feio::plot {

void draw_mesh(const mesh::TriMesh& mesh, PlotFile& out,
               const MeshPlotOptions& opts) {
  draw_mesh(mesh, mesh::EdgeTable(mesh), out, opts);
}

void draw_mesh(const mesh::TriMesh& mesh, const mesh::EdgeTable& topo,
               PlotFile& out, const MeshPlotOptions& opts) {
  // Each edge once, in order of first use by an element.
  std::vector<char> drawn(static_cast<size_t>(topo.num_edges()), 0);
  for (int el = 0; el < mesh.num_elements(); ++el) {
    for (int id : topo.element_edges(el)) {
      if (drawn[static_cast<size_t>(id)]) continue;
      drawn[static_cast<size_t>(id)] = 1;
      const mesh::Edge e = topo.edge(id);
      const bool is_boundary = opts.draw_boundary && topo.is_boundary(id);
      out.line(mesh.pos(e.a), mesh.pos(e.b),
               is_boundary ? Pen::kBoundary : Pen::kMesh);
    }
  }

  if (opts.number_nodes) {
    for (int i = 0; i < mesh.num_nodes(); ++i) {
      out.text(mesh.pos(i), std::to_string(i + 1), opts.label_size);
    }
  }
  if (opts.number_elements) {
    for (int e = 0; e < mesh.num_elements(); ++e) {
      const auto c = mesh.corners(e);
      const geom::Vec2 centroid = (c[0] + c[1] + c[2]) / 3.0;
      out.text(centroid, std::to_string(e + 1), opts.label_size);
    }
  }
}

PlotFile plot_mesh(const mesh::TriMesh& mesh, std::string title,
                   const MeshPlotOptions& opts) {
  PlotFile out(std::move(title));
  draw_mesh(mesh, out, opts);
  return out;
}

}  // namespace feio::plot

// Mesh rendering helpers matching IDLZ's optional plots (Figure 11):
// the idealization with every element shown, and per-subdivision plots with
// node numbers labelled.
#pragma once

#include <string>

#include "mesh/edge_table.h"
#include "mesh/tri_mesh.h"
#include "plot/plot_file.h"

namespace feio::plot {

struct MeshPlotOptions {
  bool draw_boundary = true;   // heavier pen on boundary edges
  bool number_nodes = false;   // stamp 1-based node numbers
  bool number_elements = false;
  double label_size = 0.8;
};

// Draws every element edge (once) plus options above into `out`.
void draw_mesh(const mesh::TriMesh& mesh, PlotFile& out,
               const MeshPlotOptions& opts = {});
// The same with a table already built over the mesh's elements.
void draw_mesh(const mesh::TriMesh& mesh, const mesh::EdgeTable& topo,
               PlotFile& out, const MeshPlotOptions& opts = {});

// Convenience: a titled PlotFile of the mesh.
PlotFile plot_mesh(const mesh::TriMesh& mesh, std::string title,
                   const MeshPlotOptions& opts = {});

}  // namespace feio::plot

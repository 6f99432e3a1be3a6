// L-MESH-*: lints on the idealization itself — the mesh a deck produces
// after assemble/shape/reform. These are the findings an analyst would
// otherwise discover only in the check plot (needles, Figure 9b) or in the
// analysis program's run time (bandwidth).
#include <algorithm>
#include <string>
#include <vector>

#include "idlz/renumber.h"
#include "lint/lint.h"
#include "mesh/bandwidth.h"
#include "mesh/quality.h"
#include "mesh/validate.h"
#include "util/strings.h"

namespace feio::lint {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

void lint_mesh(const mesh::TriMesh& mesh, const idlz::IdlzCase& c,
               const LintOptions& opts, DiagSink& sink) {
  const SourceLoc loc{c.deck_name, 0, 0, 0};
  if (mesh.num_elements() == 0) return;

  // L-MESH-001: needle elements that survived the reform pass.
  const double threshold_rad = opts.needle_threshold_deg * kPi / 180.0;
  const mesh::QualitySummary q = mesh::summarize_quality(mesh, threshold_rad);
  if (q.needle_count > 0) {
    sink.warning("L-MESH-001",
                 std::to_string(q.needle_count) + " of " +
                     std::to_string(mesh.num_elements()) +
                     " elements are needles (min angle below " +
                     fixed(opts.needle_threshold_deg, 0) +
                     " degrees; worst " +
                     fixed(q.min_angle_rad * 180.0 / kPi, 1) + " degrees)",
                 loc);
  }

  // L-MESH-002: nodes no element references. Such nodes are still punched
  // and inflate the analysis program's equation count.
  std::vector<bool> referenced(static_cast<size_t>(mesh.num_nodes()), false);
  for (const mesh::Element& e : mesh.elements()) {
    for (int n : e.n) {
      if (n >= 0 && n < mesh.num_nodes()) {
        referenced[static_cast<size_t>(n)] = true;
      }
    }
  }
  const long unreferenced = std::count(referenced.begin(), referenced.end(),
                                       false);
  if (unreferenced > 0) {
    sink.warning("L-MESH-002",
                 std::to_string(unreferenced) + " of " +
                     std::to_string(mesh.num_nodes()) +
                     " nodes belong to no element",
                 loc);
  }

  // L-MESH-003: clockwise elements. The analysis program integrates with
  // the assumed orientation; negative areas flip element stiffness signs.
  int inverted = 0;
  for (int e = 0; e < mesh.num_elements(); ++e) {
    if (mesh.signed_area(e) < 0.0) ++inverted;
  }
  if (inverted > 0) {
    sink.error("L-MESH-003",
               std::to_string(inverted) + " of " +
                   std::to_string(mesh.num_elements()) +
                   " elements have clockwise node ordering (negative area)",
               loc);
  }

  // L-MESH-004: elements over the same node set (overlapping subdivisions
  // produce these even when L-SUB-002 could not see the overlap).
  const std::vector<char> duplicate = mesh::duplicate_elements(mesh);
  const auto duplicates = std::count(duplicate.begin(), duplicate.end(), 1);
  if (duplicates > 0) {
    sink.error("L-MESH-004",
               std::to_string(duplicates) +
                   " duplicate elements (same node set referenced twice)",
               loc);
  }

  // L-MESH-005: renumbering dry run. Only advisory when the deck left
  // NONUMB = 0 — with renumbering already requested there is nothing to say.
  if (!c.options.renumber_nodes) {
    mesh::TriMesh copy = mesh;
    const idlz::RenumberReport r =
        idlz::renumber(copy, idlz::NumberingScheme::kBest);
    if (r.applied && r.bandwidth_before >= opts.min_bandwidth) {
      const double gain =
          100.0 * (r.bandwidth_before - r.bandwidth_after) /
          static_cast<double>(r.bandwidth_before);
      if (gain >= opts.bandwidth_gain_pct) {
        sink.warning("L-MESH-005",
                     "renumbering would cut the coefficient-matrix "
                     "bandwidth from " +
                         std::to_string(r.bandwidth_before) + " to " +
                         std::to_string(r.bandwidth_after) + " (" +
                         fixed(gain, 0) + "% smaller); set NONUMB = 1",
                     loc);
      }
    }
  }
}

}  // namespace feio::lint

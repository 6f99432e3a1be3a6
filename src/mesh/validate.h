// Mesh sanity checks run after idealization and before analysis/plotting.
#pragma once

#include <string>
#include <vector>

#include "mesh/tri_mesh.h"
#include "util/diag.h"

namespace feio::mesh {

// Validation findings as structured diagnostics (codes E-MESH-* for fatal
// problems, W-MESH-* for quality concerns) so they merge into a run's
// DiagSink alongside the deck readers' reports.
struct ValidationReport {
  std::vector<Diag> diags;

  bool ok() const;  // no error-severity findings

  // Legacy string views of the findings (messages only, codes stripped).
  std::vector<std::string> errors() const;
  std::vector<std::string> warnings() const;
  // All findings rendered one per line ("error E-MESH-003: ...").
  std::vector<std::string> to_strings() const;

  // Appends every finding to `sink`.
  void merge_into(DiagSink& sink) const;
};

// Checks: node indices in range, no repeated nodes in an element, no
// zero/negative-area elements (after orientation), no duplicate elements,
// no non-manifold edges (>2 incident elements), boundary flags consistent
// with topology, mesh connected (single component) — the last is a warning
// because multi-part idealizations are legal in IDLZ.
ValidationReport validate(const TriMesh& mesh);

// flag[e] = 1 when element e references the same node set as an earlier
// element. Found by sorting the elements' sorted corner triples.
std::vector<char> duplicate_elements(const TriMesh& mesh);

}  // namespace feio::mesh

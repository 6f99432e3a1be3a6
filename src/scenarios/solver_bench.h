// The `bench_solver` harness: an ordering x threads ablation of the FEM
// hot path. For every bench mesh (IDLZ strips plus a plate-with-holes
// geometry whose webs blow the band up while keeping the envelope thin)
// and every node ordering (none = generation order, RCM), the
// harness measures element assembly and envelope factorize+solve, serial
// versus N threads, and counts the bytes of the envelope factor against
// the band it replaces. This closes the paper's bandwidth claim (C6): the
// renumbering pass keeps the profile small, and the envelope storage keeps
// the solve profile-bound where the band would not be.
//
// Like the pipeline harness, every measurement byte-compares the parallel
// result against the serial one (`identical`), so the perf numbers double
// as a determinism check. A cell whose envelope factor would exceed the
// harness byte or flop caps (a pathological ordering on an anisotropic
// domain blows up the envelope) is reported with `skipped` = true rather
// than silently dropped. The JSON rendering is a feio.report/1 envelope of
// kind "bench" whose payload is schema-stable ("feio.bench.solver/3", see
// docs/BENCHMARKS.md): fields may be added, never renamed or removed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace feio::scenarios {

struct SolverBenchCase {
  std::string name;      // e.g. "factor_solve/plate_holes96/rcm"
  std::string stage;     // "assemble" | "factor_solve"
  std::string mesh;      // bench mesh tag
  std::string ordering;  // "none" | "rcm"
  int n = 0;               // equations (dofs)
  int half_bandwidth = 0;  // dof half-bandwidth under this ordering
  int node_bw = 0;         // nodal bandwidth under this ordering
  std::int64_t band_bytes = 0;     // a band factor's bytes: n * (hbw+1) * 8
  std::int64_t skyline_bytes = 0;  // the envelope factor's bytes
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;    // serial_ms / parallel_ms
  bool identical = false;  // parallel output byte-identical to serial
  // True when the cell was not run because its envelope factor exceeds
  // the harness byte or flop cap; timings are 0 and `identical` is
  // vacuously true.
  bool skipped = false;
};

struct SolverBenchReport {
  int hardware_threads = 1;
  int threads = 1;
  int repetitions = 1;
  bool quick = false;
  std::vector<SolverBenchCase> cases;
  // Metrics body from one metered fem::solve outside the timed loops
  // (fem.factorize.panels, fem.static_solves, ...); empty => {}.
  std::string metrics_json;

  bool all_identical() const;
  // feio.report/1 envelope, kind "bench", payload "feio.bench.solver/3".
  std::string render_json() const;
  std::string render_table() const;
};

// Runs the harness. threads <= 0 selects util::hardware_threads(); quick
// restricts the sweep to two small meshes for the CI smoke job (the full
// sweep reaches ~10^6 dofs on the big plate-with-holes mesh). The process
// default thread count is restored on return.
SolverBenchReport run_solver_bench(int threads, bool quick);

}  // namespace feio::scenarios

// The `feio bench` harness: measures IDLZ assembly and shaping, OSPL
// contour extraction and a multi-deck batch run, serial versus N threads,
// on synthetic strip assemblages up to the paper's 40 x 60 grid limit and
// beyond (via idlz::Limits::unlimited()). The three per-deck stages are
// serial (their parallel loops never won) and stay as the serial
// reference; the batch, which spreads decks over threads, is the one
// parallel cell.
//
// Every measurement also byte-compares the parallel output against the
// serial output (`identical`), so the perf trajectory doubles as a
// determinism check. The JSON rendering is a feio.report/1 envelope of
// kind "bench" whose payload is schema-stable ("feio.bench.pipeline/1",
// see docs/BENCHMARKS.md): fields may be added, never renamed or removed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "idlz/idlz.h"

namespace feio::scenarios {

struct PipelineBenchCase {
  std::string name;   // e.g. "contours/strip40x60"
  std::string stage;  // "assemble" | "shape" | "contours" | "batch"
  int nodes = 0;
  int elements = 0;
  std::int64_t work_items = 0;  // elements, subdivisions, or decks
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;     // serial_ms / parallel_ms
  // (max - min) / min of each arm's timed repetitions, which alternate
  // serial and parallel.
  double serial_spread = 0.0;
  double parallel_spread = 0.0;
  bool identical = false;   // parallel output byte-identical to serial
};

struct PipelineBenchReport {
  int hardware_threads = 1;
  int threads = 1;      // thread count of the parallel measurements
  int repetitions = 1;  // timed repetitions per arm; minimum is reported
  bool quick = false;
  std::vector<PipelineBenchCase> cases;
  // Metrics body (util::MetricsRegistry::render_body_json(4)) from one
  // metered batch pass, collected outside the timed loops so metering
  // overhead never leaks into the reported times. Empty => rendered as {}.
  std::string metrics_json;

  bool all_identical() const;
  // Machine-readable document: feio.report/1 envelope, kind "bench",
  // payload schema "feio.bench.pipeline/1".
  std::string render_json() const;
  // Human-readable table for stdout.
  std::string render_table() const;
};

// A synthetic strip assemblage: `subs` stacked rectangular subdivisions
// covering a k_cells x l_cells integer grid, shaped to a uniform physical
// grid. k_cells = 40, l_cells = 60 is the Table 2 limit; larger sizes need
// idlz::Limits::unlimited(). Exposed for the Google-Benchmark binary.
idlz::IdlzCase strip_case(int k_cells, int l_cells, int subs);

// Runs the full harness. threads <= 0 selects util::hardware_threads().
// The process default thread count is restored on return.
PipelineBenchReport run_pipeline_bench(int threads, bool quick);

}  // namespace feio::scenarios

#include "scenarios/solver_bench.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>

#include "fem/skyline.h"
#include "fem/solver.h"
#include "idlz/assembler.h"
#include "idlz/renumber.h"
#include "idlz/shaping.h"
#include "mesh/bandwidth.h"
#include "scenarios/pipeline_bench.h"
#include "util/diag.h"
#include "util/guard.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/report.h"

namespace feio::scenarios {
namespace {

using Clock = std::chrono::steady_clock;

// Cells over these caps are reported as skipped instead of run: a
// pathological ordering pushes the envelope toward n, and timing a
// hundred-gigabyte or hours-of-flops factor teaches nothing the byte counts
// don't already say. The flop model is the exact sum of squared column
// heights.
constexpr std::int64_t kStorageBytesCap = std::int64_t{2} << 30;
constexpr std::int64_t kFlopsCapQuick = 200'000'000;        // ~0.1 s
constexpr std::int64_t kFlopsCapFull = 25'000'000'000;      // ~15 s

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Bit-exact fingerprint of a double vector: two runs are byte-identical
// iff their fingerprints match (hex of the raw bits, not a rounding).
std::string bits_fingerprint(const std::vector<double>& v) {
  std::ostringstream out;
  char buf[20];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%016llx;",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(x)));
    out << buf;
  }
  return out.str();
}

// A bench mesh in generation order — the "none" ordering is whatever order
// the generator emitted nodes in (row-major for both families here).
struct BenchMesh {
  std::string tag;
  mesh::TriMesh mesh;
};

mesh::TriMesh strip_mesh(int k_cells, int l_cells, int subs) {
  const idlz::IdlzCase c = strip_case(k_cells, l_cells, subs);
  idlz::Assembly a =
      idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
  idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
  return std::move(a.mesh);
}

// The Fig. 9-class geometry envelope storage exists for: a 64-cell-wide
// plate, solid for `rim` cell rows at the bottom and top, with two big
// rectangular slots between leaving three 4-cell-wide vertical webs. Most
// node rows hold only the 15 web nodes (short skyline columns), while the
// full-width rim rows pin the half-bandwidth near the plate width — a band
// would pay the worst row everywhere, the envelope only where it must.
// Nodes are emitted row-major (y outer, x ascending), unit cells.
mesh::TriMesh plate_with_holes(int rows) {
  constexpr int kWidth = 64;  // cells across
  constexpr int kRim = 2;     // solid cell rows at bottom and top
  auto in_web = [&](int x) {
    return (x >= 0 && x < 4) || (x >= 30 && x < 34) || (x >= 60 && x < 64);
  };
  auto solid_cell = [&](int x, int y) {
    if (y < kRim || y >= rows - kRim) return true;
    return in_web(x);
  };

  mesh::TriMesh m;
  // node_id[y][x], -1 when the corner touches no solid cell.
  std::vector<std::vector<int>> node_id(
      static_cast<std::size_t>(rows + 1),
      std::vector<int>(static_cast<std::size_t>(kWidth + 1), -1));
  auto corner_used = [&](int x, int y) {
    for (int dy = -1; dy <= 0; ++dy) {
      for (int dx = -1; dx <= 0; ++dx) {
        const int cx = x + dx;
        const int cy = y + dy;
        if (cx < 0 || cx >= kWidth || cy < 0 || cy >= rows) continue;
        if (solid_cell(cx, cy)) return true;
      }
    }
    return false;
  };
  for (int y = 0; y <= rows; ++y) {
    for (int x = 0; x <= kWidth; ++x) {
      if (corner_used(x, y)) {
        node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] =
            m.add_node({static_cast<double>(x), static_cast<double>(y)});
      }
    }
  }
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < kWidth; ++x) {
      if (!solid_cell(x, y)) continue;
      const int a = node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)];
      const int b = node_id[static_cast<std::size_t>(y)][static_cast<std::size_t>(x + 1)];
      const int c = node_id[static_cast<std::size_t>(y + 1)][static_cast<std::size_t>(x + 1)];
      const int d = node_id[static_cast<std::size_t>(y + 1)][static_cast<std::size_t>(x)];
      m.add_element(a, b, c);
      m.add_element(a, c, d);
    }
  }
  return m;
}

std::vector<BenchMesh> bench_meshes(bool quick) {
  std::vector<BenchMesh> meshes;
  if (quick) {
    meshes.push_back({"strip16x60", strip_mesh(16, 60, 6)});
    meshes.push_back({"plate_holes96", plate_with_holes(96)});
  } else {
    meshes.push_back({"strip32x312", strip_mesh(32, 312, 8)});
    meshes.push_back({"strip48x400", strip_mesh(48, 400, 8)});
    meshes.push_back({"plate_holes1000", plate_with_holes(1000)});
    // ~990k dofs: the "up to 10^6" point.
    meshes.push_back({"plate_holes33000", plate_with_holes(33000)});
  }
  return meshes;
}

// Bottom edge clamped, transverse point load at the top-most (then
// right-most) node: the cantilever boundary conditions the v1 harness used,
// generalized to any of the bench meshes.
fem::StaticProblem make_problem(const mesh::TriMesh& mesh) {
  fem::StaticProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));
  double y_min = std::numeric_limits<double>::infinity();
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    y_min = std::min(y_min, mesh.pos(n).y);
  }
  int tip = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (mesh.pos(n).y < y_min + 0.5) prob.fix(n, true, true);
    if (mesh.pos(n).y > mesh.pos(tip).y ||
        (mesh.pos(n).y == mesh.pos(tip).y &&
         mesh.pos(n).x > mesh.pos(tip).x)) {
      tip = n;
    }
  }
  prob.point_load(tip, {1000.0, -500.0});
  return prob;
}

struct Measurement {
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
};

// `work` must be a pure function of the process-default thread count and
// return a bit-exact fingerprint of its result. Each arm runs once untimed
// (warm-up + fingerprint); then the timed runs alternate serial and
// parallel, so a change in the host's speed during the cell hits both
// arms alike. Each arm reports its fastest run.
template <typename Fn>
Measurement measure(int reps, int threads, Fn&& work) {
  const int arm_threads[2] = {1, threads};
  std::string fingerprint[2];
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int arm = 0; arm < 2; ++arm) {
    util::ScopedThreads guard(arm_threads[arm]);
    fingerprint[arm] = work();
  }
  for (int r = 0; r < reps; ++r) {
    for (int arm = 0; arm < 2; ++arm) {
      util::ScopedThreads guard(arm_threads[arm]);
      const Clock::time_point start = Clock::now();
      work();
      best[arm] = std::min(best[arm], ms_since(start));
    }
  }
  return {best[0], best[1], fingerprint[0] == fingerprint[1]};
}

const char* ordering_name(feio::OrderingChoice o) {
  switch (o) {
    case feio::OrderingChoice::kNone:
      return "none";
    case feio::OrderingChoice::kRcm:
      return "rcm";
    case feio::OrderingChoice::kDeckDefault:
      break;
  }
  return "deck";
}

}  // namespace

bool SolverBenchReport::all_identical() const {
  return std::all_of(cases.begin(), cases.end(),
                     [](const SolverBenchCase& c) { return c.identical; });
}

std::string SolverBenchReport::render_json() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << report_header_json("bench");
  out << "  \"payload_schema\": \"feio.bench.solver/3\",\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"repetitions\": " << repetitions << ",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"all_identical\": " << (all_identical() ? "true" : "false")
      << ",\n";
  out << "  \"cases\": [";
  for (size_t i = 0; i < cases.size(); ++i) {
    const SolverBenchCase& c = cases[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(c.name) << "\", \"stage\": \""
        << json_escape(c.stage) << "\", \"mesh\": \"" << json_escape(c.mesh)
        << "\", \"ordering\": \"" << json_escape(c.ordering)
        << "\", \"n\": " << c.n << ", \"half_bandwidth\": " << c.half_bandwidth
        << ", \"node_bw\": " << c.node_bw
        << ", \"band_bytes\": " << c.band_bytes
        << ", \"skyline_bytes\": " << c.skyline_bytes
        << ", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << c.speedup
        << ", \"identical\": " << (c.identical ? "true" : "false")
        << ", \"skipped\": " << (c.skipped ? "true" : "false") << "}";
  }
  out << (cases.empty() ? "],\n" : "\n  ],\n");
  if (metrics_json.empty()) {
    out << "  \"metrics\": {}\n";
  } else {
    out << "  \"metrics\": {\n" << metrics_json << "  }\n";
  }
  out << "}\n";
  return out.str();
}

std::string SolverBenchReport::render_table() const {
  std::ostringstream out;
  out << "bench_solver: " << threads << " threads (" << hardware_threads
      << " hardware), min of " << repetitions << " reps\n";
  out << "  case                                            n   hbw"
         "     serial ms  parallel ms  speedup  identical\n";
  for (const SolverBenchCase& c : cases) {
    out << "  " << c.name;
    for (size_t pad = c.name.size(); pad < 44; ++pad) out << ' ';
    if (c.skipped) {
      char row[120];
      std::snprintf(row, sizeof row,
                    "%9d %5d  skipped (over harness cap; %lld bytes)\n",
                    c.n, c.half_bandwidth,
                    static_cast<long long>(c.skyline_bytes));
      out << row;
      continue;
    }
    char row[120];
    std::snprintf(row, sizeof row,
                  "%9d %5d %10.3f  %11.3f  %6.2fx  %s\n", c.n,
                  c.half_bandwidth, c.serial_ms, c.parallel_ms, c.speedup,
                  c.identical ? "yes" : "NO");
    out << row;
  }
  return out.str();
}

SolverBenchReport run_solver_bench(int threads, bool quick) {
  SolverBenchReport report;
  report.hardware_threads = util::hardware_threads();
  report.threads = threads <= 0 ? report.hardware_threads : threads;
  report.quick = quick;
  report.repetitions = quick ? 3 : 5;

  const feio::OrderingChoice orderings[] = {feio::OrderingChoice::kNone,
                                            feio::OrderingChoice::kRcm};

  for (BenchMesh& bm : bench_meshes(quick)) {
    for (const feio::OrderingChoice ordering : orderings) {
      mesh::TriMesh m = bm.mesh;
      if (ordering == feio::OrderingChoice::kRcm) {
        m.renumber_nodes(idlz::cuthill_mckee_permutation(m, /*reverse=*/true));
      }
      const fem::StaticProblem prob = make_problem(m);
      const int n = prob.num_dofs();
      const int hbw = prob.dof_half_bandwidth();
      const int node_bw = mesh::bandwidth(m);
      const char* oname = ordering_name(ordering);
      // Big systems repeat twice: the factor dominates and the min-of-reps
      // guard matters less than the wall-clock budget.
      const int reps = n > 200000 ? 2 : report.repetitions;

      const std::vector<int> lows = prob.dof_skyline_lows();
      std::int64_t entries = 0;
      std::int64_t flops = 0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t h = i - lows[static_cast<std::size_t>(i)] + 1;
        entries += h;
        flops += h * h;
      }
      const std::int64_t skyline_bytes = util::checked_skyline_bytes(entries);
      const bool fits = skyline_bytes <= kStorageBytesCap &&
                        flops <= (quick ? kFlopsCapQuick : kFlopsCapFull);

      auto push = [&](const char* stage, const Measurement& meas) {
        SolverBenchCase c;
        c.name = std::string(stage) + "/" + bm.tag + "/" + oname;
        c.stage = stage;
        c.mesh = bm.tag;
        c.ordering = oname;
        c.n = n;
        c.half_bandwidth = hbw;
        c.node_bw = node_bw;
        c.band_bytes = util::checked_factor_bytes(n, hbw);
        c.skyline_bytes = skyline_bytes;
        c.serial_ms = meas.serial_ms;
        c.parallel_ms = meas.parallel_ms;
        c.speedup = fits ? meas.serial_ms / std::max(meas.parallel_ms, 1e-9)
                         : 0.0;
        c.identical = fits ? meas.identical : true;
        c.skipped = !fits;
        report.cases.push_back(std::move(c));
      };
      if (!fits) {
        push("assemble", {});
        push("factor_solve", {});
        continue;
      }

      // Stage 1: parallel element assembly into the envelope.
      push("assemble", measure(reps, report.threads, [&] {
             fem::SkylineMatrix k(lows);
             std::vector<double> rhs;
             prob.assemble(k, rhs);
             return bits_fingerprint(rhs);
           }));

      // Stage 2: blocked factorize + solve. Assembly runs outside the
      // timed lambda: each rep factorizes a fresh copy.
      fem::SkylineMatrix k0(lows);
      std::vector<double> rhs0;
      prob.assemble(k0, rhs0);
      push("factor_solve", measure(reps, report.threads, [&] {
             fem::SkylineMatrix k = k0;
             std::vector<double> rhs = rhs0;
             k.factorize();
             k.solve(rhs);
             return bits_fingerprint(rhs);
           }));
    }
  }

  // One metered solve of the plate mesh outside the timed loops supplies
  // the metrics snapshot: fem.factorize.panels, fem.static_solves,
  // parallel.*.
  {
    const mesh::TriMesh m = quick ? plate_with_holes(96) : plate_with_holes(400);
    util::MetricsRegistry metrics;
    RunOptions opts;
    opts.threads = report.threads;
    opts.metrics = &metrics;
    fem::solve(make_problem(m), opts);
    report.metrics_json = metrics.render_body_json(4);
  }

  return report;
}

}  // namespace feio::scenarios

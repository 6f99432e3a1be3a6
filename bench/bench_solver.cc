// The ordering x threads ablation of the FEM hot path: element assembly
// and blocked envelope LDL^T factorize+solve under none/RCM node
// orderings, on IDLZ strips and plate-with-holes meshes.
//
// Artifacts: BENCH_solver.json (payload schema "feio.bench.solver/3", the
// feio.report/1 bench envelope; see docs/BENCHMARKS.md), then the
// Google-Benchmark runs. `--quick` restricts the harness to two small
// meshes (the CI smoke configuration). Pass --benchmark_format=json for
// GB's own JSON.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "fem/skyline.h"
#include "fem/solver.h"
#include "idlz/assembler.h"
#include "idlz/renumber.h"
#include "idlz/shaping.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/solver_bench.h"
#include "util/parallel.h"

using namespace feio;

namespace {

const struct StripSize {
  const char* tag;
  int k, l, subs;
} kSizes[] = {{"strip24x120", 24, 120, 12}, {"strip32x312", 32, 312, 8}};

class ThreadsGuard {
 public:
  explicit ThreadsGuard(int n) : saved_(util::default_threads()) {
    util::set_default_threads(n);
  }
  ~ThreadsGuard() { util::set_default_threads(saved_); }

 private:
  int saved_;
};

// Renumbered strip mesh shared by the GB benchmarks of one size.
mesh::TriMesh strip_mesh(const StripSize& size) {
  const idlz::IdlzCase c = scenarios::strip_case(size.k, size.l, size.subs);
  idlz::Assembly a =
      idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
  idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
  idlz::renumber(a.mesh, idlz::NumberingScheme::kBest);
  return std::move(a.mesh);
}

fem::StaticProblem make_problem(const mesh::TriMesh& mesh) {
  fem::StaticProblem prob(mesh, fem::Analysis::kPlaneStress);
  prob.set_material(fem::Material::isotropic(30.0e6, 0.30));
  int tip = 0;
  for (int n = 0; n < mesh.num_nodes(); ++n) {
    if (mesh.pos(n).y < 0.5) prob.fix(n, true, true);
    if (mesh.pos(n).y > mesh.pos(tip).y) tip = n;
  }
  prob.point_load(tip, {1000.0, -500.0});
  return prob;
}

void BM_FemAssemble(benchmark::State& state) {
  const StripSize& size = kSizes[state.range(0)];
  const mesh::TriMesh mesh = strip_mesh(size);
  const fem::StaticProblem prob = make_problem(mesh);
  ThreadsGuard guard(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    fem::SkylineMatrix k(prob.dof_skyline_lows());
    std::vector<double> rhs;
    prob.assemble(k, rhs);
    benchmark::DoNotOptimize(rhs.data());
  }
  state.SetLabel(std::string(size.tag) + " threads=" +
                 std::to_string(state.range(1)));
}

void BM_FactorSolve(benchmark::State& state) {
  const StripSize& size = kSizes[state.range(0)];
  const mesh::TriMesh mesh = strip_mesh(size);
  const fem::StaticProblem prob = make_problem(mesh);
  fem::SkylineMatrix k0(prob.dof_skyline_lows());
  std::vector<double> rhs0;
  prob.assemble(k0, rhs0);
  ThreadsGuard guard(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    fem::SkylineMatrix k = k0;
    std::vector<double> rhs = rhs0;
    k.factorize();
    k.solve(rhs);
    benchmark::DoNotOptimize(rhs.data());
  }
  state.SetLabel(std::string(size.tag) + " threads=" +
                 std::to_string(state.range(1)));
}

void register_benchmarks() {
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= util::hardware_threads(); t *= 2) {
    thread_counts.push_back(t);
  }
  for (int size = 0; size < 2; ++size) {
    for (int t : thread_counts) {
      benchmark::RegisterBenchmark("BM_FemAssemble", BM_FemAssemble)
          ->Args({size, t})
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("BM_FactorSolve", BM_FactorSolve)
          ->Args({size, t})
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      // Hide the flag from Google Benchmark's flag parser.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }

  const scenarios::SolverBenchReport report =
      scenarios::run_solver_bench(/*threads=*/0, quick);
  std::printf("%s", report.render_table().c_str());
  std::ofstream("BENCH_solver.json") << report.render_json();
  std::printf("wrote BENCH_solver.json%s\n",
              report.all_identical()
                  ? ""
                  : "  ** PARALLEL OUTPUT DIVERGED FROM SERIAL **");

  if (!quick) register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return report.all_identical() ? 0 : 1;
}

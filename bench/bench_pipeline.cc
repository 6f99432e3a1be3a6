// Timing of the three per-deck pipeline stages (IDLZ assembly, shaping,
// OSPL contour extraction) on the synthetic strip assemblages from
// scenarios::strip_case. All three run serially.
//
// Artifacts: BENCH_pipeline.json (schema "feio.bench.pipeline/1", the
// same document `feio bench` writes; see docs/BENCHMARKS.md), then the
// Google-Benchmark runs. Pass --benchmark_format=json for GB's own JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include <benchmark/benchmark.h>

#include "idlz/idlz.h"
#include "ospl/contour.h"
#include "ospl/interval.h"
#include "scenarios/pipeline_bench.h"

using namespace feio;

namespace {

// The 40x60 Table 2 limit and a beyond-limits size (needs
// Limits::unlimited(), which strip_case sets).
const struct StripSize {
  const char* tag;
  int k, l, subs;
} kSizes[] = {{"strip40x60", 40, 60, 6}, {"strip200x300", 200, 300, 20}};

void BM_Assemble(benchmark::State& state) {
  const StripSize& size = kSizes[state.range(0)];
  const idlz::IdlzCase c =
      scenarios::strip_case(size.k, size.l, size.subs);
  for (auto _ : state) {
    idlz::Assembly a =
        idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
    benchmark::DoNotOptimize(a.mesh.num_elements());
  }
  state.SetLabel(size.tag);
}

void BM_Shape(benchmark::State& state) {
  const StripSize& size = kSizes[state.range(0)];
  const idlz::IdlzCase c =
      scenarios::strip_case(size.k, size.l, size.subs);
  for (auto _ : state) {
    idlz::Assembly a =
        idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
    idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
    benchmark::DoNotOptimize(a.mesh.num_nodes());
  }
  state.SetLabel(size.tag);
}

void BM_Contours(benchmark::State& state) {
  const StripSize& size = kSizes[state.range(0)];
  const idlz::IdlzCase c =
      scenarios::strip_case(size.k, size.l, size.subs);
  idlz::Assembly a =
      idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
  idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(a.mesh.num_nodes()));
  for (int i = 0; i < a.mesh.num_nodes(); ++i) {
    const geom::Vec2 p = a.mesh.pos(i);
    values.push_back(p.x * p.x + p.y * p.y +
                     25.0 * std::sin(0.21 * p.x) * std::cos(0.17 * p.y));
  }
  const double vmin = *std::min_element(values.begin(), values.end());
  const double vmax = *std::max_element(values.begin(), values.end());
  const std::vector<double> levels =
      ospl::contour_levels(vmin, vmax, ospl::auto_interval(vmin, vmax));
  for (auto _ : state) {
    const auto segments = ospl::extract_contours(a.mesh, values, levels);
    benchmark::DoNotOptimize(segments.size());
  }
  state.SetLabel(size.tag);
}

void register_stage_benchmarks() {
  for (int size = 0; size < 2; ++size) {
    benchmark::RegisterBenchmark("BM_Assemble", BM_Assemble)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_Shape", BM_Shape)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("BM_Contours", BM_Contours)
        ->Arg(size)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const scenarios::PipelineBenchReport report =
      scenarios::run_pipeline_bench(/*threads=*/0, /*quick=*/false);
  std::printf("%s", report.render_table().c_str());
  std::ofstream("BENCH_pipeline.json") << report.render_json();
  std::printf("wrote BENCH_pipeline.json%s\n",
              report.all_identical()
                  ? ""
                  : "  ** PARALLEL OUTPUT DIVERGED FROM SERIAL **");

  register_stage_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return report.all_identical() ? 0 : 1;
}

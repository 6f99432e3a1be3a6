// Appendix D (automatic contour spacing, claim C5) and OSPL throughput.
//
// Prints the auto-interval table including the paper's worked example
// (10000..50000 psi -> 2500 psi), then times contour extraction, label
// placement, and the full OSPL pipeline across mesh sizes.
#include <cmath>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "mesh/edge_table.h"
#include "ospl/contour.h"
#include "ospl/interval.h"
#include "ospl/labels.h"
#include "ospl/ospl.h"

using namespace feio;

namespace {

mesh::TriMesh grid(int n, std::vector<double>* values) {
  mesh::TriMesh m;
  for (int j = 0; j <= n; ++j) {
    for (int i = 0; i <= n; ++i) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
      if (values != nullptr) {
        // A wavy field with interior extrema: many distinct isograms.
        values->push_back(std::sin(0.7 * i) * std::cos(0.5 * j) * 100.0 +
                          3.0 * i + 2.0 * j);
      }
    }
  }
  auto id = [n](int i, int j) { return j * (n + 1) + i; };
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  m.classify_boundary();
  return m;
}

void print_report() {
  std::printf("==== Appendix D: automatic contour interval (claim C5) ====\n");
  std::printf("%14s %14s %10s %8s\n", "smallest", "largest", "interval",
              "levels");
  struct Row {
    double lo, hi;
  };
  const Row rows[] = {{10000, 50000}, {0, 1},     {-50, 50}, {2250, 37500},
                      {70, 170},      {-2.3, 0.4}, {0, 997},  {1e-4, 9e-4}};
  for (const Row& r : rows) {
    const double d = ospl::auto_interval(r.lo, r.hi);
    const auto levels = ospl::contour_levels(r.lo, r.hi, d);
    std::printf("%14g %14g %10g %8zu%s\n", r.lo, r.hi, d, levels.size(),
                (r.lo == 10000 ? "   <- paper's worked example (2500)" : ""));
  }
  std::printf("(every interval is a base product 1.0/2.5/5.0 x 10^k and the\n"
              " level count never exceeds 20, as Appendix D intends)\n\n");
}

void BM_FullPipeline(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ospl::OsplCase c;
  c.mesh = grid(n, &c.values);
  c.limits = ospl::OsplLimits::unlimited();
  for (auto _ : state) {
    ospl::OsplResult r = ospl::run(c);
    benchmark::DoNotOptimize(r.segments.size());
  }
  state.counters["elements"] = 2.0 * n * n;
}
BENCHMARK(BM_FullPipeline)->Arg(8)->Arg(16)->Arg(22)->Arg(32)->Arg(64);

void BM_ExtractOnly(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> values;
  const mesh::TriMesh m = grid(n, &values);
  double lo = 1e300;
  double hi = -1e300;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const auto levels =
      ospl::contour_levels(lo, hi, ospl::auto_interval(lo, hi));
  for (auto _ : state) {
    auto segs = ospl::extract_contours(m, values, levels);
    benchmark::DoNotOptimize(segs.size());
  }
  state.counters["elements"] = 2.0 * n * n;
  state.counters["levels"] = static_cast<double>(levels.size());
}
BENCHMARK(BM_ExtractOnly)->Arg(16)->Arg(32)->Arg(64);

void BM_LabelPlacement(benchmark::State& state) {
  std::vector<double> values;
  const mesh::TriMesh m = grid(22, &values);
  double lo = 1e300;
  double hi = -1e300;
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const auto levels =
      ospl::contour_levels(lo, hi, ospl::auto_interval(lo, hi));
  const auto segs = ospl::extract_contours(m, values, levels);
  const mesh::EdgeTable topo(m);
  for (auto _ : state) {
    ospl::LabelResult r = ospl::place_labels(segs, topo, m.bounds());
    benchmark::DoNotOptimize(r.accepted.size());
  }
}
BENCHMARK(BM_LabelPlacement);

void BM_AutoInterval(benchmark::State& state) {
  double lo = 10000.0;
  double hi = 50000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ospl::auto_interval(lo, hi));
    lo *= 1.0000001;
  }
}
BENCHMARK(BM_AutoInterval);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

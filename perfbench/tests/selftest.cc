// Self-tests of the harness's own rules: percentiles, self-time
// subtraction, open-loop lateness, the residual gate and metric names.
// Exit code 0 when every check passes.
#include <cmath>
#include <iostream>
#include <istream>
#include <string>
#include <thread>

#include "feio/api.h"
#include "fem/solver.h"
#include "harness.h"
#include "scenarios/pipeline_bench.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  check(near(perfbench::median({3, 1, 2}), 2.0), "median of an odd sample");
  check(near(perfbench::percentile({1, 2, 3, 4}, 0.5), 2.5),
        "percentile interpolates between ranks");
  // 900 samples put only 9 beyond p99: omitted, not extrapolated.
  check(!perfbench::tail_percentile(ramp(900), 0.99).has_value(),
        "p99 omitted with 9 samples beyond it");
  const auto p99 = perfbench::tail_percentile(ramp(1100), 0.99);
  check(p99.has_value() && near(*p99, perfbench::percentile(ramp(1100), 0.99)),
        "p99 reported with at least 10 samples beyond it");
  check(!perfbench::tail_percentile({}, 0.5).has_value(),
        "no percentile of an empty sample");
}

std::string event(const char* name, char ph, int tid, double ts,
                  const std::string& args = "") {
  std::string line = std::string("{\"name\": \"") + name +
                     "\", \"cat\": \"feio\", \"ph\": \"" + ph +
                     "\", \"pid\": 1, \"tid\": " + std::to_string(tid) +
                     ", \"ts\": " + std::to_string(ts);
  if (!args.empty()) line += ", \"args\": {" + args + "}";
  return line + "}";
}

void test_self_time() {
  // h.op [0,100] > h.idlz [10,60] > idlz.assemble [20,30]
  //                              > parallel.chunk [32,50] > idlz.shape [35,45]
  //             > h.fem [60,95] > fem.factorize [70,90]
  // plus a worker lane whose chunk must not touch the main lane.
  const std::string json =
      "{\"traceEvents\": [\n" + event("h.op", 'B', 1, 0) + ",\n" +
      event("h.idlz", 'B', 1, 10) + ",\n" + event("idlz.assemble", 'B', 1, 20) +
      ",\n" + event("idlz.assemble", 'E', 1, 30) + ",\n" +
      event("parallel.chunk", 'B', 1, 32) + ",\n" +
      event("idlz.shape", 'B', 1, 35) + ",\n" + event("idlz.shape", 'E', 1, 45) +
      ",\n" + event("parallel.chunk", 'E', 1, 50, "\"chunk\": 0") + ",\n" +
      event("h.idlz", 'E', 1, 60) + ",\n" + event("h.fem", 'B', 1, 60) +
      ",\n" + event("fem.factorize", 'B', 1, 70) + ",\n" +
      event("fem.factorize", 'E', 1, 90, "\"n\": 42, \"segments\": 7") +
      ",\n" +
      event("h.fem", 'E', 1, 95) + ",\n" + event("h.op", 'E', 1, 100) + ",\n" +
      event("parallel.chunk", 'B', 2, 33) + ",\n" +
      event("parallel.chunk", 'E', 2, 49) + "\n], \"displayTimeUnit\": \"ms\"}\n";
  const std::vector<perfbench::Span> spans = perfbench::parse_trace(json);
  perfbench::LayerTimes t;
  for (const perfbench::Span& s : spans) {
    if (s.tid == 1) t.add(s);
  }
  check(spans.size() == 8, "parse_trace finds every span");
  check(near(t.name_ms("h.idlz") * 1000, 50 - 10 - 10), "h.idlz self time "
        "subtracts its children through the transparent chunk");
  check(near(t.name_ms("idlz.shape") * 1000, 10), "nested span keeps its own time");
  check(near(t.layer_ms(perfbench::Layer::kIdlz) * 1000, 50), "idlz layer total");
  check(near(t.layer_ms(perfbench::Layer::kFem) * 1000, 35), "fem layer total");
  check(near(t.total_layer_ms() * 1000, 85),
        "layers cover the op minus the harness's own glue");
  bool has_arg = false;
  for (const perfbench::Span& s : spans) {
    has_arg |= s.name == "fem.factorize" && s.segments == 7;
  }
  check(has_arg, "span arguments are parsed from the end event");
}

void test_open_loop_lateness() {
  // Four lines due 0, 5, 10, 15 ms. The consumer stalls 40 ms after the
  // first: the later lines go out late, and latency measured from the due
  // time charges them the stall.
  std::vector<double> due = {0, 5, 10, 15};
  perfbench::PacedInput buf({"a", "b", "c", "d"}, due);
  std::istream in(&buf);
  const perfbench::Clock::time_point t0 = perfbench::Clock::now();
  buf.start(t0);
  std::string line;
  std::vector<double> replied;
  while (std::getline(in, line)) {
    replied.push_back(perfbench::ms_between(t0, perfbench::Clock::now()));
    if (replied.size() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  }
  const std::vector<double>& rel = buf.released_ms();
  check(replied.size() == 4, "paced stream delivers every line");
  check(rel[0] >= 0.0 && rel[0] - due[0] < 20.0, "first line released on time");
  bool charged = true;
  for (int i = 1; i < 4; ++i) {
    charged &= rel[static_cast<size_t>(i)] - due[static_cast<size_t>(i)] >=
               40.0 - due[static_cast<size_t>(i)] - 1.0;
    charged &= replied[static_cast<size_t>(i)] - due[static_cast<size_t>(i)] >=
               40.0 - due[static_cast<size_t>(i)] - 1.0;
  }
  check(charged, "a stall charges its wait to the jobs due after it");
}

void test_residual_gate() {
  namespace fem = feio::fem;
  feio::DiagSink sink;
  const auto r = feio::run_idlz(feio::scenarios::strip_case(6, 4, 2), sink,
                                feio::RunOptions{});
  check(r.has_value(), "gate fixture idealizes");
  if (!r) return;
  fem::StaticProblem p(r->mesh, fem::Analysis::kPlaneStress);
  perfbench::set_canonical_problem(p, 2.0);
  fem::StaticSolution sol = fem::solve(p);
  const double clean = perfbench::residual_backward_error(p, sol.displacement);
  check(clean <= perfbench::kResidualTolerance, "gate accepts the solved field");

  std::size_t worst = 0;
  for (std::size_t i = 0; i < sol.displacement.size(); ++i) {
    if (std::abs(sol.displacement[i].y) > std::abs(sol.displacement[worst].y)) {
      worst = i;
    }
  }
  std::vector<feio::geom::Vec2> bad = sol.displacement;
  bad[worst].y *= 1.0 + 1e-5;
  check(perfbench::residual_backward_error(p, bad) >
            perfbench::kResidualTolerance,
        "gate rejects a perturbed displacement vector");
  bad = sol.displacement;
  bad[static_cast<size_t>(p.constraints().front().node)].x = 1e-3;
  check(!std::isfinite(perfbench::residual_backward_error(p, bad)),
        "gate rejects a violated constraint");
}

void test_metric_names() {
  bool all = true;
  for (const auto* names : {&perfbench::end_to_end_metric_names(),
                            &perfbench::per_layer_metric_names()}) {
    for (const std::string& n : *names) all &= perfbench::valid_metric_name(n);
  }
  check(all, "every declared metric name uses only [A-Za-z0-9_.-]");
  check(!perfbench::valid_metric_name("op ms"), "space rejected");
  check(!perfbench::valid_metric_name("op/ms"), "slash rejected");
  check(!perfbench::valid_metric_name(".op"), "leading dot rejected");
  check(!perfbench::valid_metric_name(std::string(65, 'a')), "65 chars rejected");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_open_loop_lateness();
  test_residual_gate();
  test_metric_names();
  std::cout << (g_failures == 0 ? "all self-tests passed\n"
                                : std::to_string(g_failures) + " failed\n");
  return g_failures == 0 ? 0 : 1;
}

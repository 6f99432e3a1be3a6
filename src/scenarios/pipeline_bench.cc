#include "scenarios/pipeline_bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "feio/run_options.h"
#include "idlz/deck.h"
#include "idlz/listing.h"
#include "ospl/contour.h"
#include "ospl/interval.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/report.h"
#include "util/strings.h"

namespace feio::scenarios {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Exact fingerprint of a mesh (positions as bits, element triples): two
// runs are byte-identical iff their fingerprints match.
std::string mesh_fingerprint(const mesh::TriMesh& m) {
  std::ostringstream out;
  out.precision(17);
  for (int i = 0; i < m.num_nodes(); ++i) {
    out << m.pos(i).x << ',' << m.pos(i).y << ';';
  }
  for (int e = 0; e < m.num_elements(); ++e) {
    const mesh::Element& el = m.element(e);
    out << el.n[0] << ',' << el.n[1] << ',' << el.n[2] << ';';
  }
  return out.str();
}

std::string segments_fingerprint(
    const std::vector<ospl::ContourSegment>& segs) {
  std::ostringstream out;
  out.precision(17);
  for (const ospl::ContourSegment& s : segs) {
    out << s.level << ':' << s.element << ':' << s.a.x << ',' << s.a.y << ','
        << s.b.x << ',' << s.b.y << ':' << s.edge_a.a << '-' << s.edge_a.b
        << ':' << s.edge_b.a << '-' << s.edge_b.b << ';';
  }
  return out.str();
}

// A nodal field with enough curvature that every contour level crosses
// many elements.
std::vector<double> synthetic_field(const mesh::TriMesh& m) {
  std::vector<double> values;
  values.reserve(static_cast<size_t>(m.num_nodes()));
  for (int i = 0; i < m.num_nodes(); ++i) {
    const geom::Vec2 p = m.pos(i);
    values.push_back(p.x * p.x + p.y * p.y + 25.0 * std::sin(0.21 * p.x) *
                                                 std::cos(0.17 * p.y));
  }
  return values;
}

// One serial-vs-parallel measurement. `work` must be a pure function of
// the process-default thread count and return a fingerprint of its result
// for the identical check. Each arm runs once untimed (warm-up +
// fingerprint); the timed runs then alternate serial and parallel, so a
// change in the host's speed during the cell hits both arms alike. Each
// arm reports its fastest run — the least noisy estimator for a
// deterministic workload — and its spread, (max - min) / min over its
// timed runs, so a reader can tell a difference from noise.
struct Measurement {
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double serial_spread = 0.0;
  double parallel_spread = 0.0;
  bool identical = false;
};

template <typename Fn>
Measurement measure(int reps, int threads, Fn&& work) {
  const int arm_threads[2] = {1, threads};
  std::string fingerprint[2];
  for (int arm = 0; arm < 2; ++arm) {
    util::ScopedThreads guard(arm_threads[arm]);
    fingerprint[arm] = work();
  }
  std::vector<double> times[2];
  for (int r = 0; r < reps; ++r) {
    for (int arm = 0; arm < 2; ++arm) {
      util::ScopedThreads guard(arm_threads[arm]);
      const Clock::time_point start = Clock::now();
      work();
      times[arm].push_back(ms_since(start));
    }
  }
  double best[2] = {};
  double spread[2] = {};
  for (int arm = 0; arm < 2; ++arm) {
    const auto [lo, hi] =
        std::minmax_element(times[arm].begin(), times[arm].end());
    best[arm] = *lo;
    spread[arm] = (*hi - *lo) / std::max(*lo, 1e-9);
  }
  return {best[0], best[1], spread[0], spread[1],
          fingerprint[0] == fingerprint[1]};
}

// The report row of one measured cell.
PipelineBenchCase make_case(std::string name, std::string stage, int nodes,
                            int elements, std::int64_t work_items,
                            const Measurement& m) {
  PipelineBenchCase c;
  c.name = std::move(name);
  c.stage = std::move(stage);
  c.nodes = nodes;
  c.elements = elements;
  c.work_items = work_items;
  c.serial_ms = m.serial_ms;
  c.parallel_ms = m.parallel_ms;
  c.speedup = m.serial_ms / std::max(m.parallel_ms, 1e-9);
  c.serial_spread = m.serial_spread;
  c.parallel_spread = m.parallel_spread;
  c.identical = m.identical;
  return c;
}

// Batch fixture: four scenario decks driven through the recovering
// read + run_checked pipeline, per-deck sinks merged in input order —
// the same shape as `feio idlz a.b b.b c.b d.b`, on the process-default
// thread count.
std::string process_deck_batch(const std::vector<std::string>& decks) {
  std::vector<std::string> outputs(decks.size());
  util::parallel_for(
      static_cast<std::int64_t>(decks.size()),
      [&](std::int64_t i) {
        DiagSink sink;
        const auto cases = idlz::read_deck_string(
            decks[static_cast<size_t>(i)], sink,
            "bench" + std::to_string(i) + ".b");
        std::ostringstream out;
        for (const idlz::IdlzCase& c : cases) {
          const auto r = idlz::run_checked(c, sink, RunOptions{});
          if (r) out << idlz::print_listing(*r);
        }
        out << sink.render_json();
        outputs[static_cast<size_t>(i)] = out.str();
      });
  std::string merged;
  for (const std::string& o : outputs) merged += o;
  return merged;
}

}  // namespace

idlz::IdlzCase strip_case(int k_cells, int l_cells, int subs) {
  FEIO_REQUIRE(subs >= 1 && l_cells % subs == 0,
               "subdivision count must divide the row count");
  idlz::IdlzCase c;
  c.title = "BENCH STRIP " + std::to_string(k_cells) + "X" +
            std::to_string(l_cells);
  c.options.limits = idlz::Limits::unlimited();
  const int rows_per = l_cells / subs;
  for (int s = 0; s < subs; ++s) {
    idlz::Subdivision sub;
    sub.id = s + 1;
    sub.k1 = 1;
    sub.k2 = 1 + k_cells;
    sub.l1 = 1 + s * rows_per;
    sub.l2 = 1 + (s + 1) * rows_per;
    c.subdivisions.push_back(sub);

    idlz::ShapingSpec spec;
    spec.subdivision_id = sub.id;
    auto side = [&](int l) {
      idlz::ShapeLine line;
      line.k1 = sub.k1;
      line.l1 = l;
      line.k2 = sub.k2;
      line.l2 = l;
      line.p1 = {0.0, static_cast<double>(l - 1)};
      line.p2 = {static_cast<double>(k_cells), static_cast<double>(l - 1)};
      return line;
    };
    spec.lines = {side(sub.l1), side(sub.l2)};
    c.shaping.push_back(spec);
  }
  return c;
}

bool PipelineBenchReport::all_identical() const {
  return std::all_of(cases.begin(), cases.end(),
                     [](const PipelineBenchCase& c) { return c.identical; });
}

std::string PipelineBenchReport::render_json() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\n";
  out << report_header_json("bench");
  out << "  \"payload_schema\": \"feio.bench.pipeline/1\",\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"repetitions\": " << repetitions << ",\n";
  out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  out << "  \"all_identical\": " << (all_identical() ? "true" : "false")
      << ",\n";
  out << "  \"cases\": [";
  for (size_t i = 0; i < cases.size(); ++i) {
    const PipelineBenchCase& c = cases[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(c.name) << "\", \"stage\": \""
        << json_escape(c.stage) << "\", \"nodes\": " << c.nodes
        << ", \"elements\": " << c.elements
        << ", \"work_items\": " << c.work_items
        << ", \"serial_ms\": " << c.serial_ms
        << ", \"parallel_ms\": " << c.parallel_ms
        << ", \"speedup\": " << c.speedup
        << ", \"serial_spread\": " << c.serial_spread
        << ", \"parallel_spread\": " << c.parallel_spread
        << ", \"identical\": " << (c.identical ? "true" : "false") << "}";
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

std::string PipelineBenchReport::render_table() const {
  std::ostringstream out;
  out << "feio bench: " << threads << " threads ("
      << hardware_threads << " hardware), min of " << repetitions
      << " alternating reps\n";
  out << "  case                        serial ms  parallel ms  speedup  "
         "spread s/p  identical\n";
  for (const PipelineBenchCase& c : cases) {
    out << "  " << c.name;
    for (size_t pad = c.name.size(); pad < 28; ++pad) out << ' ';
    char row[96];
    std::snprintf(row, sizeof row,
                  "%9.3f  %11.3f  %6.2fx  %4.0f%%/%3.0f%%  %s\n",
                  c.serial_ms, c.parallel_ms, c.speedup,
                  100.0 * c.serial_spread, 100.0 * c.parallel_spread,
                  c.identical ? "yes" : "NO");
    out << row;
  }
  return out.str();
}

PipelineBenchReport run_pipeline_bench(int threads, bool quick) {
  PipelineBenchReport report;
  report.hardware_threads = util::hardware_threads();
  report.threads = threads <= 0 ? report.hardware_threads : threads;
  report.repetitions = quick ? 2 : 5;
  report.quick = quick;

  struct Size {
    const char* tag;
    int k, l, subs;
  };
  std::vector<Size> sizes = {{"strip40x60", 40, 60, 6}};
  if (!quick) sizes.push_back({"strip120x180", 120, 180, 12});
  sizes.push_back({"strip200x300", 200, 300, 20});
  if (quick) sizes.pop_back();  // quick mode: the Table 2 size only

  for (const Size& size : sizes) {
    const idlz::IdlzCase c = strip_case(size.k, size.l, size.subs);

    // Stage 1: node numbering + element creation.
    idlz::Assembly reference =
        idlz::assemble(c.subdivisions, c.options.limits, c.options.diagonals);
    const int nodes = reference.mesh.num_nodes();
    const int elements = reference.mesh.num_elements();
    {
      const Measurement m =
          measure(report.repetitions, report.threads, [&] {
            return mesh_fingerprint(
                idlz::assemble(c.subdivisions, c.options.limits,
                               c.options.diagonals)
                    .mesh);
          });
      report.cases.push_back(make_case(
          std::string("assemble/") + size.tag, "assemble", nodes, elements,
          static_cast<std::int64_t>(c.subdivisions.size()), m));
    }

    // Stage 2: shaping (re-assembles outside the stage fingerprint so the
    // timed work is shape() on a fresh integer-grid assembly; assembly
    // cost is included in the timing loop for both arms equally).
    {
      const Measurement m =
          measure(report.repetitions, report.threads, [&] {
            idlz::Assembly a = idlz::assemble(
                c.subdivisions, c.options.limits, c.options.diagonals);
            idlz::shape(c.subdivisions, c.shaping, a, c.options.limits);
            return mesh_fingerprint(a.mesh);
          });
      report.cases.push_back(make_case(
          std::string("shape/") + size.tag, "shape", nodes, elements,
          static_cast<std::int64_t>(c.subdivisions.size()), m));
    }

    // Stage 3: contour extraction over the shaped mesh.
    {
      idlz::Assembly shaped = idlz::assemble(c.subdivisions, c.options.limits,
                                             c.options.diagonals);
      idlz::shape(c.subdivisions, c.shaping, shaped, c.options.limits);
      const std::vector<double> values = synthetic_field(shaped.mesh);
      const double vmin = *std::min_element(values.begin(), values.end());
      const double vmax = *std::max_element(values.begin(), values.end());
      const std::vector<double> levels = ospl::contour_levels(
          vmin, vmax, ospl::auto_interval(vmin, vmax));
      const Measurement m =
          measure(report.repetitions, report.threads, [&] {
            return segments_fingerprint(
                ospl::extract_contours(shaped.mesh, values, levels));
          });
      report.cases.push_back(make_case(std::string("contours/") + size.tag,
                                       "contours", nodes, elements, elements,
                                       m));
    }
  }

  // Stage 4: a four-deck batch through the recovering pipeline. The decks
  // are distinct but similar-size strips that fit the paper's Table 2
  // limits (deck round-trips re-impose them), so the four lanes stay
  // balanced.
  {
    std::vector<std::string> decks = {
        idlz::write_deck({strip_case(20, 20, 4)}),
        idlz::write_deck({strip_case(22, 18, 6)}),
        idlz::write_deck({strip_case(16, 24, 6)}),
        idlz::write_deck({strip_case(21, 19, 1)}),
    };
    // The outer deck loop owns the parallelism here: worker threads fall
    // back to inline-serial for the nested per-stage calls.
    const Measurement m = measure(report.repetitions, report.threads,
                                  [&] { return process_deck_batch(decks); });
    report.cases.push_back(make_case("batch/4decks", "batch", 0, 0,
                                     static_cast<std::int64_t>(decks.size()),
                                     m));

    // One metered batch pass, outside the timed loops so metering overhead
    // never shows up in the reported times, supplies the report's embedded
    // metrics snapshot (counter totals are thread-count-invariant; the
    // parallel.* family is not — see docs/OBSERVABILITY.md).
    {
      util::MetricsRegistry metrics;
      util::ScopedMetricsInstall install(&metrics);
      util::ScopedThreads guard(report.threads);
      process_deck_batch(decks);
      report.metrics_json = metrics.render_body_json(4);
    }
  }

  return report;
}

}  // namespace feio::scenarios

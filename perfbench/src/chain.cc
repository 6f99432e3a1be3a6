// The two closed-loop chain workloads: one caller pushes deck after deck
// through cards -> IDLZ -> mesh validation -> fem::solve -> OSPL -> SVG,
// at 4 threads and, for every deck, again at 1 thread.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>

#include "cards/format_cache.h"
#include "feio/api.h"
#include "fem/solver.h"
#include "harness.h"
#include "idlz/deck.h"
#include "mesh/validate.h"
#include "ospl/deck.h"
#include "plot/svg.h"
#include "scenarios/pipeline_bench.h"
#include "scenarios/scenarios.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace perfbench {
namespace {

namespace ospl = feio::ospl;
namespace util = feio::util;

constexpr int kThreads = 4;

struct ChainDeck {
  std::string name;
  bool strip = false;  // deck class: strip, or shaped (figures, plates)
  std::string cards;   // IDLZ card deck, as written by idlz::write_deck
  double load = 1.0;
  bool unlimited = false;  // lift the Table 2 size limits after reading
};

struct OpOutput {
  bool ok = false;
  std::string error;
  double ms = 0.0;
  std::uint64_t fingerprint = 0;  // OSPL segments + SVG bytes
  DeckCounts counts;
  std::int64_t segments = 0;
  std::int64_t svg_bytes = 0;
};

// Displacement magnitude scaled to 0..1000, the nodal field OSPL contours
// (the OSPL value field is F10.3, so unscaled displacements would round
// to a flat field).
std::vector<double> field_of(const fem::StaticSolution& sol) {
  std::vector<double> v;
  v.reserve(sol.displacement.size());
  double vmax = 0.0;
  for (const feio::geom::Vec2& d : sol.displacement) {
    v.push_back(std::hypot(d.x, d.y));
    vmax = std::max(vmax, v.back());
  }
  if (vmax > 0.0) {
    for (double& x : v) x *= 1000.0 / vmax;
  }
  return v;
}

std::uint64_t fingerprint(const ospl::OsplResult& res, const std::string& svg) {
  std::uint64_t h = fnv1a(svg.data(), svg.size());
  for (const ospl::ContourSegment& s : res.segments) {
    const double v[5] = {s.level, s.a.x, s.a.y, s.b.x, s.b.y};
    h = fnv1a(v, sizeof v, h);
    h = fnv1a(&s.element, sizeof s.element, h);
  }
  return h;
}

// One deck through the whole chain at `threads` threads. Only the chain is
// timed; the residual gate runs after the clock stops.
OpOutput run_op(const ChainDeck& d, int threads, util::Tracer* tracer) {
  OpOutput out;
  util::ScopedThreads scoped(threads);
  feio::RunOptions ro;
  ro.threads = threads;
  ro.tracer = tracer;
  ro.validate_mesh = false;  // validated below, as its own layer
  ro.make_plots = false;
  ro.punch = false;
  feio::DiagSink sink;
  std::optional<idlz::IdlzResult> r;
  std::optional<fem::StaticProblem> problem;
  fem::StaticSolution sol;
  std::optional<ospl::OsplResult> res;
  std::string svg;
  try {
    const Clock::time_point t0 = Clock::now();
    {
      util::TraceSpan op("h.op");
      std::vector<idlz::IdlzCase> cases;
      {
        util::TraceSpan s("h.cards");
        cases = idlz::read_deck_string(d.cards, sink, d.name);
      }
      if (cases.size() != 1 || !sink.ok()) {
        out.error = "deck did not read back as one clean case";
        return out;
      }
      idlz::IdlzCase& c = cases.front();
      if (d.unlimited) c.options.limits = idlz::Limits::unlimited();
      {
        util::TraceSpan s("h.idlz");
        r = feio::run_idlz(c, sink, ro);
      }
      if (!r || !sink.ok()) {
        out.error = "idealization failed: " + sink.render_text();
        return out;
      }
      {
        util::TraceSpan s("h.mesh");
        if (!mesh::validate(r->mesh).ok()) {
          out.error = "mesh validation failed";
          return out;
        }
      }
      {
        util::TraceSpan s("h.fem");
        problem.emplace(r->mesh, fem::Analysis::kPlaneStress);
        set_canonical_problem(*problem, d.load);
        sol = fem::solve(*problem, ro);
      }
      ospl::OsplCase oc;
      oc.mesh = r->mesh;
      oc.values = field_of(sol);
      oc.title1 = d.name;
      oc.title2 = "DISPLACEMENT MAGNITUDE";
      {
        util::TraceSpan s("h.cards");
        const std::string text = ospl::write_deck(oc);
        oc = ospl::read_deck_string(text, sink, d.name + ".ospl");
        oc.limits = ospl::OsplLimits::unlimited();
      }
      {
        util::TraceSpan s("h.ospl");
        res = feio::run_ospl(oc, sink, ro);
      }
      if (!res || !sink.ok()) {
        out.error = "contouring failed: " + sink.render_text();
        return out;
      }
      {
        util::TraceSpan s("h.plot");
        svg = feio::plot::render_svg(res->plot);
      }
    }
    out.ms = ms_between(t0, Clock::now());
  } catch (const std::exception& e) {
    out.error = std::string("chain threw: ") + e.what();
    return out;
  }

  const double berr = residual_backward_error(*problem, sol.displacement);
  if (!(berr <= kResidualTolerance)) {
    out.error = "residual gate: backward error " + std::to_string(berr);
    return out;
  }
  out.counts = deck_counts(*problem);
  out.segments = static_cast<std::int64_t>(res->segments.size());
  out.svg_bytes = static_cast<std::int64_t>(svg.size());
  out.fingerprint = fingerprint(*res, svg);
  out.ok = true;
  return out;
}

std::string deck_of(idlz::IdlzCase c, bool renumber) {
  c.options.renumber_nodes = renumber;
  c.options.make_plots = false;
  c.options.punch_output = false;
  return idlz::write_deck({c});
}

// gallery_chain: every figure idealization of the paper's gallery plus
// three strips at the Table 2 limits (at most 500 nodes, 850 elements and
// a 40 x 60 integer grid), renumbering on. The seed picks every load.
std::vector<ChainDeck> gallery_decks(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> load(1.0, 5.0);
  std::vector<ChainDeck> decks;
  for (const feio::scenarios::NamedCase& nc :
       feio::scenarios::all_idealizations()) {
    decks.push_back({nc.id, false, deck_of(nc.c, true), load(rng), false});
  }
  const int strips[][3] = {{39, 10, 1}, {20, 20, 2}, {10, 39, 3}};
  for (const auto& [k, l, subs] : strips) {
    decks.push_back({"strip" + std::to_string(k) + "x" + std::to_string(l),
                     true, deck_of(feio::scenarios::strip_case(k, l, subs), true),
                     load(rng), false});
  }
  return decks;
}

// solve_chain: a wide strip (half-bandwidth about 200 dofs) renumbered by
// the deck's own NONUMB option, and a slotted plate left in deck order,
// whose envelope is ragged (banded storage would hold about 7x its
// envelope). The plate deck appears three times per cycle, each with its
// own load, so the median op is a plate op rather than a point between the
// two classes.
std::vector<ChainDeck> solve_decks(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> load(1.0, 5.0);
  std::vector<ChainDeck> decks;
  decks.push_back({"strip96x100", true,
                   deck_of(feio::scenarios::strip_case(96, 100, 4), true),
                   load(rng), true});
  const std::string plate =
      deck_of(slotted_plate_case(3, 20, 5, 3, 10, 1.0), false);
  for (int i = 0; i < 3; ++i) {
    decks.push_back(
        {"plate_slots" + std::to_string(i), false, plate, load(rng), true});
  }
  return decks;
}

struct ClassCounts {
  DeckCounts strip;
  DeckCounts shaped;
};

// One set-up: generate and write the decks, then warm every deck up
// through the chain once, recording the exact per-class operator counts.
// The warm-up runs at 1 thread: the 4-thread pool's hand-offs on these
// short calls are the noisiest part of an op, and set-up time should show
// work moved into set-up, not the pool.
struct Setup {
  std::vector<ChainDeck> decks;
  ClassCounts counts;
  std::string error;
};

Setup set_up(const RunConfig& cfg, bool solve) {
  Setup s;
  std::mt19937_64 rng(cfg.seed);
  s.decks = solve ? solve_decks(rng) : gallery_decks(rng);
  for (const ChainDeck& d : s.decks) {
    const OpOutput o = run_op(d, 1, nullptr);
    if (!o.ok) {
      s.error = d.name + ": " + o.error;
      return s;
    }
    add_counts(d.strip ? s.counts.strip : s.counts.shaped, o.counts);
  }
  return s;
}

// Schedules the measured pairs: decks in a seeded order per cycle, each
// deck at both thread counts, the arm order alternating pair by pair so
// neither arm always runs on the other's warm caches.
struct Pair {
  std::size_t deck = 0;
  bool parallel_first = true;
};

class Schedule {
 public:
  Schedule(std::size_t decks, std::uint64_t seed) : n_(decks), rng_(seed) {}
  Pair next() {
    if (pos_ == order_.size()) {
      order_.resize(n_);
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      std::shuffle(order_.begin(), order_.end(), rng_);
      pos_ = 0;
    }
    Pair p{order_[pos_++], count_ % 2 == 0};
    ++count_;
    return p;
  }

 private:
  std::size_t n_;
  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
  std::size_t count_ = 0;
};

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  bool check(const ChainDeck& d, const OpOutput& o) {
    ++attempted;
    if (o.ok) return true;
    ++failed;
    if (failures.size() < 5) failures.push_back(d.name + ": " + o.error);
    return false;
  }
};

// Runs both arms of one pair untraced; returns {parallel, serial}. A
// 1-vs-4-thread mismatch of the OSPL segments or the SVG fails the
// parallel op.
std::pair<OpOutput, OpOutput> run_pair(const ChainDeck& d, bool parallel_first,
                                       Tally& tally) {
  OpOutput par, ser;
  if (parallel_first) {
    par = run_op(d, kThreads, nullptr);
    ser = run_op(d, 1, nullptr);
  } else {
    ser = run_op(d, 1, nullptr);
    par = run_op(d, kThreads, nullptr);
  }
  if (par.ok && ser.ok && par.fingerprint != ser.fingerprint) {
    par.ok = false;
    par.error = "OSPL segments or SVG differ between 1 and 4 threads";
  }
  tally.check(d, par);
  tally.check(d, ser);
  return {par, ser};
}

bool same_decks(const std::vector<ChainDeck>& a,
                const std::vector<ChainDeck>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ChainDeck& x, const ChainDeck& y) {
                      return x.cards == y.cards && x.load == y.load;
                    });
}

RunResult run_chain(const RunConfig& cfg, bool solve) {
  RunResult result;
  // The first set-up makes the decks; the others are spread evenly over
  // the measuring time (which excludes them), so setup_s samples the same
  // stretch of machine time as the ops do. Every set-up of a seed must
  // make the same decks.
  std::vector<double> setup_s;
  Setup setup;
  auto timed_set_up = [&]() {
    const Clock::time_point t0 = Clock::now();
    Setup again = set_up(cfg, solve);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (again.error.empty() && setup_s.size() > 1 &&
        !same_decks(again.decks, setup.decks)) {
      again.error = "a repeated set-up made different decks";
    }
    if (!again.error.empty()) {
      result.correct = false;
      result.attempted = result.failed = 1;
      result.notes.push_back("set-up failed: " + again.error);
      return false;
    }
    if (setup_s.size() == 1) setup = std::move(again);
    return true;
  };
  if (!timed_set_up()) return result;
  const std::vector<ChainDeck>& decks = setup.decks;

  Schedule schedule(decks.size(), cfg.seed ^ 0x5bd1e995u);
  Tally tally;
  std::vector<double> par_ms, ser_ms, strip_ms, shaped_ms, traced_ms;
  std::vector<double> strip_ser_ms, shaped_ser_ms;
  std::int64_t slo_ok = 0, par_attempted = 0;
  LayerTimes layers, strip_layers, shaped_layers, serial_layers;
  double traced_strip_ms = 0.0, traced_shaped_ms = 0.0, traced_serial_ms = 0.0;
  double flops = 0.0, segments = 0.0, svg_bytes = 0.0;
  std::int64_t factorizations = 0;
  const auto fmt0 = feio::cards::format_cache_stats();

  const Clock::time_point start = Clock::now();
  double paused_s = 0.0;  // spent in the later set-ups
  auto measured_s = [&] {
    return ms_between(start, Clock::now()) / 1000.0 - paused_s;
  };
  while (measured_s() < cfg.seconds) {
    if (setup_s.size() < static_cast<std::size_t>(kSetups) &&
        measured_s() >= cfg.seconds * static_cast<double>(setup_s.size()) /
                            kSetups) {
      if (!timed_set_up()) return result;
      paused_s += setup_s.back();
      continue;
    }
    const Pair p = schedule.next();
    const ChainDeck& d = decks[p.deck];
    if (cfg.trace) {
      // Traced ops on fresh tracers at both thread counts, then the
      // untraced pair.
      for (const int threads : {kThreads, 1}) {
        auto tracer = std::make_unique<util::Tracer>();
        tracer->install();
        const OpOutput t = run_op(d, threads, tracer.get());
        tracer->uninstall();
        if (!tally.check(d, t)) continue;
        const std::vector<Span> spans = parse_trace(tracer->render_json());
        int op_tid = -1;
        for (const Span& s : spans) {
          if (s.name == "h.op") op_tid = s.tid;
        }
        if (threads == 1) {
          for (const Span& s : spans) {
            if (s.tid == op_tid) serial_layers.add(s);
          }
          traced_serial_ms += t.ms;
          continue;
        }
        traced_ms.push_back(t.ms);
        LayerTimes& cls = d.strip ? strip_layers : shaped_layers;
        for (const Span& s : spans) {
          if (s.tid != op_tid) continue;
          layers.add(s);
          cls.add(s);
          if (s.name == "fem.factorize") ++factorizations;
        }
        (d.strip ? traced_strip_ms : traced_shaped_ms) += t.ms;
        flops += static_cast<double>(t.counts.factor_flops);
        segments += static_cast<double>(t.segments);
        svg_bytes += static_cast<double>(t.svg_bytes);
      }
    }
    const auto [par, ser] = run_pair(d, p.parallel_first, tally);
    ++par_attempted;
    if (par.ok) {
      par_ms.push_back(par.ms);
      (d.strip ? strip_ms : shaped_ms).push_back(par.ms);
      if (par.ms <= cfg.slo_ms) ++slo_ok;
    }
    if (ser.ok) {
      ser_ms.push_back(ser.ms);
      (d.strip ? strip_ser_ms : shaped_ser_ms).push_back(ser.ms);
    }
  }

  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.correct = tally.failed == 0;
  for (const std::string& f : tally.failures) {
    result.notes.push_back("FAILED " + f);
  }
  if (strip_ms.empty() || shaped_ms.empty() || strip_ser_ms.empty() ||
      shaped_ser_ms.empty() || (cfg.trace && traced_ms.empty())) {
    result.correct = false;
    result.notes.push_back("too few successful operations to report");
    return result;
  }

  const double op_p50 = median(par_ms);
  result.notes.push_back(setup_note(setup_s));
  result.notes.push_back("ops: " + std::to_string(par_ms.size()) +
                         " at 4 threads, " + std::to_string(ser_ms.size()) +
                         " at 1 thread");
  result.notes.push_back(
      "class medians at 4 / 1 threads: strip " + std::to_string(median(strip_ms)) +
      " / " + std::to_string(median(strip_ser_ms)) + " ms, shaped " +
      std::to_string(median(shaped_ms)) + " / " +
      std::to_string(median(shaped_ser_ms)) + " ms");
  if (const auto p99 = tail_percentile(par_ms, 0.99)) {
    result.notes.push_back("op_ms_p99 " + std::to_string(*p99) + " ms");
  } else {
    result.notes.push_back(
        "op_ms_p99 omitted: fewer than 10 samples beyond it");
  }

  if (!cfg.trace) {
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", op_p50, "ms"},
        {"serial_op_ms_p50", median(ser_ms), "ms"},
        {"strip_op_ms_p50", median(strip_ms), "ms"},
        {"shaped_op_ms_p50", median(shaped_ms), "ms"},
        {"slo_share",
          static_cast<double>(slo_ok) / static_cast<double>(par_attempted),
          "share"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return result;
  }

  const auto fmt1 = feio::cards::format_cache_stats();
  const double fmt_hits = static_cast<double>(fmt1.hits - fmt0.hits);
  const double fmt_lookups =
      fmt_hits + static_cast<double>(fmt1.misses - fmt0.misses);
  const double ops = static_cast<double>(traced_ms.size());
  const double traced_total =
      std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
  const double factorize_s = layers.name_ms("fem.factorize") / 1000.0;
  auto per_op = [&](double v) { return v / ops; };
  result.metrics = {
      {"cards.read_ms", per_op(layers.layer_ms(Layer::kCards)), "ms"},
      {"cards.format_hit_rate", fmt_lookups > 0 ? fmt_hits / fmt_lookups : 0.0,
        "share"},
      {"idlz.run_ms", per_op(layers.layer_ms(Layer::kIdlz)), "ms"},
      {"idlz.assemble_ms", per_op(layers.name_ms("idlz.assemble")), "ms"},
      {"idlz.shape_ms", per_op(layers.name_ms("idlz.shape")), "ms"},
      {"idlz.reform_ms", per_op(layers.name_ms("idlz.reform")), "ms"},
      {"idlz.renumber_ms", per_op(layers.name_ms("idlz.renumber")), "ms"},
      {"mesh.validate_ms", per_op(layers.layer_ms(Layer::kMesh)), "ms"},
      {"fem.solve_ms", per_op(layers.layer_ms(Layer::kFem)), "ms"},
      {"fem.assemble_ms", per_op(layers.name_ms("fem.assemble")), "ms"},
      {"fem.factorize_ms", per_op(layers.name_ms("fem.factorize")), "ms"},
      {"fem.factor_gflops", factorize_s > 0 ? flops / factorize_s / 1e9 : 0.0,
        "GFLOP/s"},
      // The chains pass no factor cache: every solve factorizes, so
      // factorizations per traced solve read 1.
      {"fem.factor_hit_rate", 0.0, "share"},
      {"fem.factor_misses_per_operator",
        static_cast<double>(factorizations) / ops, "ratio"},
      {"ospl.run_ms", per_op(layers.layer_ms(Layer::kOspl)), "ms"},
      {"ospl.segments", per_op(segments), "count"},
      {"plot.svg_ms", per_op(layers.layer_ms(Layer::kPlot)), "ms"},
      {"plot.svg_bytes", per_op(svg_bytes), "bytes"},
      // A closed loop has no queue: an op's run time is its latency.
      {"serve.run_ms_p50", op_p50, "ms"},
      {"serve.queue_wait_ms_p50", 0.0, "ms"},
      {"serve.rejected_share", 0.0, "share"},
      {"parallel.speedup", median(ser_ms) / op_p50, "ratio"},
      {"gen.late_ms_p99", 0.0, "ms"},
      {"trace.overhead_ratio", median(traced_ms) / op_p50, "ratio"},
      {"trace.coverage", layers.total_layer_ms() / traced_total, "share"},
      {"trace.fem_share", layers.layer_ms(Layer::kFem) / traced_total,
        "share"},
      {"trace.idlz_mesh_share",
        (layers.layer_ms(Layer::kIdlz) + layers.layer_ms(Layer::kMesh)) /
            traced_total,
        "share"},
  };
  const std::vector<Metric> counts =
      count_metrics(setup.counts.strip, setup.counts.shaped);
  result.metrics.insert(result.metrics.end(), counts.begin(), counts.end());
  result.notes.push_back("traced layer shares, strip class: " +
                         layer_shares(strip_layers, traced_strip_ms));
  result.notes.push_back("traced layer shares, shaped class: " +
                         layer_shares(shaped_layers, traced_shaped_ms));
  result.notes.push_back("traced layer shares at 1 thread: " +
                         layer_shares(serial_layers, traced_serial_ms));
  return result;
}

}  // namespace

RunResult run_gallery_chain(const RunConfig& cfg) {
  return run_chain(cfg, false);
}

RunResult run_solve_chain(const RunConfig& cfg) {
  return run_chain(cfg, true);
}

}  // namespace perfbench

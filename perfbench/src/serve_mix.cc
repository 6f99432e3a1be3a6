// serve_mix: an open loop of independent analysts. Jobs arrive as a seeded
// Poisson stream at one fixed rate and are fed to serve::serve_stdin_jsonl
// through a paced input stream; every reply is timestamped as it is
// written, and a job's latency runs from its due time to its reply.
#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <random>
#include <set>

#include "feio/api.h"
#include "feio/serve.h"
#include "fem/solver.h"
#include "harness.h"
#include "idlz/deck.h"
#include "ospl/deck.h"
#include "scenarios/scenarios.h"
#include "util/diag.h"
#include "util/trace.h"

namespace perfbench {
namespace {

namespace ospl = feio::ospl;
namespace serve = feio::serve;
namespace util = feio::util;

// Offered load of the 4-worker arm, jobs per second (burst copies
// included): the workers are about an eighth busy on 4 cores. Replies
// leave in stream order, so a warm job finishing behind a cold one waits
// for it; at a quarter or half of capacity about half the warm jobs wait,
// and the median latency swung by a third from one run to the next. The
// serial arm runs one worker at a quarter of the rate, the same
// utilization.
constexpr double kRate = 110.0;
constexpr int kWorkers = 4;

// Mix per arrival event: a warm solve, a cold strip deck (one in four of
// them a burst of 4 identical copies due at the same moment), or an OSPL
// job. Per job this is about 76% warm, 19% cold and 5% OSPL.
constexpr double kColdEvent = 0.12;
constexpr double kOsplEvent = 0.05;
constexpr double kBurstShare = 0.25;
constexpr int kBurstCopies = 4;
constexpr double kJobsPerEvent =
    1.0 + kColdEvent * kBurstShare * (kBurstCopies - 1);

// Gallery decks repeated by the warm jobs, and the meshes the OSPL jobs
// contour. Serve's canonical problem clamps only the nodes on the minimum-x
// line, which leaves most figure meshes (a single node there) singular;
// these four are the larger of the ones it holds.
const char* const kWarmIds[] = {"fig01", "fig02", "fig14", "kirsch"};
const char* const kOsplIds[] = {"fig02", "kirsch", "fig11"};

// Warm jobs draw their load_case from 0..kMaxLoadCase.
constexpr int kMaxLoadCase = 7;

enum class JobClass : char { kWarm = 'w', kCold = 'c', kOspl = 'o' };

struct JobSpec {
  double due_ms = 0.0;
  JobClass cls = JobClass::kWarm;
  std::string id;
  std::string line;
  int deck = 0;  // index into the class's deck list (cold: its own deck)
};

std::string job_line(const std::string& id, const std::string& tenant,
                     const char* kind, const std::string& deck,
                     std::int64_t load_case) {
  std::string line = "{\"schema\": \"feio.job/1\", \"id\": \"" +
                     feio::json_escape(id) + "\", \"tenant\": \"" + tenant +
                     "\", \"kind\": \"" + kind + "\", \"deck\": \"" +
                     feio::json_escape(deck) + "\"";
  if (load_case >= 0) line += ", \"load_case\": " + std::to_string(load_case);
  return line + "}";
}

// The deck texts a stream draws from, and their exact operator counts.
struct Decks {
  std::vector<std::string> warm;
  std::vector<DeckCounts> warm_counts;
  std::vector<std::string> ospl;
  int cold = 0;  // cold decks generated so far (each is new)
  std::string cold_probe;  // a deck of the cold decks' topology
  DeckCounts cold_counts;
};

// Idealizes a deck exactly as a serve job does and returns the operator
// counts of each of its meshes, summed.
DeckCounts counts_of(const std::string& deck, mesh::TriMesh* mesh_out) {
  feio::DiagSink sink;
  feio::RunOptions ro;
  ro.threads = 1;
  ro.make_plots = false;
  ro.punch = false;
  DeckCounts total;
  for (const idlz::IdlzCase& c : idlz::read_deck_string(deck, sink)) {
    const std::optional<idlz::IdlzResult> r = feio::run_idlz(c, sink, ro);
    if (!r || !sink.ok()) throw std::runtime_error(sink.render_text());
    fem::StaticProblem p(r->mesh, fem::Analysis::kPlaneStress);
    add_counts(total, deck_counts(p));
    if (mesh_out != nullptr) *mesh_out = r->mesh;
  }
  return total;
}

std::string cold_deck(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> scale(16.0, 24.0);
  idlz::IdlzCase c = interleaved_strip_case(scale(rng), scale(rng));
  c.options.renumber_nodes = false;
  return idlz::write_deck({c});
}

Decks make_decks(std::mt19937_64& rng) {
  Decks d;
  for (const feio::scenarios::NamedCase& nc :
       feio::scenarios::all_idealizations()) {
    for (const char* id : kWarmIds) {
      if (nc.id != id) continue;
      idlz::IdlzCase c = nc.c;
      c.options.renumber_nodes = true;
      c.options.make_plots = false;
      c.options.punch_output = false;
      d.warm.push_back(idlz::write_deck({c}));
      d.warm_counts.push_back(counts_of(d.warm.back(), nullptr));
    }
    for (const char* id : kOsplIds) {
      if (nc.id != id) continue;
      ospl::OsplCase oc;
      counts_of(idlz::write_deck({nc.c}), &oc.mesh);
      std::uniform_real_distribution<double> phase(0.0, 6.0);
      const double a = phase(rng), b = phase(rng);
      const feio::geom::BBox box = oc.mesh.bounds();
      for (int n = 0; n < oc.mesh.num_nodes(); ++n) {
        const double x = (oc.mesh.pos(n).x - box.lo.x) / box.width();
        const double y = (oc.mesh.pos(n).y - box.lo.y) / box.height();
        oc.values.push_back(500.0 + 400.0 * std::sin(3.0 * x + a) *
                                        std::cos(2.0 * y + b));
      }
      oc.title1 = nc.id;
      oc.title2 = "SYNTHETIC FIELD";
      d.ospl.push_back(ospl::write_deck(oc));
    }
  }
  // Every cold deck shares one topology; only its size is seeded.
  std::mt19937_64 probe(rng());
  d.cold_probe = cold_deck(probe);
  d.cold_counts = counts_of(d.cold_probe, nullptr);
  return d;
}

// Serve's "solve" pipeline keeps no displacements, so its envelopes only
// say that a solve ran. The gate re-solves decks of each solve class under
// serve's own canonical problem (plane stress, E=1000 nu=0.3, every node
// on the minimum-x line clamped, a load of -(1 + load_case) at the first
// maximum-x node) and checks the residual: every warm deck at every load
// case, and the cold probe deck. Returns the number of solves checked.
int gate_serve_solves(const Decks& decks, std::vector<std::string>& failures) {
  int checked = 0;
  auto check = [&](const std::string& deck, std::int64_t load_case,
                   const std::string& what) {
    ++checked;
    try {
      feio::DiagSink sink;
      feio::RunOptions ro;
      ro.threads = 1;
      ro.make_plots = false;
      ro.punch = false;
      for (const idlz::IdlzCase& c : idlz::read_deck_string(deck, sink)) {
        const std::optional<idlz::IdlzResult> r = feio::run_idlz(c, sink, ro);
        if (!r || !sink.ok()) throw std::runtime_error(sink.render_text());
        const mesh::TriMesh& m = r->mesh;
        fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
        p.set_material(fem::Material::isotropic(1000.0, 0.3));
        double min_x = m.pos(0).x, max_x = m.pos(0).x;
        int load_node = 0;
        for (int n = 0; n < m.num_nodes(); ++n) {
          min_x = std::min(min_x, m.pos(n).x);
          if (m.pos(n).x > max_x) {
            max_x = m.pos(n).x;
            load_node = n;
          }
        }
        for (int n = 0; n < m.num_nodes(); ++n) {
          if (m.pos(n).x == min_x) p.fix(n, true, true);
        }
        p.point_load(load_node, {0.0, -1.0 - static_cast<double>(load_case)});
        const double berr =
            residual_backward_error(p, fem::solve(p, ro).displacement);
        if (!(berr <= kResidualTolerance)) {
          throw std::runtime_error("backward error " + std::to_string(berr));
        }
      }
    } catch (const std::exception& e) {
      failures.push_back("serve residual gate, " + what + ": " + e.what());
    }
  };
  for (std::size_t i = 0; i < decks.warm.size(); ++i) {
    for (std::int64_t lc = 0; lc <= kMaxLoadCase; ++lc) {
      check(decks.warm[i], lc,
            "warm deck " + std::to_string(i) + " load case " +
                std::to_string(lc));
    }
  }
  check(decks.cold_probe, 0, "cold probe deck");
  return checked;
}

// A Poisson stream of `seconds` at `rate` jobs/s. Cold decks are new per
// event and numbered by decks.cold.
std::vector<JobSpec> make_stream(std::mt19937_64& rng, double rate,
                                 double seconds, Decks& decks,
                                 const std::string& prefix) {
  std::exponential_distribution<double> gap(rate / kJobsPerEvent / 1000.0);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> load_case(0, kMaxLoadCase);
  std::vector<JobSpec> jobs;
  double t = 0.0;
  int events = 0;
  while (true) {
    t += gap(rng);
    if (t >= seconds * 1000.0) break;
    const std::string tenant = u(rng) < 0.5 ? "tenant_a" : "tenant_b";
    const double roll = u(rng);
    const std::string ev = prefix + std::to_string(events++);
    if (roll < kColdEvent) {
      const int copies = u(rng) < kBurstShare ? kBurstCopies : 1;
      const std::string deck = cold_deck(rng);
      for (int i = 0; i < copies; ++i) {
        const std::string id = "cold-" + ev + "-" + std::to_string(i);
        jobs.push_back({t, JobClass::kCold, id,
                        job_line(id, tenant, "solve", deck, 0), decks.cold});
      }
      ++decks.cold;
    } else if (roll < kColdEvent + kOsplEvent) {
      const int deck = static_cast<int>(u(rng) * decks.ospl.size());
      const std::string id = "ospl-" + ev;
      jobs.push_back({t, JobClass::kOspl, id,
                      job_line(id, tenant, "ospl",
                               decks.ospl[static_cast<std::size_t>(deck)], -1),
                      deck});
    } else {
      const int deck = static_cast<int>(u(rng) * decks.warm.size());
      const std::string id = "warm-" + ev;
      jobs.push_back({t, JobClass::kWarm, id,
                      job_line(id, tenant, "solve",
                               decks.warm[static_cast<std::size_t>(deck)],
                               load_case(rng)),
                      deck});
    }
  }
  return jobs;
}

struct Session {
  serve::ServeSummary summary;
  std::vector<double> latency;  // due -> reply, ms, per job in input order
  std::vector<double> elapsed;  // the envelope's elapsed_ms
  std::vector<double> late;     // release - due
  std::vector<bool> ok;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Span> spans;      // traced sessions only
};

Session run_session(const std::vector<JobSpec>& jobs, int workers,
                    util::Tracer* tracer) {
  Session s;
  std::vector<std::string> lines;
  std::vector<double> due;
  for (const JobSpec& j : jobs) {
    lines.push_back(j.line);
    due.push_back(j.due_ms);
  }
  PacedInput in_buf(std::move(lines), std::move(due));
  StampedOutput out_buf;
  std::istream in(&in_buf);
  std::ostream out(&out_buf);
  serve::ServeOptions opts;
  opts.threads = workers;
  opts.tracer = tracer;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  in_buf.start(t0);
  out_buf.start(t0);
  s.summary = serve::serve_stdin_jsonl(in, out, opts);
  const std::vector<StampedOutput::Line> replies = out_buf.take();
  if (tracer != nullptr) s.spans = parse_trace(tracer->render_json());

  auto fail = [&](const std::string& why) {
    ++s.failed;
    if (s.failures.size() < 5) s.failures.push_back(why);
  };
  const std::size_t n = jobs.size();
  s.latency.assign(n, 0.0);
  s.elapsed.assign(n, 0.0);
  s.ok.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    s.late.push_back(in_buf.released_ms()[i] - jobs[i].due_ms);
    if (i >= replies.size()) {
      fail(jobs[i].id + ": no reply");
      continue;
    }
    const std::string& r = replies[i].text;
    // Replies arrive in stream order, one per job.
    if (field(r, "seq") != std::to_string(i) || field(r, "id") != jobs[i].id) {
      fail(jobs[i].id + ": reply out of stream order");
      continue;
    }
    if (field(r, "status") != "ok") {
      fail(jobs[i].id + ": status " + std::string(field(r, "status")) + ": " +
           std::string(field(r, "message")));
      continue;
    }
    s.ok[i] = true;
    s.latency[i] = replies[i].at_ms - jobs[i].due_ms;
    s.elapsed[i] = std::strtod(std::string(field(r, "elapsed_ms")).c_str(), nullptr);
  }
  if (replies.size() > n) fail("more replies than jobs");
  const serve::ServeSummary& m = s.summary;
  if (m.jobs != static_cast<std::int64_t>(n) ||
      m.ok + m.rejected + m.timed_out + m.faulted + m.errors != m.jobs) {
    fail("summary buckets do not sum to the job count");
  }
  return s;
}

std::vector<double> select(const Session& s, const std::vector<JobSpec>& jobs,
                           const std::vector<double>& v,
                           std::optional<JobClass> cls) {
  std::vector<double> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (s.ok[i] && (!cls || jobs[i].cls == *cls)) out.push_back(v[i]);
  }
  return out;
}

// Per-class layer self times of a traced session. On each worker lane a
// job's spans run from its deck read (which names the job) to the next.
struct ClassLayers {
  LayerTimes warm, cold, all;
  double flops = 0.0;
  double factorize_ms = 0.0;
  double segments = 0.0;
};

ClassLayers attribute(const Session& s, const std::vector<JobSpec>& jobs,
                      const Decks& decks) {
  std::map<std::string, std::size_t> by_id;
  for (std::size_t i = 0; i < jobs.size(); ++i) by_id[jobs[i].id] = i;
  // Order spans by (lane, begin) to walk each lane's jobs in turn.
  std::vector<std::size_t> order(s.spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = s.spans[a];
    const Span& y = s.spans[b];
    return x.tid != y.tid ? x.tid < y.tid : x.begin_us < y.begin_us;
  });
  ClassLayers out;
  int lane = -1;
  const JobSpec* job = nullptr;
  for (const std::size_t idx : order) {
    const Span& sp = s.spans[idx];
    if (sp.tid != lane) {
      lane = sp.tid;
      job = nullptr;
    }
    if (sp.parent < 0 &&
        (sp.name == "idlz.read_deck" || sp.name == "ospl.read_deck")) {
      const auto it = sp.deck.rfind("job:", 0) == 0
                          ? by_id.find(sp.deck.substr(4))
                          : by_id.end();
      job = it == by_id.end() ? nullptr : &jobs[it->second];
    }
    if (job == nullptr) continue;
    out.all.add(sp);
    if (job->cls == JobClass::kWarm) out.warm.add(sp);
    if (job->cls == JobClass::kCold) out.cold.add(sp);
    if (sp.name == "fem.factorize") {
      const DeckCounts& c =
          job->cls == JobClass::kCold
              ? decks.cold_counts
              : decks.warm_counts[static_cast<std::size_t>(job->deck)];
      out.flops += static_cast<double>(c.factor_flops);
      out.factorize_ms += sp.self_us / 1000.0;
    }
    if (sp.segments >= 0) out.segments += static_cast<double>(sp.segments);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

struct Setup {
  Decks decks;
  std::vector<JobSpec> main, traced, serial;
};

// Input generation, deck writing and a warm-up session.
Setup set_up(const RunConfig& cfg, double main_s, double traced_s,
             double serial_s) {
  Setup s;
  std::mt19937_64 rng(cfg.seed);
  s.decks = make_decks(rng);
  s.main = make_stream(rng, kRate, main_s, s.decks, "m");
  s.traced = make_stream(rng, kRate, traced_s, s.decks, "t");
  s.serial = make_stream(rng, kRate / kWorkers, serial_s, s.decks, "s");
  std::mt19937_64 warm_rng(cfg.seed + 1);
  Decks scratch = s.decks;
  const std::vector<JobSpec> warmup =
      make_stream(warm_rng, kRate, 0.15, scratch, "warmup");
  run_session(warmup, kWorkers, nullptr);
  return s;
}

}  // namespace

RunResult run_serve_mix(const RunConfig& cfg) {
  RunResult result;
  const double main_s = cfg.seconds * (cfg.trace ? 0.35 : 0.65);
  const double traced_s = cfg.trace ? cfg.seconds * 0.35 : 0.0;
  const double serial_s = cfg.seconds * 0.3;

  // Set-ups are spread over the run, as on the chains: three before the
  // sessions and two after each of the two measured sessions. Every
  // set-up of a seed must make the same job streams.
  std::vector<double> setup_s;
  Setup setup;
  std::vector<std::string> setup_failures;
  auto timed_set_ups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      Setup again = set_up(cfg, main_s, traced_s, serial_s);
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
      if (setup_s.size() == 1) {
        setup = std::move(again);
      } else if (again.main.size() != setup.main.size() ||
                 !std::equal(again.main.begin(), again.main.end(),
                             setup.main.begin(),
                             [](const JobSpec& a, const JobSpec& b) {
                               return a.line == b.line && a.due_ms == b.due_ms;
                             })) {
        setup_failures.push_back("a repeated set-up made a different stream");
      }
    }
  };
  timed_set_ups(kSetups - 4);
  std::vector<std::string> gate_failures;
  const int gated = gate_serve_solves(setup.decks, gate_failures);

  const Session main = run_session(setup.main, kWorkers, nullptr);
  timed_set_ups(2);
  const Session serial = run_session(setup.serial, 1, nullptr);
  timed_set_ups(2);
  std::unique_ptr<util::Tracer> tracer;
  Session traced;
  if (cfg.trace) {
    tracer = std::make_unique<util::Tracer>();
    traced = run_session(setup.traced, kWorkers, tracer.get());
  }

  for (const std::vector<std::string>* fs : {&setup_failures, &gate_failures}) {
    result.failed += static_cast<std::int64_t>(fs->size());
    for (const std::string& f : *fs) result.notes.push_back("FAILED " + f);
  }
  const Session* sessions[] = {&main, &serial, &traced};
  for (const Session* s : sessions) {
    result.failed += s->failed;
    for (const std::string& f : s->failures) result.notes.push_back("FAILED " + f);
  }
  result.attempted =
      static_cast<std::int64_t>(setup.main.size() + setup.serial.size() +
                                setup.traced.size()) +
      gated + static_cast<std::int64_t>(setup_failures.size());
  result.correct = result.failed == 0;

  const std::vector<double> lat = select(main, setup.main, main.latency, {});
  const std::vector<double> warm =
      select(main, setup.main, main.latency, JobClass::kWarm);
  const std::vector<double> cold =
      select(main, setup.main, main.latency, JobClass::kCold);
  const std::vector<double> ser = select(serial, setup.serial, serial.latency, {});
  if (lat.empty() || warm.empty() || cold.empty() || ser.empty()) {
    result.correct = false;
    result.notes.push_back("too few successful jobs to report");
    return result;
  }
  const double op_p50 = median(lat);
  result.notes.push_back(setup_note(setup_s));
  result.notes.push_back(
      "jobs: " + std::to_string(setup.main.size()) + " at 4 workers (" +
      std::to_string(warm.size()) + " warm, " + std::to_string(cold.size()) +
      " cold), " + std::to_string(setup.serial.size()) + " at 1 worker");
  if (const auto p99 = tail_percentile(lat, 0.99)) {
    result.notes.push_back("op_ms_p99 " + std::to_string(*p99) + " ms");
  } else {
    result.notes.push_back("op_ms_p99 omitted: fewer than 10 samples beyond it");
  }
  const std::vector<double> elapsed = select(main, setup.main, main.elapsed, {});
  result.notes.push_back(
      "worker utilization at 4 workers: " +
      std::to_string(kRate * sum(elapsed) / static_cast<double>(elapsed.size()) /
                     1000.0 / kWorkers));
  std::vector<double> wait;
  for (std::size_t i = 0; i < lat.size(); ++i) wait.push_back(lat[i] - elapsed[i]);
  if (const auto p99 = tail_percentile(wait, 0.99)) {
    result.notes.push_back("serve.queue_wait_ms_p99 " + std::to_string(*p99) + " ms");
  }

  if (!cfg.trace) {
    std::int64_t within = 0;
    for (std::size_t i = 0; i < setup.main.size(); ++i) {
      if (main.ok[i] && main.latency[i] <= cfg.slo_ms) ++within;
    }
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", op_p50, "ms"},
        {"serial_op_ms_p50", median(ser), "ms"},
        {"strip_op_ms_p50", median(cold), "ms"},
        {"shaped_op_ms_p50", median(warm), "ms"},
        {"slo_share",
          static_cast<double>(within) / static_cast<double>(setup.main.size()),
          "share"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return result;
  }

  const std::vector<double> traced_lat =
      select(traced, setup.traced, traced.latency, {});
  if (traced_lat.empty()) {
    result.correct = false;
    result.notes.push_back("too few successful traced jobs to report");
    return result;
  }
  const ClassLayers cl = attribute(traced, setup.traced, setup.decks);
  const double jobs = static_cast<double>(setup.traced.size());
  double ospl_jobs = 0.0;
  for (const JobSpec& j : setup.traced) ospl_jobs += j.cls == JobClass::kOspl;
  const double run_total = sum(select(traced, setup.traced, traced.elapsed, {}));
  const double warm_run = sum(
      select(traced, setup.traced, traced.elapsed, JobClass::kWarm));
  const double cold_run = sum(
      select(traced, setup.traced, traced.elapsed, JobClass::kCold));
  const serve::ServeSummary& ts = traced.summary;
  const double fmt_lookups =
      static_cast<double>(ts.format_hits + ts.format_misses);
  const double factor_lookups =
      static_cast<double>(ts.factor_hits + ts.factor_misses);
  std::set<std::pair<JobClass, int>> operators;
  for (const JobSpec& j : setup.traced) {
    if (j.cls != JobClass::kOspl) operators.insert({j.cls, j.deck});
  }
  std::vector<double> late = main.late;
  late.insert(late.end(), serial.late.begin(), serial.late.end());
  late.insert(late.end(), traced.late.begin(), traced.late.end());
  const std::optional<double> late_p99 = tail_percentile(late, 0.99);
  if (!late_p99) {
    result.correct = false;
    result.notes.push_back("gen.late_ms_p99: fewer than 10 samples beyond it");
    return result;
  }
  const LayerTimes& all = cl.all;
  auto per_job = [&](double v) { return v / jobs; };
  result.metrics = {
      {"cards.read_ms", per_job(all.layer_ms(Layer::kCards)), "ms"},
      {"cards.format_hit_rate",
        fmt_lookups > 0 ? static_cast<double>(ts.format_hits) / fmt_lookups : 0.0,
        "share"},
      {"idlz.run_ms", per_job(all.layer_ms(Layer::kIdlz)), "ms"},
      {"idlz.assemble_ms", per_job(all.name_ms("idlz.assemble")), "ms"},
      {"idlz.shape_ms", per_job(all.name_ms("idlz.shape")), "ms"},
      {"idlz.reform_ms", per_job(all.name_ms("idlz.reform")), "ms"},
      {"idlz.renumber_ms", per_job(all.name_ms("idlz.renumber")), "ms"},
      {"mesh.validate_ms", per_job(all.layer_ms(Layer::kMesh)), "ms"},
      {"fem.solve_ms", per_job(all.layer_ms(Layer::kFem)), "ms"},
      {"fem.assemble_ms", per_job(all.name_ms("fem.assemble")), "ms"},
      {"fem.factorize_ms", per_job(all.name_ms("fem.factorize")), "ms"},
      {"fem.factor_gflops",
        cl.factorize_ms > 0 ? cl.flops / (cl.factorize_ms / 1000.0) / 1e9 : 0.0,
        "GFLOP/s"},
      {"fem.factor_hit_rate",
        factor_lookups > 0 ? static_cast<double>(ts.factor_hits) / factor_lookups
                           : 0.0,
        "share"},
      {"fem.factor_misses_per_operator",
        static_cast<double>(ts.factor_misses) /
            static_cast<double>(std::max<std::size_t>(1, operators.size())),
        "ratio"},
      {"ospl.run_ms", per_job(all.layer_ms(Layer::kOspl)), "ms"},
      {"ospl.segments", ospl_jobs > 0 ? cl.segments / ospl_jobs : 0.0, "count"},
      // Serve renders no SVG.
      {"plot.svg_ms", per_job(all.layer_ms(Layer::kPlot)), "ms"},
      {"plot.svg_bytes", 0.0, "bytes"},
      {"serve.run_ms_p50", median(elapsed), "ms"},
      {"serve.queue_wait_ms_p50", median(wait), "ms"},
      {"serve.rejected_share",
        static_cast<double>(main.summary.rejected) /
            static_cast<double>(std::max<std::int64_t>(1, main.summary.jobs)),
        "share"},
      {"parallel.speedup", median(ser) / op_p50, "ratio"},
      {"gen.late_ms_p99", *late_p99, "ms"},
      {"trace.overhead_ratio", median(traced_lat) / op_p50, "ratio"},
      {"trace.coverage", all.total_layer_ms() / run_total, "share"},
      {"trace.fem_share", cl.cold.layer_ms(Layer::kFem) / cold_run, "share"},
      {"trace.idlz_mesh_share",
        (cl.warm.layer_ms(Layer::kIdlz) + cl.warm.layer_ms(Layer::kMesh)) /
            warm_run,
        "share"},
  };
  DeckCounts shaped;
  for (const DeckCounts& c : setup.decks.warm_counts) add_counts(shaped, c);
  const std::vector<Metric> counts =
      count_metrics(setup.decks.cold_counts, shaped);
  result.metrics.insert(result.metrics.end(), counts.begin(), counts.end());
  result.notes.push_back("traced layer shares of warm run time: " +
                         layer_shares(cl.warm, warm_run));
  result.notes.push_back("traced layer shares of cold run time: " +
                         layer_shares(cl.cold, cold_run));
  return result;
}

}  // namespace perfbench

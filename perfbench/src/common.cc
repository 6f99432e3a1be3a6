// Shared harness pieces: percentiles, metric rendering, the trace
// aggregator, the residual gate, deck generators and the serve streams.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <thread>

#include "fem/element.h"
#include "harness.h"
#include "mesh/bandwidth.h"

namespace perfbench {

// ---- Percentiles ---------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::optional<double> tail_percentile(const std::vector<double>& v, double p,
                                      int min_beyond) {
  if (v.empty()) return std::nullopt;
  const double value = percentile(v, p);
  const auto beyond = std::count_if(v.begin(), v.end(),
                                    [&](double x) { return x > value; });
  if (beyond < min_beyond) return std::nullopt;
  return value;
}

// ---- Metrics -------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "setup_s",          "op_ms_p50",        "serial_op_ms_p50",
      "strip_op_ms_p50",  "shaped_op_ms_p50", "slo_share",
      "peak_rss_mb",
  };
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "cards.read_ms",
      "cards.format_hit_rate",
      "idlz.run_ms",
      "idlz.assemble_ms",
      "idlz.shape_ms",
      "idlz.reform_ms",
      "idlz.renumber_ms",
      "idlz.strip_nodes",
      "idlz.shaped_nodes",
      "mesh.validate_ms",
      "mesh.strip_half_bandwidth",
      "mesh.shaped_half_bandwidth",
      "mesh.strip_profile",
      "mesh.shaped_profile",
      "fem.solve_ms",
      "fem.assemble_ms",
      "fem.factorize_ms",
      "fem.strip_dofs",
      "fem.shaped_dofs",
      "fem.strip_factor_flops",
      "fem.shaped_factor_flops",
      "fem.factor_gflops",
      "fem.factor_hit_rate",
      "fem.factor_misses_per_operator",
      "ospl.run_ms",
      "ospl.segments",
      "plot.svg_ms",
      "plot.svg_bytes",
      "serve.run_ms_p50",
      "serve.queue_wait_ms_p50",
      "serve.rejected_share",
      "parallel.speedup",
      "gen.late_ms_p99",
      "trace.overhead_ratio",
      "trace.coverage",
      "trace.fem_share",
      "trace.idlz_mesh_share",
  };
  return names;
}

std::string render_result(bool correct, std::int64_t attempted,
                          std::int64_t failed,
                          const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Trace aggregation ---------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kCards: return "cards";
    case Layer::kIdlz: return "idlz";
    case Layer::kMesh: return "mesh";
    case Layer::kFem: return "fem";
    case Layer::kOspl: return "ospl";
    case Layer::kPlot: return "plot";
    case Layer::kNone: break;
  }
  return "none";
}

Layer layer_of(std::string_view name) {
  auto starts = [&](std::string_view prefix) {
    return name.substr(0, prefix.size()) == prefix;
  };
  if (name == "h.cards" || name == "idlz.read_deck" ||
      name == "ospl.read_deck") {
    return Layer::kCards;
  }
  // Mesh validation: the harness's own call, or the one run_checked makes
  // inside a serve job.
  if (name == "h.mesh" || name == "idlz.validate") return Layer::kMesh;
  if (name == "h.idlz" || starts("idlz.")) return Layer::kIdlz;
  if (name == "h.fem" || starts("fem.")) return Layer::kFem;
  if (name == "h.ospl" || starts("ospl.")) return Layer::kOspl;
  if (name == "h.plot") return Layer::kPlot;
  return Layer::kNone;
}

std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern(1, '"');
  pattern.append(key).append("\": ");
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  std::size_t b = at + pattern.size();
  if (line[b] == '"') {
    std::size_t e = b + 1;
    while (e < line.size() && line[e] != '"') e += line[e] == '\\' ? 2 : 1;
    return line.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

namespace {

double to_double(std::string_view s) {
  return std::strtod(std::string(s).c_str(), nullptr);
}

}  // namespace

std::vector<Span> parse_trace(const std::string& json) {
  std::vector<Span> spans;
  std::map<int, std::vector<int>> open;  // tid -> stack of span indices
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view ph = field(line, "ph");
    if (ph != "B" && ph != "E") continue;
    const int tid = static_cast<int>(to_double(field(line, "tid")));
    const double ts = to_double(field(line, "ts"));
    std::vector<int>& stack = open[tid];
    if (ph == "B") {
      Span s;
      s.name = std::string(field(line, "name"));
      s.tid = tid;
      s.begin_us = ts;
      s.parent = stack.empty() ? -1 : stack.back();
      s.layer = layer_of(s.name);
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(std::move(s));
      continue;
    }
    if (stack.empty()) continue;  // unbalanced end: ignore
    Span& s = spans[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    s.end_us = ts;
    const std::size_t args = line.find("\"args\": {");
    if (args != std::string::npos) {
      const std::string_view a = std::string_view(line).substr(args + 8);
      s.deck = std::string(field(a, "deck"));
      const std::string_view segs = field(a, "segments");
      if (!segs.empty()) s.segments = static_cast<std::int64_t>(to_double(segs));
    }
  }
  // Spans still open when the trace was rendered have no duration.
  for (auto& [tid, stack] : open) {
    for (int i : stack) {
      spans[static_cast<std::size_t>(i)].end_us =
          spans[static_cast<std::size_t>(i)].begin_us;
    }
  }
  for (Span& s : spans) {
    if (s.layer != Layer::kNone) s.self_us = s.dur_us();
  }
  // Each layer span hands its duration to the nearest layer-owning
  // ancestor, looking through transparent spans.
  for (const Span& s : spans) {
    if (s.layer == Layer::kNone) continue;
    int p = s.parent;
    while (p >= 0 && spans[static_cast<std::size_t>(p)].layer == Layer::kNone) {
      p = spans[static_cast<std::size_t>(p)].parent;
    }
    if (p >= 0) spans[static_cast<std::size_t>(p)].self_us -= s.dur_us();
  }
  return spans;
}

void LayerTimes::add(const Span& s) {
  if (s.layer == Layer::kNone) return;
  layer_us[static_cast<int>(s.layer)] += s.self_us;
  name_self_us[s.name] += s.self_us;
}

double LayerTimes::name_ms(const std::string& name) const {
  const auto it = name_self_us.find(name);
  return it == name_self_us.end() ? 0.0 : it->second / 1000.0;
}

double LayerTimes::total_layer_ms() const {
  double sum = 0.0;
  for (int l = 1; l < kLayerCount; ++l) sum += layer_us[l];
  return sum / 1000.0;
}

// ---- Canonical analysis and the residual gate ----------------------------

void set_canonical_problem(fem::StaticProblem& p, double load) {
  const mesh::TriMesh& m = p.mesh();
  p.set_material(fem::Material::isotropic(1000.0, 0.3));
  const int nn = m.num_nodes();

  // Connected components over element connectivity (union-find).
  std::vector<int> root(static_cast<std::size_t>(nn));
  std::iota(root.begin(), root.end(), 0);
  auto find = [&](int a) {
    while (root[static_cast<std::size_t>(a)] != a) {
      a = root[static_cast<std::size_t>(a)] =
          root[static_cast<std::size_t>(root[static_cast<std::size_t>(a)])];
    }
    return a;
  };
  for (const mesh::Element& el : m.elements()) {
    for (int i = 1; i < 3; ++i) {
      const int a = find(el.n[0]);
      const int b = find(el.n[static_cast<std::size_t>(i)]);
      if (a != b) root[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    }
  }
  const feio::geom::BBox box = m.bounds();
  const double tol = 1e-9 * std::max(1.0, box.width());

  // Per component: nodes by ascending x (then index).
  std::map<int, std::vector<int>> members;
  for (int n = 0; n < nn; ++n) members[find(n)].push_back(n);
  for (auto& [comp, nodes] : members) {
    std::stable_sort(nodes.begin(), nodes.end(), [&](int a, int b) {
      return m.pos(a).x < m.pos(b).x;
    });
    const double min_x = m.pos(nodes.front()).x;
    std::size_t clamped = 0;
    while (clamped < nodes.size() &&
           m.pos(nodes[clamped]).x <= min_x + tol) {
      ++clamped;
    }
    if (clamped < 2 && nodes.size() >= 2) clamped = 2;
    for (std::size_t i = 0; i < clamped; ++i) p.fix(nodes[i], true, true);
  }

  int tip = 0;
  for (int n = 1; n < nn; ++n) {
    if (m.pos(n).x > m.pos(tip).x) tip = n;
  }
  p.point_load(tip, {0.0, -load});
}

double residual_backward_error(const fem::StaticProblem& p,
                               const std::vector<feio::geom::Vec2>& u) {
  const mesh::TriMesh& m = p.mesh();
  const std::size_t nd = static_cast<std::size_t>(p.num_dofs());
  if (u.size() * 2 != nd) return std::numeric_limits<double>::infinity();
  std::vector<double> ku(nd, 0.0);
  std::vector<double> row_abs(nd, 0.0);
  for (int e = 0; e < m.num_elements(); ++e) {
    const fem::DMatrix d =
        fem::constitutive(p.material_of(e), p.analysis());
    const fem::ElementMatrices em =
        fem::cst_matrices(m, e, d, p.analysis(), p.thickness());
    std::array<std::size_t, 6> dof{};
    std::array<double, 6> ue{};
    for (int a = 0; a < 3; ++a) {
      const int n = m.element(e).n[static_cast<std::size_t>(a)];
      dof[static_cast<std::size_t>(2 * a)] = static_cast<std::size_t>(2 * n);
      dof[static_cast<std::size_t>(2 * a + 1)] =
          static_cast<std::size_t>(2 * n + 1);
      ue[static_cast<std::size_t>(2 * a)] = u[static_cast<std::size_t>(n)].x;
      ue[static_cast<std::size_t>(2 * a + 1)] =
          u[static_cast<std::size_t>(n)].y;
    }
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        ku[dof[i]] += em.k[i][j] * ue[j];
        row_abs[dof[i]] += std::abs(em.k[i][j]);
      }
    }
  }
  std::vector<double> f;
  p.assemble_load_rhs(f);
  if (f.size() != nd) return std::numeric_limits<double>::infinity();

  std::vector<char> fixed(nd, 0);
  for (const fem::Constraint& c : p.constraints()) {
    const std::size_t n = static_cast<std::size_t>(c.node);
    if (c.fix_x) {
      fixed[2 * n] = 1;
      if (u[n].x != c.value_x) return std::numeric_limits<double>::infinity();
    }
    if (c.fix_y) {
      fixed[2 * n + 1] = 1;
      if (u[n].y != c.value_y) return std::numeric_limits<double>::infinity();
    }
  }
  double r_max = 0.0, k_max = 0.0, u_max = 0.0, f_max = 0.0;
  for (std::size_t i = 0; i < nd; ++i) {
    const double ui = i % 2 == 0 ? u[i / 2].x : u[i / 2].y;
    if (!std::isfinite(ui)) return std::numeric_limits<double>::infinity();
    u_max = std::max(u_max, std::abs(ui));
    f_max = std::max(f_max, std::abs(f[i]));
    if (fixed[i] != 0) continue;
    r_max = std::max(r_max, std::abs(ku[i] - f[i]));
    k_max = std::max(k_max, row_abs[i]);
  }
  const double scale = k_max * u_max + f_max;
  return scale > 0.0 ? r_max / scale : 0.0;
}

DeckCounts deck_counts(const fem::StaticProblem& p) {
  DeckCounts c;
  c.nodes = p.mesh().num_nodes();
  c.dofs = p.num_dofs();
  c.half_bandwidth = p.dof_half_bandwidth();
  c.profile = mesh::profile(p.mesh());
  const std::vector<int> lows = p.dof_skyline_lows();
  for (std::size_t i = 0; i < lows.size(); ++i) {
    const std::int64_t h = static_cast<std::int64_t>(i) - lows[i] + 1;
    c.factor_flops += h * h;
  }
  return c;
}

void add_counts(DeckCounts& into, const DeckCounts& c) {
  into.nodes += c.nodes;
  into.dofs += c.dofs;
  into.half_bandwidth = std::max(into.half_bandwidth, c.half_bandwidth);
  into.profile += c.profile;
  into.factor_flops += c.factor_flops;
}

std::vector<Metric> count_metrics(const DeckCounts& strip,
                                  const DeckCounts& shaped) {
  auto count = [](const char* name, std::int64_t v) {
    return Metric{name, static_cast<double>(v), "count"};
  };
  return {
      count("idlz.strip_nodes", strip.nodes),
      count("idlz.shaped_nodes", shaped.nodes),
      count("mesh.strip_half_bandwidth", strip.half_bandwidth),
      count("mesh.shaped_half_bandwidth", shaped.half_bandwidth),
      count("mesh.strip_profile", strip.profile),
      count("mesh.shaped_profile", shaped.profile),
      count("fem.strip_dofs", strip.dofs),
      count("fem.shaped_dofs", shaped.dofs),
      count("fem.strip_factor_flops", strip.factor_flops),
      count("fem.shaped_factor_flops", shaped.factor_flops),
  };
}

std::string layer_shares(const LayerTimes& t, double whole_ms) {
  std::string out;
  for (int l = 1; l < kLayerCount; ++l) {
    const double part = t.layer_ms(static_cast<Layer>(l));
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%s %.1f%%", l == 1 ? "" : ", ",
                  layer_name(static_cast<Layer>(l)),
                  whole_ms > 0 ? 100.0 * part / whole_ms : 0.0);
    out += buf;
  }
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- Deck generation -----------------------------------------------------

namespace {

// Straight horizontal shaping line across one grid row.
idlz::ShapeLine row_line(int k1, int k2, int l, double x1, double x2,
                         double y) {
  idlz::ShapeLine line;
  line.k1 = k1;
  line.l1 = l;
  line.k2 = k2;
  line.l2 = l;
  line.p1 = {x1, y};
  line.p2 = {x2, y};
  return line;
}

// A rectangle k1..k2 x l1..l2 shaped onto the uniform grid of pitch
// (sx, sy), i.e. grid point (k, l) lands at ((k-1)*sx, (l-1)*sy).
void add_rectangle(idlz::IdlzCase& c, int k1, int l1, int k2, int l2,
                   double sx, double sy) {
  idlz::Subdivision sub;
  sub.id = static_cast<int>(c.subdivisions.size()) + 1;
  sub.k1 = k1;
  sub.l1 = l1;
  sub.k2 = k2;
  sub.l2 = l2;
  c.subdivisions.push_back(sub);
  idlz::ShapingSpec spec;
  spec.subdivision_id = sub.id;
  const double x1 = (k1 - 1) * sx;
  const double x2 = (k2 - 1) * sx;
  spec.lines = {row_line(k1, k2, l1, x1, x2, (l1 - 1) * sy),
                row_line(k1, k2, l2, x1, x2, (l2 - 1) * sy)};
  c.shaping.push_back(spec);
}

}  // namespace

idlz::IdlzCase interleaved_strip_case(double width, double height) {
  idlz::IdlzCase c;
  c.title = "INTERLEAVED STRIP 20X20";
  const double sx = width / 20.0;
  const double sy = height / 20.0;
  for (int parity = 0; parity < 2; ++parity) {
    for (int band = parity; band < 10; band += 2) {
      add_rectangle(c, 1, 1 + 2 * band, 21, 3 + 2 * band, sx, sy);
    }
  }
  return c;
}

idlz::IdlzCase slotted_plate_case(int courses, int course, int webs, int web,
                                  int slot, double scale) {
  idlz::IdlzCase c;
  c.title = "SLOTTED PLATE";
  const int width = webs * web + (webs - 1) * slot;
  int l = 1;
  for (int i = 0; i < courses; ++i) {
    // Solid course, then (except after the last) a slotted course.
    add_rectangle(c, 1, l, 1 + width, l + course, scale, scale);
    l += course;
    if (i + 1 == courses) break;
    for (int w = 0; w < webs; ++w) {
      const int k1 = 1 + w * (web + slot);
      add_rectangle(c, k1, l, k1 + web, l + course, scale, scale);
    }
    l += course;
  }
  return c;
}

std::string setup_note(const std::vector<double>& setup_s) {
  std::string out = "set-up times:";
  char buf[32];
  for (const double v : setup_s) {
    std::snprintf(buf, sizeof buf, " %.4f", v);
    out += buf;
  }
  return out + " s";
}

// ---- Open-loop serve streams ---------------------------------------------

PacedInput::PacedInput(std::vector<std::string> lines,
                       std::vector<double> due_ms)
    : lines_(std::move(lines)),
      due_(std::move(due_ms)),
      released_(lines_.size(), std::numeric_limits<double>::quiet_NaN()) {}

PacedInput::int_type PacedInput::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (next_ >= lines_.size()) return traits_type::eof();
  std::this_thread::sleep_until(
      t0_ + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(due_[next_])));
  released_[next_] = ms_between(t0_, Clock::now());
  current_ = std::move(lines_[next_]);
  current_ += '\n';
  ++next_;
  setg(current_.data(), current_.data(), current_.data() + current_.size());
  return traits_type::to_int_type(*gptr());
}

std::vector<StampedOutput::Line> StampedOutput::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(lines_);
}

void StampedOutput::put(char c) {
  if (c != '\n') {
    partial_ += c;
    return;
  }
  lines_.push_back({ms_between(t0_, Clock::now()), std::move(partial_)});
  partial_.clear();
}

StampedOutput::int_type StampedOutput::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  put(traits_type::to_char_type(ch));
  return ch;
}

std::streamsize StampedOutput::xsputn(const char* s, std::streamsize n) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::streamsize i = 0; i < n; ++i) put(s[i]);
  return n;
}

}  // namespace perfbench

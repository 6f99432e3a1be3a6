// perfbench: the end-to-end and per-layer benchmark of the feio pipelines.
//
// The harness drives the library only through its public entry points
// (deck readers/writers, feio::run_idlz, mesh::validate, fem::solve,
// feio::run_ospl, plot::render_svg, serve::serve_stdin_jsonl) and times
// every call from outside. This header holds the pieces the workloads and
// the self-tests share: percentile rules, metric rendering, the trace
// aggregator, the storage-independent residual gate, deck generators and
// the paced input / stamped output streams of the open-loop serve workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "fem/assembly.h"
#include "idlz/idlz.h"
#include "mesh/tri_mesh.h"

namespace perfbench {

namespace fem = feio::fem;
namespace idlz = feio::idlz;
namespace mesh = feio::mesh;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Percentiles ---------------------------------------------------------

// Linear-interpolated p-quantile (0 <= p <= 1) of a non-empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// The p-quantile only when at least `min_beyond` samples lie strictly
// beyond it; otherwise nullopt. A tail percentile is omitted, never
// extrapolated from a sample too small to contain it.
std::optional<double> tail_percentile(const std::vector<double>& v, double p,
                                      int min_beyond = 10);

// ---- Metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
// or digit.
bool valid_metric_name(std::string_view name);

// The declared metric sets: every untraced run reports exactly the
// end-to-end list, every traced run exactly the per-layer list.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

// The result line: {"correct": .., "attempted": .., "failed": ..,
// "metrics": {"name": {"value": v, "unit": "u"}, ...}}.
std::string render_result(bool correct, std::int64_t attempted,
                          std::int64_t failed,
                          const std::vector<Metric>& metrics);

// ---- Trace aggregation ---------------------------------------------------

// Layers are the modules under src/. Program spans and the harness's own
// "h.*" spans map onto them; spans of no layer (parallel.chunk, and the
// harness's h.op envelope) are transparent: they neither own time nor hide
// their children's time from the enclosing layer span.
enum class Layer { kNone, kCards, kIdlz, kMesh, kFem, kOspl, kPlot };
inline constexpr int kLayerCount = 7;
const char* layer_name(Layer l);
Layer layer_of(std::string_view span_name);

struct Span {
  std::string name;
  int tid = 0;
  double begin_us = 0.0;
  double end_us = 0.0;
  std::string deck;  // "deck" argument (idlz.read_deck / ospl.read_deck)
  std::int64_t segments = -1;  // "segments" argument (ospl.contours)
  int parent = -1;   // enclosing span on the same thread, -1 at top level
  Layer layer = Layer::kNone;
  double self_us = 0.0;  // duration minus time covered by owning children

  double dur_us() const { return end_us - begin_us; }
};

// Raw value of the first "key": field on one single-line JSON object (a
// trace event or a serve envelope): a string's contents, still escaped, or
// a number's text. Empty when the key is absent.
std::string_view field(std::string_view line, std::string_view key);

// Parses util::Tracer::render_json() output into spans with parents and
// self times. A layer span's self time is its duration minus the part its
// nearest layer-owning descendants cover (transparent spans in between are
// looked through); transparent spans get self time 0.
std::vector<Span> parse_trace(const std::string& json);

// Sums of self time per layer (indexed by static_cast<int>(Layer)) and
// per span name over the spans add()ed.
struct LayerTimes {
  double layer_us[kLayerCount] = {};
  std::map<std::string, double> name_self_us;

  void add(const Span& s);
  double layer_ms(Layer l) const {
    return layer_us[static_cast<int>(l)] / 1000.0;
  }
  double name_ms(const std::string& name) const;
  double total_layer_ms() const;  // all layers except kNone
};

// ---- Canonical analysis and the residual gate ----------------------------

// The well-posed canonical static problem every chain solves: plane
// stress, isotropic E=1000 nu=0.3, and in every connected component the
// nodes on its minimum-x line clamped (plus the next-lowest node when that
// line holds a single node, so no component keeps a rigid-body mode); a
// downward load of `load` at the mesh's maximum-x node (lowest index on
// ties).
void set_canonical_problem(fem::StaticProblem& p, double load);

// Normwise backward error of a displacement field, assembled element by
// element with fem::cst_matrices (so it never touches the solver's
// stiffness storage):
//   max_free |K u - f|_i / (max_free sum_j |K_ij| * max |u| + max |f|)
// over the unconstrained dofs; constrained dofs must hold their prescribed
// value exactly. Returns +inf when a prescribed value is violated or the
// field has the wrong size.
double residual_backward_error(const fem::StaticProblem& p,
                               const std::vector<feio::geom::Vec2>& u);
inline constexpr double kResidualTolerance = 1e-9;

// Exact operator counts of a solved deck.
struct DeckCounts {
  std::int64_t nodes = 0;
  std::int64_t dofs = 0;
  std::int64_t half_bandwidth = 0;  // dof half-bandwidth
  std::int64_t profile = 0;         // mesh::profile (node terms)
  std::int64_t factor_flops = 0;    // sum of dof column height^2
};
DeckCounts deck_counts(const fem::StaticProblem& p);
// Class totals: counts add up, the half-bandwidth is the class maximum.
void add_counts(DeckCounts& into, const DeckCounts& c);
// The per-class count metrics (idlz.*_nodes, mesh.*_half_bandwidth, ...).
std::vector<Metric> count_metrics(const DeckCounts& strip,
                                  const DeckCounts& shaped);
// "cards 1.2%, idlz 40.3%, ..." — each layer's share of `whole_ms`.
std::string layer_shares(const LayerTimes& t, double whole_ms);

// 64-bit FNV-1a.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

// ---- Deck generation -----------------------------------------------------

// The bench_repeat layout: a 20 x 20 strip of ten two-row subdivisions
// listed odd rows first, so the deck's own node numbering interleaves
// distant rows and the envelope is wide. Fits every Table 2 limit.
idlz::IdlzCase interleaved_strip_case(double width, double height);

// A plate with rectangular slots, built from rectangles on the integer
// grid: solid courses `course` cells tall alternating with slotted courses
// of `webs` webs `web` cells wide separated by `slot`-cell slots. Listed
// bottom to top, webs left to right, so the deck's own numbering gives the
// ragged envelope of a row-major plate with holes.
idlz::IdlzCase slotted_plate_case(int courses, int course, int webs, int web,
                                  int slot, double scale);

// ---- Open-loop serve streams ---------------------------------------------

// An input stream buffer that releases line i no earlier than its due time
// (milliseconds after start()) and records when it actually released it.
// Reading blocks until the next line is due, which is how a paced client
// feeds serve_stdin_jsonl.
class PacedInput : public std::streambuf {
 public:
  PacedInput(std::vector<std::string> lines, std::vector<double> due_ms);
  void start(Clock::time_point t0) { t0_ = t0; }
  // Release time of each line, milliseconds after t0 (NaN until released).
  const std::vector<double>& released_ms() const { return released_; }

 protected:
  int_type underflow() override;

 private:
  std::vector<std::string> lines_;
  std::vector<double> due_;
  std::vector<double> released_;
  std::string current_;
  std::size_t next_ = 0;
  Clock::time_point t0_ = Clock::now();
};

// An output stream buffer that timestamps every completed line.
class StampedOutput : public std::streambuf {
 public:
  void start(Clock::time_point t0) { t0_ = t0; }
  struct Line {
    double at_ms = 0.0;
    std::string text;
  };
  std::vector<Line> take();

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void put(char c);
  std::mutex mu_;
  std::string partial_;
  std::vector<Line> lines_;
  Clock::time_point t0_ = Clock::now();
};

// ---- Workloads -----------------------------------------------------------

// Set-ups per run, spread over the run; setup_s is their median.
inline constexpr int kSetups = 7;
// "set-up times: 0.061 0.064 ... s", in the order they ran.
std::string setup_note(const std::vector<double>& setup_s);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double slo_ms = 0.0;  // latency limit for slo_share
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  // the declared set for this mode
  std::vector<std::string> notes;  // human-readable lines (tails, counts)
};

RunResult run_gallery_chain(const RunConfig& cfg);
RunResult run_solve_chain(const RunConfig& cfg);
RunResult run_serve_mix(const RunConfig& cfg);

// Resident-set high-water mark of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench

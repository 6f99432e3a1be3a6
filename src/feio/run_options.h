// feio::RunOptions — the one options block both pipeline entry points
// accept (PR 4 api_redesign). Lives in its own header, below idlz/ and
// ospl/, so idlz.h and ospl.h can declare the overloads without an include
// cycle; the user-facing façade is feio/api.h.
#pragma once

namespace feio::util {
class CancelToken;
class MetricsRegistry;
class Tracer;
}  // namespace feio::util

namespace feio::fem {
class FactorCache;
}  // namespace feio::fem

namespace feio {

// Node-ordering override for the idealization pipeline's renumber pass.
// kDeckDefault keeps the deck's own NONUMB option and scheme; the others
// force the pass on (or off for kNone) with the named scheme — the axis of
// the bench's ordering x threads ablation. Also part of the factor-cache
// key: the same deck under two orderings produces different operators.
enum class OrderingChoice {
  kDeckDefault,
  kNone,
  kRcm,
};

// Options applied to one pipeline run. Everything here defaults to "the
// behavior the two-argument overloads always had", so
// run_checked(c, sink, RunOptions{}) is exactly run_checked(c, sink).
struct RunOptions {
  // FEM element assembly threads (fem::solve; the IDLZ and OSPL pipelines
  // are serial): 0 = the process default (util::default_threads()), >= 1
  // explicit, < 0 all hardware threads. Scoped to the call by adjusting the
  // process default; concurrent runs should pass the same value (the CLI
  // does).
  int threads = 0;

  // Observability sinks, both optional. Installed (scoped) as the process
  // tracer/registry for the duration of the run; instrumentation never
  // changes pipeline output, so traced runs stay byte-identical to
  // untraced ones.
  util::Tracer* tracer = nullptr;
  util::MetricsRegistry* metrics = nullptr;

  // Deadline / cooperative cancellation, optional. Installed (scoped,
  // thread-local) for the duration of the run; every long-running stage
  // checks it at coarse boundaries (util/cancel.h). An expired token makes
  // run() throw util::Cancelled and run_checked report E-RES-005; a run
  // that finishes before its deadline is byte-identical to an undeadlined
  // one. The token must outlive the call.
  const util::CancelToken* cancel = nullptr;

  // Diag toggle: run mesh validation inside run_checked and merge its
  // findings into the sink. Off for callers that validate separately.
  bool validate_mesh = true;

  // Factorized-stiffness LRU (fem/factor_cache.h), optional. When set,
  // fem::solve(problem, opts) consults it before assembling: a content-hash
  // hit replays the cached factor (bit-identical to the cold path) and a
  // successful cold solve populates it. Null keeps every solve cold. The
  // cache must outlive the call; it is internally synchronized, so serve
  // workers share one instance.
  fem::FactorCache* factor_cache = nullptr;

  // Renumbering override for run_idlz — see OrderingChoice.
  OrderingChoice ordering = OrderingChoice::kDeckDefault;

  // Output toggles, ANDed with the case's own IdlzOptions: false forces
  // plots/punched cards off even when the deck asked for them (the lint
  // dry run uses this; plotting and punching are irrelevant there).
  bool make_plots = true;
  bool punch = true;
};

// Deprecation switch for the pre-RunOptions two-argument overloads. On (1)
// by default for one release so existing callers build warning-free;
// configure with -DFEIO_ALLOW_DEPRECATED=0 to surface [[deprecated]]
// warnings at every legacy call site.
#ifndef FEIO_ALLOW_DEPRECATED
#define FEIO_ALLOW_DEPRECATED 1
#endif
#if FEIO_ALLOW_DEPRECATED
#define FEIO_DEPRECATED(msg)
#else
#define FEIO_DEPRECATED(msg) [[deprecated(msg)]]
#endif

}  // namespace feio

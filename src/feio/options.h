// The shared feio flag surface (PR 9 api_redesign).
//
// Every subcommand used to re-plumb the same flags — --threads,
// --deadline-ms, --fault, --queue, --max-*, the cache knobs, the
// observability sinks — through its own copy of the parse loop, and serve
// assembled its ServeOptions by hand in the CLI. This header is the one
// place the shared surface lives:
//
//   feio::api::CommonOptions common;
//   for (int i = 2; i < argc; ++i)
//     switch (feio::api::consume_flag(common, argc, argv, i, err)) { ... }
//   RunOptions ro = feio::api::run_options(common);
//   serve::ServeOptions so = feio::api::serve_options(common);
//
// Front ends keep only their subcommand-specific flags; everything here is
// parsed, validated and converted by the facade, so serve / check / lint /
// bench cannot drift apart on spelling, validation or defaults.
#pragma once

#include <string>
#include <vector>

#include "feio/run_options.h"
#include "feio/serve.h"

namespace feio::api {

// The parsed shared flags, defaults matching the historical CLI.
struct CommonOptions {
  // --threads N|all; threads_set records an explicit flag (bench uses it
  // to distinguish "default" from "asked for 1").
  int threads = 1;
  bool threads_set = false;

  // --out DIR
  std::string out_dir = "out";
  bool out_set = false;

  // --diag-json FILE / --trace FILE / --metrics-json FILE|-
  std::string diag_json_path;
  std::string trace_path;
  std::string metrics_json_path;
  bool metrics_set = false;

  // --fault site[:N]
  std::string fault_spec;

  // serve transports: --stdin-jsonl, --listen host:port|unix:path,
  // --max-conns N (0 = accept forever).
  bool stdin_jsonl = false;
  std::string listen_address;
  int max_connections = 0;

  // serve admission / guards: --queue, --deadline-ms, --max-cards,
  // --max-dofs (-1 = serve default), --tenant NAME:k=v,... (repeatable).
  int queue = 256;
  long long deadline_ms = 0;
  long long max_cards = -1;
  long long max_dofs = -1;
  std::vector<serve::TenantConfig> tenants;

  // serve caches / report: --cache-formats, --cache-factors,
  // --factor-ttl-ms (idle TTL for factor-cache entries; 0 = no TTL),
  // --window-jobs (-1 = serve default), --ablate-caches.
  long long cache_formats = -1;
  long long cache_factors = -1;
  long long factor_ttl_ms = -1;
  long long window_jobs = -1;
  bool ablate_caches = false;

  // ordering override: --order deck|none|rcm (kDeckDefault keeps the
  // deck's own NONUMB option). It feeds the factor-cache key, so pinning a
  // serve deployment re-keys its factors.
  OrderingChoice ordering = OrderingChoice::kDeckDefault;

  // Installed process-wide by the front end for the invocation; carried
  // here so run_options()/serve_options() can hand them on.
  util::Tracer* tracer = nullptr;
  util::MetricsRegistry* metrics = nullptr;
};

// What consume_flag did with argv[i].
enum class FlagStatus {
  kNotMine,  // not a shared flag; the caller's own loop should handle it
  kOk,       // consumed (possibly advancing i past the flag's value)
  kError,    // a shared flag with a bad/missing value; `error` explains
};

// Tries to parse argv[i] as one shared flag, advancing `i` past a consumed
// value argument. On kError the caller should print `error` and exit with
// its usage status.
FlagStatus consume_flag(CommonOptions& opts, int argc, char** argv, int& i,
                        std::string& error);

// Parses one --tenant spec, "NAME" or "NAME:k=v,k=v" with keys weight
// (>= 1), queue (>= 0), max-cards, max-bytes, max-dofs, max-factor-bytes
// (per-tenant GuardLimits overrides). Exposed for tests.
bool parse_tenant_spec(const std::string& spec, serve::TenantConfig& out,
                       std::string& error);

// The RunOptions a direct pipeline command (idlz/ospl/check/lint) should
// pass to run_idlz/run_ospl. `threads` stays 0: the front end pins the
// process default once, and per-deck workers must not race on re-pinning.
RunOptions run_options(const CommonOptions& opts);

// The ServeOptions for this invocation: worker count (an explicit --threads
// is capped at util::hardware_threads(), since the pool starts one OS thread
// per worker), queue, deadline, guard overrides, tenant lanes, cache
// capacities, windowing, observability sinks.
serve::ServeOptions serve_options(const CommonOptions& opts);

// The ListenOptions when --listen was given (listen_address non-empty).
serve::ListenOptions listen_options(const CommonOptions& opts);

}  // namespace feio::api

#include "feio/options.h"

#include <algorithm>
#include <string_view>

#include "feio/request.h"
#include "util/parallel.h"

namespace feio::api {
namespace {

// A non-negative decimal integer flag value; false on junk or overflow.
bool parse_count(std::string_view text, long long& out) {
  if (text.empty() || text.size() > 15) return false;
  long long v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

// Count flags accept both the repo's space-separated convention
// ("--cache-factors 32") and the joined form ("--cache-factors=32").
bool matches_flag(const std::string& arg, std::string_view name) {
  return arg == name || arg.rfind(std::string(name) + "=", 0) == 0;
}

// The flag's value: the "=..." tail or the next argv slot (advancing i).
const char* flag_value(const std::string& arg, std::string_view name,
                       int argc, char** argv, int& i) {
  if (arg.size() > name.size() && arg[name.size()] == '=') {
    return arg.c_str() + name.size() + 1;
  }
  if (i + 1 < argc) return argv[++i];
  return nullptr;
}

FlagStatus take_count(CommonOptions&, const std::string& arg,
                      std::string_view name, int argc, char** argv, int& i,
                      long long& out, std::string& error) {
  const char* value = flag_value(arg, name, argc, argv, i);
  if (value == nullptr || !parse_count(value, out)) {
    error = std::string(name) + " expects a non-negative integer";
    return FlagStatus::kError;
  }
  return FlagStatus::kOk;
}

}  // namespace

bool parse_tenant_spec(const std::string& spec, serve::TenantConfig& out,
                       std::string& error) {
  out = serve::TenantConfig{};
  const size_t colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (!serve::valid_tenant_name(out.name)) {
    error = "--tenant name must be 1-64 chars of [A-Za-z0-9_-]";
    return false;
  }
  if (colon == std::string::npos) return true;
  std::string rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string pair = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      error = "--tenant option \"" + pair + "\" is not key=value";
      return false;
    }
    const std::string key = pair.substr(0, eq);
    long long value = 0;
    if (!parse_count(pair.substr(eq + 1), value)) {
      error = "--tenant " + key + " expects a non-negative integer";
      return false;
    }
    if (key == "weight") {
      if (value < 1) {
        error = "--tenant weight must be >= 1";
        return false;
      }
      out.weight = static_cast<int>(std::min<long long>(value, 1 << 20));
    } else if (key == "queue") {
      out.queue_capacity =
          static_cast<int>(std::min<long long>(value, 1 << 20));
    } else if (key == "max-cards") {
      out.guard.max_deck_cards = value;
    } else if (key == "max-bytes") {
      out.guard.max_deck_bytes = value;
    } else if (key == "max-dofs") {
      out.guard.max_dofs = value;
    } else if (key == "max-factor-bytes") {
      out.guard.max_factor_bytes = value;
    } else {
      error = "--tenant: unknown option \"" + key +
              "\" (want weight, queue, max-cards, max-bytes, max-dofs or "
              "max-factor-bytes)";
      return false;
    }
  }
  return true;
}

FlagStatus consume_flag(CommonOptions& opts, int argc, char** argv, int& i,
                        std::string& error) {
  const std::string a = argv[i];
  const auto need_value = [&](const char* flag) {
    error = std::string(flag) + " expects a value";
    return FlagStatus::kError;
  };

  if (a == "--out") {
    if (i + 1 >= argc) return need_value("--out");
    opts.out_dir = argv[++i];
    opts.out_set = true;
    return FlagStatus::kOk;
  }
  if (a == "--diag-json") {
    if (i + 1 >= argc) return need_value("--diag-json");
    opts.diag_json_path = argv[++i];
    return FlagStatus::kOk;
  }
  if (a == "--trace") {
    if (i + 1 >= argc) return need_value("--trace");
    opts.trace_path = argv[++i];
    return FlagStatus::kOk;
  }
  if (a == "--metrics-json") {
    if (i + 1 >= argc) return need_value("--metrics-json");
    opts.metrics_json_path = argv[++i];
    opts.metrics_set = true;
    return FlagStatus::kOk;
  }
  if (a == "--threads") {
    // One shared parser and one shared error message for every subcommand
    // (util/parallel.h): positive integer or "all".
    if (i + 1 >= argc || !util::parse_thread_count(argv[++i], opts.threads)) {
      error = util::kThreadsFlagError;
      return FlagStatus::kError;
    }
    opts.threads_set = true;
    return FlagStatus::kOk;
  }
  if (a == "--fault") {
    if (i + 1 >= argc) return need_value("--fault");
    opts.fault_spec = argv[++i];
    return FlagStatus::kOk;
  }
  if (a == "--stdin-jsonl") {
    opts.stdin_jsonl = true;
    return FlagStatus::kOk;
  }
  if (a == "--listen") {
    if (i + 1 >= argc) return need_value("--listen");
    opts.listen_address = argv[++i];
    return FlagStatus::kOk;
  }
  if (matches_flag(a, "--max-conns")) {
    long long v = 0;
    const FlagStatus s =
        take_count(opts, a, "--max-conns", argc, argv, i, v, error);
    if (s == FlagStatus::kOk) {
      opts.max_connections = static_cast<int>(std::min<long long>(v, 1 << 20));
    }
    return s;
  }
  if (a == "--tenant") {
    if (i + 1 >= argc) return need_value("--tenant");
    serve::TenantConfig cfg;
    if (!parse_tenant_spec(argv[++i], cfg, error)) return FlagStatus::kError;
    opts.tenants.push_back(std::move(cfg));
    return FlagStatus::kOk;
  }
  if (a == "--queue") {
    long long v = 0;
    if (i + 1 >= argc || !parse_count(argv[++i], v) || v < 1) {
      error = "--queue expects a positive integer";
      return FlagStatus::kError;
    }
    opts.queue = static_cast<int>(std::min<long long>(v, 1 << 20));
    return FlagStatus::kOk;
  }
  if (a == "--deadline-ms") {
    if (i + 1 >= argc || !parse_count(argv[++i], opts.deadline_ms)) {
      error = "--deadline-ms expects a non-negative integer";
      return FlagStatus::kError;
    }
    return FlagStatus::kOk;
  }
  if (a == "--max-cards") {
    if (i + 1 >= argc || !parse_count(argv[++i], opts.max_cards)) {
      error = "--max-cards expects a non-negative integer";
      return FlagStatus::kError;
    }
    return FlagStatus::kOk;
  }
  if (a == "--max-dofs") {
    if (i + 1 >= argc || !parse_count(argv[++i], opts.max_dofs)) {
      error = "--max-dofs expects a non-negative integer";
      return FlagStatus::kError;
    }
    return FlagStatus::kOk;
  }
  if (matches_flag(a, "--cache-formats")) {
    return take_count(opts, a, "--cache-formats", argc, argv, i,
                      opts.cache_formats, error);
  }
  if (matches_flag(a, "--cache-factors")) {
    return take_count(opts, a, "--cache-factors", argc, argv, i,
                      opts.cache_factors, error);
  }
  if (matches_flag(a, "--factor-ttl-ms")) {
    return take_count(opts, a, "--factor-ttl-ms", argc, argv, i,
                      opts.factor_ttl_ms, error);
  }
  if (matches_flag(a, "--window-jobs")) {
    return take_count(opts, a, "--window-jobs", argc, argv, i,
                      opts.window_jobs, error);
  }
  if (a == "--ablate-caches") {
    opts.ablate_caches = true;
    return FlagStatus::kOk;
  }
  if (matches_flag(a, "--order")) {
    const char* value = flag_value(a, "--order", argc, argv, i);
    const std::string_view v = value == nullptr ? "" : value;
    if (v == "deck") {
      opts.ordering = OrderingChoice::kDeckDefault;
    } else if (v == "none") {
      opts.ordering = OrderingChoice::kNone;
    } else if (v == "rcm") {
      opts.ordering = OrderingChoice::kRcm;
    } else {
      error = "--order expects deck, none or rcm";
      return FlagStatus::kError;
    }
    return FlagStatus::kOk;
  }
  return FlagStatus::kNotMine;
}

RunOptions run_options(const CommonOptions& opts) {
  RunOptions ro;
  ro.tracer = opts.tracer;
  ro.metrics = opts.metrics;
  ro.ordering = opts.ordering;
  return ro;
}

serve::ServeOptions serve_options(const CommonOptions& opts) {
  serve::ServeOptions so;
  so.threads = std::min(opts.threads, util::hardware_threads());
  so.queue_capacity = opts.queue;
  so.default_deadline_ms = opts.deadline_ms;
  if (opts.max_cards >= 0) so.guard.max_deck_cards = opts.max_cards;
  if (opts.max_dofs >= 0) so.guard.max_dofs = opts.max_dofs;
  so.tenants = opts.tenants;
  so.tracer = opts.tracer;
  so.metrics = opts.metrics;
  if (opts.cache_formats >= 0) {
    so.format_cache_capacity =
        static_cast<int>(std::min<long long>(opts.cache_formats, 1 << 20));
  }
  if (opts.cache_factors >= 0) {
    so.factor_cache_capacity =
        static_cast<int>(std::min<long long>(opts.cache_factors, 1 << 20));
  }
  if (opts.factor_ttl_ms >= 0) so.factor_ttl_ms = opts.factor_ttl_ms;
  so.ordering = opts.ordering;
  if (opts.window_jobs >= 0) {
    so.window_jobs =
        static_cast<int>(std::min<long long>(opts.window_jobs, 1 << 20));
  }
  return so;
}

serve::ListenOptions listen_options(const CommonOptions& opts) {
  serve::ListenOptions lo;
  lo.address = opts.listen_address;
  lo.max_connections = opts.max_connections;
  return lo;
}

}  // namespace feio::api

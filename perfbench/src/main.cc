// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload gallery_chain|solve_chain|serve_mix --seed N
//             --seconds S --trace 0|1
//             [--slo-ms gallery_chain=MS,solve_chain=MS,serve_mix=MS]
//
// Every metric is printed as a "# name value unit" line; the last line of
// standard output is the JSON result. The exit code is 0 only when every
// correctness check passed (the result then reads "correct": true).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--slo-ms workload=MS,...]\n";
  return 2;
}

// "a=1,b=2" -> {a: 1, b: 2}
std::map<std::string, double> parse_slo(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find(',', at);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(at, end - at);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      out[item.substr(0, eq)] = std::strtod(item.c_str() + eq + 1, nullptr);
    }
    at = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string slo_text;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--slo-ms") {
      slo_text = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  const std::map<std::string, double> slo = parse_slo(slo_text);
  const auto limit = slo.find(cfg.workload);
  if (limit == slo.end() || limit->second <= 0) {
    return usage("no --slo-ms limit for workload \"" + cfg.workload + "\"");
  }
  cfg.slo_ms = limit->second;

  perfbench::RunResult r;
  try {
    if (cfg.workload == "gallery_chain") {
      r = perfbench::run_gallery_chain(cfg);
    } else if (cfg.workload == "solve_chain") {
      r = perfbench::run_solve_chain(cfg);
    } else if (cfg.workload == "serve_mix") {
      r = perfbench::run_serve_mix(cfg);
    } else {
      return usage("unknown workload \"" + cfg.workload + "\"");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  // The reported set must be exactly the declared one for this mode; it is
  // printed in declaration order.
  const std::vector<std::string>& declared =
      cfg.trace ? perfbench::per_layer_metric_names()
                : perfbench::end_to_end_metric_names();
  if (r.correct) {
    std::map<std::string, perfbench::Metric> by_name;
    for (const perfbench::Metric& m : r.metrics) by_name[m.name] = m;
    std::vector<perfbench::Metric> ordered;
    for (const std::string& name : declared) {
      const auto it = by_name.find(name);
      if (it == by_name.end() || !perfbench::valid_metric_name(name)) break;
      ordered.push_back(it->second);
    }
    if (ordered.size() != declared.size() ||
        by_name.size() != declared.size()) {
      r.correct = false;
      r.notes.push_back("reported metrics differ from the declared set");
    } else {
      r.metrics = std::move(ordered);
    }
  }

  for (const std::string& note : r.notes) std::cout << "# " << note << "\n";
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("# %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);
  std::cout << perfbench::render_result(r.correct, r.attempted, r.failed,
                                        r.metrics)
            << std::endl;
  if (!r.correct) {
    std::cerr << "perfbench: " << cfg.workload
              << ": correctness check failed (" << r.failed << " of "
              << r.attempted << " operations failed)\n";
    return 1;
  }
  return 0;
}

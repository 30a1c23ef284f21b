// sodabench: one workload run of the SODA benchmark.
//
//   sodabench --workload corpus|serve|fleet|shared-link --seed N
//             --seconds S --trace 0|1 [--quick] [--trace-out PATH]
//
// A run has an untimed set-up phase (repeated at least kSetupRepeats times
// and kSetupSeconds; setup_s is the repeats' fast end), a timed phase of
// about S seconds made of whole rounds of the same operations, and output
// checks. With --trace 0 it reports the end-to-end metrics; with --trace 1
// it alternates traced and untraced rounds and reports the per-layer
// metrics and the tracing overhead. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed (the
// result line is still printed, with "correct": false), 2 on a usage error
// or an unexpected exception (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef SODABENCH_BUILD_TYPE
#define SODABENCH_BUILD_TYPE "unknown"
#endif

namespace sodabench {
namespace {

// Every per-layer metric, in the order BENCHMARK.json lists them. A traced
// run prints each one; a layer the workload does not reach reads 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"net.trace_gen_s", "s"},
    {"core.table_build_s", "s"},
    {"serve.register_tenant_s", "s"},
    {"sim.fairness.roster_build_ms", "ms"},
    {"core.solver.choose_us", "us"},
    {"core.solver.nodes_per_decision", "count"},
    {"core.cached.choose_ns", "ns"},
    {"core.cached.table_hit_ratio", "ratio"},
    {"predict.ema.update_ns", "ns"},
    {"sim.session.self_ns_per_decision", "ns"},
    {"serve.decide_batch_p50_us", "us"},
    {"serve.decide_batch_p99_us", "us"},
    {"serve.table_hit_ratio", "ratio"},
    {"serve.decide_one_table_ns", "ns"},
    {"serve.decide_one_fallback_us", "us"},
    {"serve.shadow_checks", "count"},
    {"serve.ingest_batch_p50_us", "us"},
    {"serve.sweep_ms", "ms"},
    {"serve.active_sessions", "count"},
    {"fleet.open.ns_per_decision", "ns"},
    {"fleet.coupled.ns_per_decision", "ns"},
    {"core.kernel.ns_per_lookup", "ns"},
    {"fleet.peak_live", "count"},
    {"fleet.live_state_mb", "MB"},
    {"fleet.arena_mb", "MB"},
    {"fleet.clamped_lookups", "count"},
    {"fleet.congested_ticks", "count"},
    {"sim.shared_link.small.ns_per_event", "ns"},
    {"sim.shared_link.large.ns_per_event", "ns"},
    {"sim.shared_link.small.reference_ratio", "ratio"},
    {"sim.shared_link.events", "count"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* kEndToEnd[] = {"setup_s", "peak_rss_mb", "decisions_per_s",
                                     "first_pass_per_s", "second_pass_per_s"};

void Usage() {
  std::fprintf(stderr,
               "usage: sodabench --workload corpus|serve|fleet|shared-link "
               "--seed N --seconds S --trace 0|1 [--quick] [--trace-out PATH]\n");
}

const Metric* Find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void AppendMetric(std::string& out, const Metric& m) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m.name.c_str(), m.value, m.unit.c_str());
  if (out.back() != '{') out += ", ";
  out += buf;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      options.trace = std::stoi(value()) != 0;
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else if (arg == "--quick") {
      options.quick = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !(options.seconds > 0.0)) {
    Usage();
    return 2;
  }

  Report report;
  if (options.workload == "corpus") {
    RunCorpus(options, report);
  } else if (options.workload == "serve") {
    RunServe(options, report);
  } else if (options.workload == "fleet") {
    RunFleet(options, report);
  } else if (options.workload == "shared-link") {
    RunSharedLink(options, report);
  } else {
    Usage();
    return 2;
  }
  report.E2e("peak_rss_mb", PeakRssMb(), "MB");

  // The run manifest goes on its own line ahead of the result line, and
  // into the trace file.
  std::vector<std::pair<std::string, std::string>> manifest = {
      {"build_type", SODABENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
#ifdef SODA_OBS_DISABLED
      {"SODA_OBS", "OFF"},
#else
      {"SODA_OBS", "ON"},
#endif
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"quick", options.quick ? "1" : "0"},
      {"setup_min_repeats", std::to_string(kSetupRepeats)},
      {"setup_min_s", std::to_string(kSetupSeconds)},
  };
  manifest.insert(manifest.end(), report.params.begin(), report.params.end());
  std::string line = "manifest {";
  for (const auto& [key, val] : manifest) {
    if (line.back() != '{') line += ", ";
    line += "\"" + key + "\": \"" + val + "\"";
  }
  std::printf("%s}\n", line.c_str());
  if (options.trace && !options.trace_path.empty()) {
    if (!report.tracer.WriteJson(options.trace_path, manifest)) {
      std::fprintf(stderr, "sodabench: cannot write %s\n",
                   options.trace_path.c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", report.tracer.Spans().size(),
                options.trace_path.c_str());
  }
  std::printf("checks run: %zu\n", report.checks_run.size());
  for (const std::string& name : report.checks_run) {
    std::printf("  check %s\n", name.c_str());
  }
  for (const std::string& failure : report.check_failures) {
    std::printf("CHECK FAILED %s\n", failure.c_str());
    std::fprintf(stderr, "sodabench: check failed: %s\n", failure.c_str());
  }

  std::string metrics = "{";
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const Metric* m = Find(report.per_layer, name);
      AppendMetric(metrics, m != nullptr ? *m : Metric{name, 0.0, unit});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* m = Find(report.end_to_end, name);
      if (m == nullptr) {
        std::fprintf(stderr, "sodabench: workload did not measure %s\n", name);
        return 2;
      }
      AppendMetric(metrics, *m);
    }
  }
  metrics += "}";
  const bool correct = report.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sodabench

int main(int argc, char** argv) {
  try {
    return sodabench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sodabench: %s\n", e.what());
    return 2;
  }
}

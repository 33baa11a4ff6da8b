// Wall-clock benchmark of Musketeer, end to end and layer by layer.
//
//   musketeer_perfbench --workload suite|dag1000|http_mix --seed N
//                       --seconds S --trace 0|1 [--spans-out FILE]
//                       [--small] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that times the calls into each layer and prints the per-layer metrics
// (a layer the workload does not exercise reads 0 and is listed under
// "not_exercised" on the info line). Run it through run.py, which builds it
// first.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/base/parallel.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Every end-to-end metric with its unit, in reporting order.
constexpr std::pair<const char*, const char*> kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"throughput_wps", "1/s"},
    {"sustained_wps", "1/s"},
    {"cpu_ms_per_wf", "ms"},
    {"peak_rss_mb", "MB"},
    {"sim_makespan_s", "sim_s"},
};

// The per-layer metrics of every workload, with their units, in reporting
// order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"frontends.parse_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"opt.rewrites", "count"},
    {"scheduler.predict_sizes_ms", "ms"},
    {"scheduler.partition_ms", "ms"},
    {"scheduler.jobs", "count"},
    {"scheduler.predicted_cost", "sim_s"},
    {"backends.codegen_ms", "ms"},
    {"cluster.dfs_relations", "count"},
    {"core.plan_ms", "ms"},
    {"core.plan_unattributed_ms", "ms"},
    {"core.execute_ms", "ms"},
    {"core.execute_unattributed_ms", "ms"},
    {"engines.job_ms", "ms"},
    {"engines.job_ms_max", "ms"},
    {"engines.jobs", "count"},
    {"engines.overhead_ms", "ms"},
    {"relational.kernel_ms", "ms"},
    {"cluster.dfs_read_mb", "MB"},
    {"cluster.dfs_written_mb", "MB"},
    {"obs.trace_overhead_pct", "%"},
};

// The layers only http_mix exercises, printed after the others on its
// traced runs. (http_mix is left out of BENCHMARK.json: on a shared 4-core
// host its end-to-end figures spread by up to a quarter between runs of the
// same code, as wide as the bounds.)
constexpr std::pair<const char*, const char*> kServiceLayerMetrics[] = {
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_tail", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.plan_cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"net.submit_ms", "ms"},
    {"net.result_fetch_ms", "ms"},
    {"net.result_kb", "KB"},
    {"net.put_relation_ms", "ms"},
    {"net.status_polls_per_request", "count"},
    {"stream.jobs_reused", "count"},
    {"stream.reuse_ratio", "ratio"},
    {"generator.lag_ms_max", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "musketeer_perfbench: %s\nusage: musketeer_perfbench --workload "
               "suite|dag1000|http_mix --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE] [--small] [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  WorkloadArgs args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--small") {
      args.small = true;
    } else if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--spans-out") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + flag).c_str());
      if (flag == "--workload") workload = v;
      if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args.seconds = std::atof(v);
      if (flag == "--trace") args.trace = std::string(v) == "1";
      if (flag == "--spans-out") args.spans_out = v;
    } else {
      return Usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  Report report;
  report.InfoString("workload", workload);
  report.InfoNumber("seed", static_cast<double>(args.seed));
  report.InfoNumber("seconds", args.seconds);
  report.InfoNumber("trace", args.trace ? 1 : 0);
  report.InfoNumber("nproc", std::thread::hardware_concurrency());
  report.InfoString("compiler", PERFBENCH_COMPILER);
  report.InfoString("build_type", PERFBENCH_BUILD_TYPE);
  report.InfoNumber("setups_per_run", kSetups);
  // One kernel thread per workflow, as http_mix's service workers run: on a
  // host whose other cores neighbours load, a parallel kernel waits for its
  // slowest thread and measures their load. At the suite's sizes one thread
  // is also the faster setting.
  musketeer::SetParallelThreads(1);
  report.InfoNumber("kernel_threads", musketeer::ParallelThreads());
  if (workload == "suite") {
    RunSuite(args, &report);
  } else if (workload == "dag1000") {
    RunDag1000(args, &report);
  } else if (workload == "http_mix") {
    RunHttpMix(args, &report);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (report.attempted() == 0) {
    report.Fail("no unit of work completed");
  }
  if (args.trace) {
    report.InfoString("kernel_note",
                      "relational.kernel_ms times the unfused EvaluateDag over "
                      "each job's sub-DAG: an estimate until the program has "
                      "its own kernel spans");
    std::vector<std::pair<const char*, const char*>> layers(
        std::begin(kLayerMetrics), std::end(kLayerMetrics));
    if (workload == "http_mix") {
      layers.insert(layers.end(), std::begin(kServiceLayerMetrics),
                    std::end(kServiceLayerMetrics));
    }
    report.KeepExactly(layers, "not_exercised");
  } else {
    report.InfoHostSpeed();
    if (report.KeepExactly(kEndToEndMetrics, "missing_metrics") > 0) {
      report.Fail("an end-to-end metric was not measured");
    }
  }
  report.InfoNumber("error_rate",
                    static_cast<double>(report.failed()) /
                        static_cast<double>(std::max<uint64_t>(report.attempted(), 1)));
  report.Print();
  return 0;
}

// The benchmark's workloads. Each builds its inputs from the seed, sets up
// (timed, several times, median reported as setup_s), checks every output
// against a reference computed at set-up, and measures for `seconds`.

#ifndef MUSKETEER_PERFBENCH_WORKLOADS_H_
#define MUSKETEER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/bench.h"
#include "src/core/musketeer.h"
#include "src/workloads/synthetic_dag.h"

namespace perfbench {

struct WorkloadArgs {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Smoke mode: tiny inputs, for the benchmark's own checks.
  bool small = false;
  // Perturbs every reference so each result must count as failed; proves
  // the correctness check trips.
  bool corrupt_reference = false;
  std::string spans_out;  // where a traced run writes its spans
};

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

// `suite`: the nine paper workflows through Musketeer::Run, one closed-loop
// caller, a fresh DFS per workflow per pass. Unit of work: one pass.
void RunSuite(const WorkloadArgs& args, Report* report);

// `dag1000`: the seeded 1000-operator synthetic workflow resubmitted through
// Musketeer::Run by one closed-loop caller against one long-lived DFS that
// keeps earlier runs' intermediates. Unit of work: one Run.
void RunDag1000(const WorkloadArgs& args, Report* report);

// `http_mix`: HttpServer + WorkflowService in process, open-loop readers and
// one closed-loop incremental writer over loopback (http_mix.cc).
void RunHttpMix(const WorkloadArgs& args, Report* report);

// ---- shared by the workloads ----

// Host speed samples taken in a row at a quiet point (after a set-up,
// between http_mix's load blocks).
inline constexpr int kHostBurst = 5;

// Runs setup() kSetups times, records setup_s as the median (each set-up
// normalized by the host speed sampled right after it) and returns the
// state the last one built.
template <typename State, typename Setup>
std::unique_ptr<State> TimedSetups(const Setup& setup, Report* report) {
  std::vector<double> seconds;
  std::vector<double> normalized;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = setup();
    const Clock::time_point end = Clock::now();
    seconds.push_back(MsBetween(start, end) / 1000.0);
    report->host().Burst(kHostBurst);
    normalized.push_back(seconds.back() / report->host().FactorAt(end));
  }
  report->Normalized("setup_s", Median(normalized), Median(seconds), "s");
  return state;
}

// The reference output of `workflow`: a Musketeer::Run on a fresh DFS that
// holds only `inputs`. A reference that disagrees in content with the
// reference interpreter over the unoptimized DAG is reported as a failure.
struct Reference {
  musketeer::TablePtr table;
  double makespan = 0;  // simulated seconds
  size_t jobs = 0;
};
musketeer::StatusOr<Reference> ComputeReference(
    const musketeer::WorkflowSpec& workflow, const musketeer::TableMap& inputs,
    const std::string& result_relation, Report* report);

// A copy of `table` that is never Table::Identical to it.
musketeer::TablePtr Corrupted(const musketeer::TablePtr& table);

// True when `result` succeeded and its `relation` is Table::Identical to
// `reference`.
bool Matches(const musketeer::StatusOr<musketeer::RunResult>& result,
             const std::string& relation, const musketeer::TablePtr& reference);

// The base tables of a synthetic workload with the key column relabeled by
// the seeded bijection k -> (a*k + b) mod key_range, gcd(a, key_range) = 1:
// join, group and DISTINCT sizes stay, key values and hash partitions move.
musketeer::TableMap RelabelKeys(const musketeer::SyntheticDagWorkload& workload,
                                int64_t key_range, uint64_t seed);

// latency_ms_p50 and latency_ms_tail of `normalized` (`raw` as timed), with
// the tail's percentile and the sample count on the info line.
void ReportLatency(const std::vector<double>& normalized,
                   const std::vector<double>& raw, Report* report);

}  // namespace perfbench

#endif  // MUSKETEER_PERFBENCH_WORKLOADS_H_

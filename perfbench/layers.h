// Layer-by-layer timing of one workflow, for traced runs.
//
// TracedRun calls Musketeer::Plan and Musketeer::Execute under spans (the
// traced unit whose latency is compared with an untraced Run), then repeats
// each stage Plan performs as its own timed call on the same live DFS —
// ParseWorkflow, OptimizeDag, CostModel::PredictSizes, PartitionWorkflow,
// Backend::GeneratePlan — and each job Execute dispatches: ExecuteJob, plus
// EvaluateDag over the job's sub-DAG as the estimate of the shared
// relational kernel's share of the job. (The kernel estimate runs the
// unfused interpreter; in-program spans would measure the kernel the job
// actually ran.)
//
// Span names are the per-layer metric names without their unit suffix:
//   core.plan, core.execute, frontends.parse, opt.optimize,
//   scheduler.predict_sizes, scheduler.partition, backends.codegen,
//   engines.job, relational.kernel
// Counts recorded per request: opt.rewrites, scheduler.jobs,
//   scheduler.predicted_cost, cluster.dfs_relations, engines.jobs,
//   cluster.dfs_read_mb, cluster.dfs_written_mb.

#ifndef MUSKETEER_PERFBENCH_LAYERS_H_
#define MUSKETEER_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "perfbench/bench.h"
#include "src/core/musketeer.h"

namespace perfbench {

// Returns the result of the traced Execute (for the caller's correctness
// check) and the wall time of the traced Plan+Execute in `unit_ms`.
musketeer::StatusOr<musketeer::RunResult> TracedRun(
    SpanRecorder* spans, uint64_t request, musketeer::Dfs* dfs,
    const musketeer::WorkflowSpec& workflow,
    const musketeer::RunOptions& options, double* unit_ms);

// Folds the recorder into the per-layer metrics TracedRun feeds (medians
// over requests) and adds them to `report`, including the derived
// core.plan_unattributed_ms, core.execute_unattributed_ms and
// engines.overhead_ms. Layers no request recorded report 0.
void ReportLayerMetrics(const SpanRecorder& spans, Report* report);

}  // namespace perfbench

#endif  // MUSKETEER_PERFBENCH_LAYERS_H_

#include "perfbench/layers.h"

#include <algorithm>
#include <memory>

#include "src/backends/backend.h"
#include "src/engines/engine.h"
#include "src/ir/eval.h"
#include "src/opt/passes.h"
#include "src/scheduler/cost_model.h"

namespace perfbench {

using namespace musketeer;

namespace {

constexpr double kMb = 1024.0 * 1024.0;

// The Plan stages, one timed call each, mirroring Musketeer::Plan (which
// reads the DFS's schemas and sizes between stages; those reads stay
// untimed here and so land in core.plan_unattributed_ms).
Status TraceStages(SpanRecorder* spans, uint64_t request, uint64_t parent,
                   const Musketeer& m, const WorkflowSpec& workflow,
                   const RunOptions& options) {
  std::unique_ptr<Dag> dag;
  {
    ScopedSpan span(spans, "frontends.parse", request, parent);
    MUSKETEER_ASSIGN_OR_RETURN(dag,
                               ParseWorkflow(workflow.language, workflow.source));
  }
  const SchemaMap schemas = m.DfsSchemas();
  OptimizeStats stats;
  {
    ScopedSpan span(spans, "opt.optimize", request, parent);
    MUSKETEER_ASSIGN_OR_RETURN(dag, OptimizeDag(*dag, schemas, {}, &stats));
  }
  spans->Count(request, "opt.rewrites",
               stats.selections_pushed + stats.selects_fused +
                   stats.projects_fused + stats.dead_removed);
  const RelationSizes sizes_in = m.DfsSizes();
  CostModel model(options.cluster, options.history, workflow.id,
                  options.conservative_first_run);
  std::vector<Bytes> sizes;
  {
    ScopedSpan span(spans, "scheduler.predict_sizes", request, parent);
    MUSKETEER_ASSIGN_OR_RETURN(sizes, model.PredictSizes(*dag, sizes_in));
  }
  PlannerConfig config = options.planner;
  if (config.engines.empty()) config.engines = options.engines;
  Partitioning partitioning;
  {
    ScopedSpan span(spans, "scheduler.partition", request, parent);
    MUSKETEER_ASSIGN_OR_RETURN(partitioning,
                               PartitionWorkflow(*dag, model, sizes, config));
  }
  spans->Count(request, "scheduler.jobs",
               static_cast<double>(partitioning.jobs.size()));
  spans->Count(request, "scheduler.predicted_cost", partitioning.total_cost);
  ScopedSpan span(spans, "backends.codegen", request, parent);
  for (const JobAssignment& job : partitioning.jobs) {
    MUSKETEER_RETURN_IF_ERROR(
        BackendFor(job.engine)
            .GeneratePlan(*dag, job.ops, schemas, options.codegen)
            .status());
  }
  return OkStatus();
}

// Each job of `plan` again, in plan order, against the DFS Execute just
// left behind (every job input is present): the unfused interpreter over
// the job's sub-DAG, then the job itself through ExecuteJob.
Status TraceJobs(SpanRecorder* spans, uint64_t request, uint64_t parent,
                 Dfs* dfs, const WorkflowSpec& workflow,
                 const WorkflowPlan& plan, const RunOptions& options) {
  ExecutionContext ctx;
  ctx.workflow_id = workflow.id;
  for (const JobPlan& job : plan.plans) {
    TableMap inputs;
    for (const std::string& name : job.inputs) {
      MUSKETEER_ASSIGN_OR_RETURN(inputs[name], dfs->Get(name));
    }
    {
      ScopedSpan span(spans, "relational.kernel", request, parent);
      MUSKETEER_RETURN_IF_ERROR(EvaluateDag(*job.dag, inputs).status());
    }
    ScopedSpan span(spans, "engines.job", request, parent);
    MUSKETEER_RETURN_IF_ERROR(ExecuteJob(job, options.cluster, dfs, ctx).status());
  }
  spans->Count(request, "engines.jobs", static_cast<double>(plan.plans.size()));
  return OkStatus();
}

}  // namespace

StatusOr<RunResult> TracedRun(SpanRecorder* spans, uint64_t request, Dfs* dfs,
                              const WorkflowSpec& workflow,
                              const RunOptions& options, double* unit_ms) {
  Musketeer m(dfs);
  spans->Count(request, "cluster.dfs_relations",
               static_cast<double>(dfs->ListRelations().size()));
  const Clock::time_point start = Clock::now();
  StatusOr<WorkflowPlan> plan = InternalError("not planned");
  {
    ScopedSpan span(spans, "core.plan", request);
    plan = m.Plan(workflow, options);
  }
  MUSKETEER_RETURN_IF_ERROR(plan.status());
  StatusOr<RunResult> result = InternalError("not executed");
  {
    ScopedSpan span(spans, "core.execute", request);
    result = m.Execute(workflow, *plan, options);
  }
  *unit_ms = MsBetween(start, Clock::now());
  MUSKETEER_RETURN_IF_ERROR(result.status());
  spans->Count(request, "cluster.dfs_read_mb",
               static_cast<double>(result->dfs_bytes_read) / kMb);
  spans->Count(request, "cluster.dfs_written_mb",
               static_cast<double>(result->dfs_bytes_written) / kMb);

  {
    ScopedSpan stages(spans, "layers.plan_stages", request);
    MUSKETEER_RETURN_IF_ERROR(
        TraceStages(spans, request, stages.id(), m, workflow, options));
  }
  ScopedSpan jobs(spans, "layers.jobs", request);
  MUSKETEER_RETURN_IF_ERROR(
      TraceJobs(spans, request, jobs.id(), dfs, workflow, *plan, options));
  return result;
}

void ReportLayerMetrics(const SpanRecorder& spans, Report* report) {
  const SpanRecorder::Folded folded = spans.FoldByRequest();
  static const std::map<uint64_t, double> kNone;
  auto per_request = [&](const std::string& name) -> const std::map<uint64_t, double>& {
    auto it = folded.find(name);
    return it == folded.end() ? kNone : it->second;
  };
  auto median_of = [&](const std::string& name) {
    return MedianPerRequest(folded, name);
  };
  // Per request: `total` minus the sum of `parts` (requests that have
  // `total`), as a median over requests.
  auto unattributed = [&](const std::string& total,
                          const std::vector<std::string>& parts) {
    std::vector<double> values;
    for (const auto& [request, value] : per_request(total)) {
      double rest = value;
      for (const std::string& part : parts) {
        const auto& p = per_request(part);
        auto it = p.find(request);
        if (it != p.end()) rest -= it->second;
      }
      values.push_back(rest);
    }
    return Median(values);
  };

  for (const char* name :
       {"frontends.parse", "opt.optimize", "scheduler.predict_sizes",
        "scheduler.partition", "backends.codegen", "core.plan",
        "core.execute", "engines.job", "relational.kernel"}) {
    report->Metric(std::string(name) + "_ms", median_of(name), "ms");
  }
  report->Metric("core.plan_unattributed_ms",
                 unattributed("core.plan",
                              {"frontends.parse", "opt.optimize",
                               "scheduler.predict_sizes", "scheduler.partition",
                               "backends.codegen"}),
                 "ms");
  report->Metric("core.execute_unattributed_ms",
                 unattributed("core.execute", {"engines.job"}), "ms");
  report->Metric("engines.overhead_ms",
                 unattributed("engines.job", {"relational.kernel"}), "ms");
  report->Metric("engines.job_ms_max", Median(spans.MaxByRequest("engines.job")),
                 "ms");
  report->Metric("opt.rewrites", median_of("opt.rewrites"), "count");
  report->Metric("scheduler.jobs", median_of("scheduler.jobs"), "count");
  report->Metric("scheduler.predicted_cost", median_of("scheduler.predicted_cost"),
                 "sim_s");
  report->Metric("engines.jobs", median_of("engines.jobs"), "count");
  report->Metric("cluster.dfs_relations", median_of("cluster.dfs_relations"),
                 "count");
  report->Metric("cluster.dfs_read_mb", median_of("cluster.dfs_read_mb"), "MB");
  report->Metric("cluster.dfs_written_mb", median_of("cluster.dfs_written_mb"),
                 "MB");
}

}  // namespace perfbench

// Per-job retry / cross-engine-failover dispatch (PR 5, extracted PR 8).
//
// One job's journey from planned to done: up to retry.max_attempts tries on
// its planned engine (with deterministic backoff), then — if failover is
// enabled — a re-plan onto the next-cheapest engine the cost model says can
// run the job's sub-DAG, repeating until an attempt succeeds or no untried
// engine remains. Attempt numbers are global across engines so the fault
// injector's (workflow, job@engine, attempt) key never repeats within a run.
//
// Musketeer::Execute drives every job through it. Each attempt goes through
// the run's placement hook (a JobAttemptFn), so shard failover composes
// naturally: a dead shard surfaces as a retryable failure, and the next
// attempt re-places among the shards still alive.

#ifndef MUSKETEER_SRC_CORE_JOB_DISPATCH_H_
#define MUSKETEER_SRC_CORE_JOB_DISPATCH_H_

#include <functional>

#include "src/core/musketeer.h"

namespace musketeer {

struct JobDispatchEnv {
  const WorkflowSpec* workflow = nullptr;
  // Plan the job came from: dag/base_schemas drive failover re-planning.
  const WorkflowPlan* plan = nullptr;
  // Operator set of the job being dispatched, from the run's own job list:
  // the shared plan's job boundaries no longer match after a suffix replan.
  const std::vector<int>* ops = nullptr;
  const RunOptions* options = nullptr;
  JobAttemptFn run_attempt;
  // Current DFS base-relation sizes — queried lazily, only when a failover
  // actually needs to re-cost the job.
  std::function<RelationSizes()> dfs_sizes;
};

struct JobDispatchOutcome {
  JobResult result;
  JobRecovery recovery;
  int retries = 0;    // failed attempts that were retried (incl. failovers)
  int failovers = 0;  // engine switches after retry exhaustion
};

// Drives `*job` to success or terminal failure under `env`. On engine
// failover `*job` is replaced with the re-generated plan (so the caller's
// plans[i] records what finally ran). `ctx->attempt` advances monotonically.
StatusOr<JobDispatchOutcome> DispatchJobWithRecovery(JobPlan* job,
                                                     ExecutionContext* ctx,
                                                     const JobDispatchEnv& env);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_CORE_JOB_DISPATCH_H_

#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>

#include "perfbench/layers.h"
#include "perfbench/suite.h"
#include "src/base/rng.h"
#include "src/frontends/frontend.h"
#include "src/ir/eval.h"
#include "src/workloads/synthetic_dag.h"

namespace perfbench {

using namespace musketeer;

StatusOr<Reference> ComputeReference(const WorkflowSpec& workflow,
                                     const TableMap& inputs,
                                     const std::string& result_relation,
                                     Report* report) {
  Dfs dfs;
  for (const auto& [name, table] : inputs) dfs.Put(name, table);
  Musketeer m(&dfs);
  MUSKETEER_ASSIGN_OR_RETURN(RunResult run, m.Run(workflow, BenchRunOptions()));
  auto it = run.outputs.find(result_relation);
  if (it == run.outputs.end()) {
    return NotFoundError(workflow.id + ": no output " + result_relation);
  }
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<Dag> dag,
                             ParseWorkflow(workflow.language, workflow.source));
  MUSKETEER_ASSIGN_OR_RETURN(Table expected,
                             EvaluateDagRelation(*dag, inputs, result_relation));
  if (!Table::SameContent(expected, *it->second)) {
    report->Fail(workflow.id + ": Run output differs from the interpreter");
  }
  return Reference{it->second, run.makespan, run.plans.size()};
}

// A copy of `table` with its first row duplicated: never Identical to it.
TablePtr Corrupted(const TablePtr& table) {
  auto copy = std::make_shared<Table>(*table);
  if (table->num_rows() > 0) {
    copy->AppendRowFrom(*table, 0);
  } else {
    copy->set_scale(table->scale() * 2 + 1);
  }
  return copy;
}

bool Matches(const StatusOr<RunResult>& result, const std::string& relation,
             const TablePtr& reference) {
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: run failed: %s\n",
                 result.status().ToString().c_str());
    return false;
  }
  auto it = result->outputs.find(relation);
  return it != result->outputs.end() && Table::Identical(*it->second, *reference);
}

TableMap RelabelKeys(const SyntheticDagWorkload& workload, int64_t key_range,
                     uint64_t seed) {
  Rng rng(seed);
  int64_t a = 1;
  do {
    a = rng.NextInRange(1, key_range - 1);
  } while (std::gcd(a, key_range) != 1);
  const int64_t b = rng.NextInRange(0, key_range - 1);
  TableMap inputs;
  for (const auto& [name, table] : workload.inputs) {
    std::vector<Column> cols;
    for (size_t c = 0; c < table->num_fields(); ++c) cols.push_back(table->col(c));
    for (int64_t& k : *cols[0].mutable_ints()) k = (a * k + b) % key_range;
    auto relabeled = std::make_shared<Table>(
        Table::FromColumns(table->schema(), std::move(cols)));
    relabeled->set_scale(table->scale());
    inputs[name] = relabeled;
  }
  return inputs;
}

void ReportLatency(const std::vector<double>& normalized,
                   const std::vector<double>& raw, Report* report) {
  const Tail tail = TailOf(normalized);
  report->Normalized("latency_ms_p50", Median(normalized), Median(raw), "ms");
  report->Normalized("latency_ms_tail", tail.value, TailOf(raw).value, "ms");
  report->InfoNumber("latency_tail_percentile", tail.percentile);
  report->InfoNumber("latency_samples", static_cast<double>(tail.samples));
}

namespace {

// Share of a closed loop's run spent sampling the host speed.
constexpr double kHostShare = 0.05;
// Untimed units before a closed loop's timed ones.
constexpr double kWarmupMs = 1000;

// One closed-loop caller. `unit` runs one unit of work, traced when handed
// a recorder, and returns how many of its workflows matched their
// references; `prepare` runs untimed before each unit.
struct ClosedLoop {
  int workflows_per_unit = 1;
  std::function<void()> prepare;
  std::function<int(SpanRecorder*, uint64_t, double* unit_ms, double* sim_s)> unit;
};

void RunClosedLoop(const WorkloadArgs& args, const ClosedLoop& loop,
                   Report* report) {
  auto count = [&](int matched) {
    for (int i = 0; i < loop.workflows_per_unit; ++i) {
      report->Attempt(i < matched);
    }
  };
  if (!args.trace) {
    // Per unit: its latency, the wall and CPU time of its iteration
    // (prepare + unit) and when it ran. The host is sampled between units
    // for about kHostShare of the run, and each unit is normalized by the
    // samples nearest to it.
    struct Iteration {
      double latency_ms;
      double wall_ms;
      double cpu_ms;
      Clock::time_point mid;
    };
    std::vector<Iteration> iterations;
    std::vector<double> makespans;
    HostSpeed& host = report->host();
    // Warm-up, checked but not timed: units for kWarmupMs, at least one.
    for (const Clock::time_point warm = Clock::now();
         MsBetween(warm, Clock::now()) < kWarmupMs;) {
      loop.prepare();
      double ms = 0;
      double sim_s = 0;
      count(loop.unit(nullptr, 0, &ms, &sim_s));
    }
    const double host_wall0 = host.wall_ms();
    const Clock::time_point start = Clock::now();
    while (MsBetween(start, Clock::now()) < 1000.0 * args.seconds) {
      const double cpu0 = CpuSeconds();
      const Clock::time_point begin = Clock::now();
      loop.prepare();
      double ms = 0;
      double sim_s = 0;
      count(loop.unit(nullptr, 0, &ms, &sim_s));
      const Clock::time_point end = Clock::now();
      iterations.push_back({ms, MsBetween(begin, end), 1000.0 * (CpuSeconds() - cpu0),
                            begin + (end - begin) / 2});
      makespans.push_back(sim_s);
      const double elapsed_ms = MsBetween(start, Clock::now());
      do {
        host.Sample();
      } while (host.wall_ms() - host_wall0 < kHostShare * elapsed_ms);
    }
    std::vector<double> latencies;
    std::vector<double> raw_latencies;
    double wall_ms = 0;
    double raw_wall_ms = 0;
    double cpu_ms = 0;
    double raw_cpu_ms = 0;
    for (const Iteration& it : iterations) {
      const double factor = host.FactorAt(it.mid);
      latencies.push_back(it.latency_ms / factor);
      raw_latencies.push_back(it.latency_ms);
      wall_ms += it.wall_ms / factor;
      raw_wall_ms += it.wall_ms;
      cpu_ms += it.cpu_ms / factor;
      raw_cpu_ms += it.cpu_ms;
    }
    const double workflows =
        static_cast<double>(iterations.size() * loop.workflows_per_unit);
    ReportLatency(latencies, raw_latencies, report);
    const double wps = 1000.0 * workflows / wall_ms;
    const double raw_wps = 1000.0 * workflows / raw_wall_ms;
    report->Normalized("throughput_wps", wps, raw_wps, "1/s");
    // A single closed-loop caller has no offered rate to sweep: what it
    // sustains is what it completes.
    report->Normalized("sustained_wps", wps, raw_wps, "1/s");
    report->Normalized("cpu_ms_per_wf", cpu_ms / workflows, raw_cpu_ms / workflows,
                       "ms");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("sim_makespan_s", Median(makespans), "sim_s");
    return;
  }

  // Traced: untraced and traced units alternate, so the overhead compares
  // like with like under the same drift.
  SpanRecorder spans;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  const Clock::time_point start = Clock::now();
  for (uint64_t request = 1;
       MsBetween(start, Clock::now()) < 1000.0 * args.seconds || traced_ms.empty();
       ++request) {
    double ms = 0;
    double sim_s = 0;
    loop.prepare();
    count(loop.unit(nullptr, 0, &ms, &sim_s));
    plain_ms.push_back(ms);
    loop.prepare();
    count(loop.unit(&spans, request, &ms, &sim_s));
    traced_ms.push_back(ms);
  }
  ReportLayerMetrics(spans, report);
  const double plain = Median(plain_ms);
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Median(traced_ms) - plain) / plain, "%");
  report->InfoNumber("traced_units", static_cast<double>(traced_ms.size()));
  if (!args.spans_out.empty() && !spans.WriteJson(args.spans_out)) {
    report->Fail("cannot write spans to " + args.spans_out);
  }
}

struct SuiteState {
  std::vector<SuiteWorkflow> workflows;
  std::vector<TablePtr> references;
  std::vector<std::unique_ptr<Dfs>> dfs;  // one per workflow, fresh per pass
};

}  // namespace

void RunSuite(const WorkloadArgs& args, Report* report) {
  auto setup = [&] {
    auto state = std::make_unique<SuiteState>();
    state->workflows = MakeSuite(args.seed, args.small);
    for (const SuiteWorkflow& wf : state->workflows) {
      auto reference =
          ComputeReference(wf.spec, wf.inputs, wf.result_relation, report);
      if (!reference.ok()) {
        report->Fail(wf.name + ": " + reference.status().ToString());
        state->references.push_back(std::make_shared<Table>());
        continue;
      }
      state->references.push_back(args.corrupt_reference
                                      ? Corrupted(reference->table)
                                      : reference->table);
    }
    return state;
  };
  std::unique_ptr<SuiteState> state = TimedSetups<SuiteState>(setup, report);
  const RunOptions options = BenchRunOptions();

  ClosedLoop loop;
  loop.workflows_per_unit = static_cast<int>(state->workflows.size());
  loop.prepare = [&] {
    state->dfs.clear();
    for (const SuiteWorkflow& wf : state->workflows) {
      auto dfs = std::make_unique<Dfs>();
      for (const auto& [name, table] : wf.inputs) dfs->Put(name, table);
      state->dfs.push_back(std::move(dfs));
    }
  };
  loop.unit = [&](SpanRecorder* spans, uint64_t request, double* unit_ms,
                  double* sim_s) {
    int matched = 0;
    *unit_ms = 0;
    for (size_t i = 0; i < state->workflows.size(); ++i) {
      const SuiteWorkflow& wf = state->workflows[i];
      StatusOr<RunResult> result = InternalError("not run");
      double ms = 0;
      if (spans == nullptr) {
        const Clock::time_point start = Clock::now();
        Musketeer m(state->dfs[i].get());
        result = m.Run(wf.spec, options);
        ms = MsBetween(start, Clock::now());
      } else {
        result = TracedRun(spans, request, state->dfs[i].get(), wf.spec, options, &ms);
      }
      *unit_ms += ms;
      if (result.ok()) *sim_s += result->makespan;
      if (Matches(result, wf.result_relation, state->references[i])) {
        ++matched;
      } else {
        std::fprintf(stderr, "perfbench: %s: result differs from reference\n",
                     wf.name.c_str());
      }
    }
    return matched;
  };
  report->InfoString("unit_of_work", "one pass of the nine workflows");
  RunClosedLoop(args, loop, report);
}

namespace {

struct DagState {
  WorkflowSpec workflow;
  std::string result_relation;
  TablePtr reference;
  std::unique_ptr<Dfs> dfs;  // long-lived: keeps every run's intermediates
  int operators = 0;
};

}  // namespace

void RunDag1000(const WorkloadArgs& args, Report* report) {
  auto setup = [&] {
    // The DAG is the generator's seed-1 program, the one the planner
    // benchmarks use: other generator seeds plan 30% slower or faster, and
    // some build self-join chains whose sampled outputs exhaust memory.
    // Fresh random base tables (64 sampled rows each) move the simulated
    // makespan by up to half, so the seed relabels the keys of the
    // generator's own tables instead: every size, and so the simulated
    // makespan, is the same for every seed.
    SyntheticDagSpec spec;
    spec.target_ops = args.small ? 100 : 1000;
    spec.seed = 1;
    SyntheticDagWorkload workload = MakeSyntheticDag(spec);
    auto state = std::make_unique<DagState>();
    state->workflow = {"synthetic-dag", FrontendLanguage::kBeer, workload.source};
    state->result_relation = workload.result_relation;
    state->operators = workload.operator_count;
    const TableMap inputs =
        RelabelKeys(workload, spec.key_range, SubSeed(args.seed, 100));
    auto reference = ComputeReference(state->workflow, inputs,
                                      state->result_relation, report);
    if (!reference.ok()) {
      report->Fail("synthetic-dag: " + reference.status().ToString());
      state->reference = std::make_shared<Table>();
    } else {
      state->reference = args.corrupt_reference ? Corrupted(reference->table)
                                                : reference->table;
    }
    // Warm-up: the first Run on the long-lived DFS fills it with the
    // intermediates every later run finds there.
    state->dfs = std::make_unique<Dfs>();
    for (const auto& [name, table] : inputs) state->dfs->Put(name, table);
    Musketeer m(state->dfs.get());
    auto warm = m.Run(state->workflow, BenchRunOptions());
    if (!warm.ok()) report->Fail("synthetic-dag warm-up: " + warm.status().ToString());
    return state;
  };
  std::unique_ptr<DagState> state = TimedSetups<DagState>(setup, report);
  const RunOptions options = BenchRunOptions();

  ClosedLoop loop;
  loop.prepare = [] {};
  loop.unit = [&](SpanRecorder* spans, uint64_t request, double* unit_ms,
                  double* sim_s) {
    StatusOr<RunResult> result = InternalError("not run");
    if (spans == nullptr) {
      const Clock::time_point start = Clock::now();
      Musketeer m(state->dfs.get());
      result = m.Run(state->workflow, options);
      *unit_ms = MsBetween(start, Clock::now());
    } else {
      result = TracedRun(spans, request, state->dfs.get(), state->workflow,
                         options, unit_ms);
    }
    if (result.ok()) *sim_s = result->makespan;
    const bool ok = Matches(result, state->result_relation, state->reference);
    if (!ok) std::fprintf(stderr, "perfbench: synthetic-dag: result differs from reference\n");
    return ok ? 1 : 0;
  };
  report->InfoNumber("operators", state->operators);
  report->InfoNumber("dfs_relations_at_start",
                     static_cast<double>(state->dfs->ListRelations().size()));
  report->InfoString("unit_of_work", "one Musketeer::Run");
  RunClosedLoop(args, loop, report);
}

}  // namespace perfbench

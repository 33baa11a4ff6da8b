// The nine evaluation workflows of the paper (the set tests/workflow_setups.h
// packages), with every input generated from the benchmark's seed instead of
// the fixed seeds the tests use. Sizes match the tests' setups; `small`
// shrinks every sample for the benchmark's smoke run.

#ifndef MUSKETEER_PERFBENCH_SUITE_H_
#define MUSKETEER_PERFBENCH_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/musketeer.h"

namespace perfbench {

struct SuiteWorkflow {
  std::string name;  // e.g. "SimpleJoin"
  musketeer::WorkflowSpec spec;
  std::string language;  // the name POST /submit accepts in X-Language
  std::string result_relation;
  musketeer::TableMap inputs;
};

std::vector<SuiteWorkflow> MakeSuite(uint64_t seed, bool small);

// Seed of the i-th generator derived from the run's seed (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t i);

// Options every in-process run of the benchmark uses: a 16-node EC2 cluster
// as bench_shard_scaling does, everything else at its default.
musketeer::RunOptions BenchRunOptions();

}  // namespace perfbench

#endif  // MUSKETEER_PERFBENCH_SUITE_H_

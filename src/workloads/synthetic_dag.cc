#include "src/workloads/synthetic_dag.h"

#include <algorithm>
#include <sstream>

#include "src/base/rng.h"
#include "src/workloads/datasets.h"

namespace musketeer {

namespace {

// Generation state: the set of live (k, v) relations any motif may consume.
// Every motif below keeps the canonical schema, so any live relation can
// feed any motif and the final fan-in can UNION arbitrary pairs.
struct Gen {
  std::ostringstream out;
  std::vector<std::string> live;
  Rng rng;
  int emitted = 0;   // outer operators written so far
  int counter = 0;   // fresh-name counter

  explicit Gen(uint64_t seed) : rng(seed) {}

  std::string Fresh() {
    std::string name = "r";
    name += std::to_string(counter++);
    return name;
  }

  // Removes and returns a uniformly chosen live relation.
  std::string Take() {
    size_t i = rng.NextBounded(live.size());
    std::string name = live[i];
    live[i] = live.back();
    live.pop_back();
    return name;
  }

  int64_t Threshold() { return rng.NextInRange(200000, 900000); }
  int64_t Delta() { return rng.NextInRange(1, 97); }
};

// One linear operator: filter, column math, re-aggregation or dedup.
// All four preserve (k, v).
void EmitChain(Gen* g) {
  std::string in = g->Take();
  std::string out = g->Fresh();
  switch (g->rng.NextBounded(4)) {
    case 0:
      g->out << out << " = SELECT * FROM " << in << " WHERE v < "
             << g->Threshold() << ";\n";
      break;
    case 1:
      g->out << out << " = MAP k, v + " << g->Delta() << " AS v FROM " << in
             << ";\n";
      break;
    case 2:
      g->out << out << " = AGG SUM(v) AS v FROM " << in << " GROUP BY k;\n";
      break;
    default:
      g->out << out << " = DISTINCT " << in << ";\n";
      break;
  }
  g->emitted += 1;
  g->live.push_back(out);
}

// Split/rejoin (4 operators): two branches of one producer meet again in a
// key join, then fold back to (k, v). The partitioner must decide whether
// the branches share the producer's job or repartition at the join.
void EmitDiamond(Gen* g) {
  std::string in = g->Take();
  std::string a = g->Fresh();
  std::string b = g->Fresh();
  std::string j = g->Fresh();
  std::string out = g->Fresh();
  g->out << a << " = SELECT * FROM " << in << " WHERE v < " << g->Threshold()
         << ";\n"
         << b << " = MAP k, v + " << g->Delta() << " AS w FROM " << in
         << ";\n"
         << j << " = JOIN " << a << ", " << b << " ON " << a << ".k = " << b
         << ".k;\n"
         << out << " = MAP k, v + w AS v FROM " << j << ";\n";
  g->emitted += 4;
  g->live.push_back(out);
}

// Fan-out (2 operators): one producer feeds two independent consumers that
// both stay live — the extra live relation is paid for by one more closing
// UNION, which the budget accounting below reserves.
void EmitFanOut(Gen* g) {
  std::string in = g->Take();
  std::string a = g->Fresh();
  std::string b = g->Fresh();
  g->out << a << " = SELECT * FROM " << in << " WHERE v < " << g->Threshold()
         << ";\n"
         << b << " = MAP k, v + " << g->Delta() << " AS v FROM " << in
         << ";\n";
  g->emitted += 2;
  g->live.push_back(a);
  g->live.push_back(b);
}

// Fan-in (1 operator): two live branches merge.
void EmitUnion(Gen* g) {
  std::string a = g->Take();
  std::string b = g->Take();
  std::string out = g->Fresh();
  g->out << out << " = UNION " << a << ", " << b << ";\n";
  g->emitted += 1;
  g->live.push_back(out);
}

// One WHILE block: a single outer operator (the partitioner prices the body
// via the WHILE node, §5), with a 2-operator loop body.
void EmitWhile(Gen* g) {
  std::string in = g->Take();
  std::string lv = "lv" + std::to_string(g->counter);
  std::string step = "st" + std::to_string(g->counter);
  std::string out = g->Fresh();
  g->out << "WHILE 2 LOOP " << lv << " = " << in << " UPDATE " << lv
         << "_next {\n"
         << "  " << step << " = MAP k, v + 1 AS v FROM " << lv << ";\n"
         << "  " << lv << "_next = SELECT * FROM " << step
         << " WHERE v >= 0;\n"
         << "} YIELD " << lv << "_next AS " << out << ";\n";
  g->emitted += 1;
  g->live.push_back(out);
}

}  // namespace

SyntheticDagWorkload MakeSyntheticDag(const SyntheticDagSpec& spec) {
  const int target = std::max(1, spec.target_ops);
  // A closing UNION chain folds the live set into one sink; with B base
  // relations that is at least B-1 operators, so clamp B for tiny targets.
  const int bases =
      std::min(std::max(1, spec.base_relations), target + 1);

  Gen g(spec.seed);
  SyntheticDagWorkload wl;
  for (int i = 0; i < bases; ++i) {
    std::string name = "syn" + std::to_string(i);
    // Vary nominal sizes so the cost model sees asymmetric branches.
    double rows = spec.nominal_rows * static_cast<double>(1 + i % 3);
    wl.inputs.emplace_back(
        name, MakeUniformKv(rows, std::max(1, spec.sample_rows),
                            std::max<int64_t>(1, spec.key_range),
                            spec.seed + static_cast<uint64_t>(i)));
    g.live.push_back(std::move(name));
  }

  // Budget: `rem` counts operators still to spend on motifs after reserving
  // live.size()-1 closing UNIONs. Chains cost exactly 1, so any remainder
  // lands exactly on the target.
  auto rem = [&] {
    return target - g.emitted - (static_cast<int>(g.live.size()) - 1);
  };
  while (rem() > 0) {
    const uint64_t pick = g.rng.NextBounded(100);
    if (pick < 20 && rem() >= 4) {
      EmitDiamond(&g);
    } else if (pick < 35 && rem() >= 3) {
      EmitFanOut(&g);
    } else if (pick < 45 && g.live.size() >= 3) {
      EmitUnion(&g);  // rem unchanged: 1 op emitted, 1 closing UNION saved
    } else if (pick < 60 && spec.include_while) {
      EmitWhile(&g);
    } else {
      EmitChain(&g);
    }
  }
  while (g.live.size() > 1) {
    EmitUnion(&g);
  }

  wl.result_relation = g.live.front();
  wl.operator_count = g.emitted;
  wl.source = g.out.str();
  return wl;
}

}  // namespace musketeer

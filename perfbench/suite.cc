#include "perfbench/suite.h"

#include <memory>

#include "src/base/rng.h"
#include "src/workloads/datasets.h"
#include "src/workloads/workflows.h"

namespace perfbench {

using namespace musketeer;

uint64_t SubSeed(uint64_t seed, uint64_t i) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
  return rng.Next();
}

RunOptions BenchRunOptions() {
  RunOptions options;
  options.cluster = Ec2Cluster(16);
  return options;
}

namespace {

GraphDataset Graph(const char* name, double vertices, double edges, int sample,
                   uint64_t seed) {
  GraphSpec spec;
  spec.name = name;
  spec.nominal_vertices = vertices;
  spec.nominal_edges = edges;
  spec.sample_vertices = sample;
  spec.seed = seed;
  return MakePowerLawGraph(spec);
}

// MakeOverlappingCommunities with seeded graphs: B shares a third of A's
// edges, so INTERSECT yields a real overlap.
CommunityPair Communities(int sample, uint64_t seed_a, uint64_t seed_b) {
  CommunityPair out;
  out.a = Graph("livejournal", 4.8e6, 69e6, sample, seed_a);
  GraphDataset b = Graph("webcommunity", 5.8e6, 82e6, sample, seed_b);
  auto merged = std::make_shared<Table>(b.edges->schema());
  const Table& a_edges = *out.a.edges;
  const Table& b_edges = *b.edges;
  const size_t shared = a_edges.num_rows() / 3;
  for (size_t i = 0; i < shared; ++i) {
    merged->AppendRowFrom(a_edges, i * 3 % a_edges.num_rows());
  }
  for (size_t i = shared; i < b_edges.num_rows(); ++i) {
    merged->AppendRowFrom(b_edges, i);
  }
  merged->set_scale(b.edges->scale());
  b.edges = merged;
  out.b = std::move(b);
  return out;
}

}  // namespace

std::vector<SuiteWorkflow> MakeSuite(uint64_t seed, bool small) {
  const int div = small ? 10 : 1;
  std::vector<SuiteWorkflow> suite;
  auto add = [&](const char* name, WorkflowSpec spec, const char* language,
                 const char* result, TableMap inputs) {
    suite.push_back({name, std::move(spec), language, result, std::move(inputs)});
  };

  add("TopShopper",
      {"top-shopper", FrontendLanguage::kBeer, TopShopperBeer(5, 300.0)},
      "beer", "top_shoppers",
      {{"purchases", MakePurchases(1e6, 1500 / div, 10, SubSeed(seed, 1))}});

  TpchDataset tpch = MakeTpch(10, 3000 / div, SubSeed(seed, 2));
  add("TpchHive", {"tpch-q17", FrontendLanguage::kHive, TpchQ17Hive()}, "hive",
      "q17_result", {{"lineitem", tpch.lineitem}, {"part", tpch.part}});
  add("TpchLindi", {"tpch-q17", FrontendLanguage::kLindi, TpchQ17Lindi()},
      "lindi", "q17_result",
      {{"lineitem", tpch.lineitem}, {"part", tpch.part}});

  NetflixDataset netflix = MakeNetflix(50 / div + 5, SubSeed(seed, 3));
  add("Netflix", {"netflix", FrontendLanguage::kBeer, NetflixBeer(60)}, "beer",
      "recommendation",
      {{"ratings", netflix.ratings}, {"movies", netflix.movies}});

  GraphDataset lj = Graph("livejournal", 4.8e6, 69e6, 1200 / div, SubSeed(seed, 4));
  add("SimpleJoin", {"join", FrontendLanguage::kBeer, SimpleJoinBeer()}, "beer",
      "joined", {{"vertices_rel", lj.vertices}, {"edges_rel", lj.edges}});

  GraphDataset orkut = Graph("orkut", 3.0e6, 117e6, 1000 / div, SubSeed(seed, 5));
  add("PageRank", {"pagerank", FrontendLanguage::kGas, PageRankGas(3)}, "gas",
      "pagerank", {{"vertices", orkut.vertices}, {"edges", orkut.edges}});

  GraphSpec sssp;
  sssp.name = "sssp-test";
  sssp.sample_vertices = 120 / div;
  sssp.nominal_vertices = 120;
  sssp.seed = SubSeed(seed, 6);
  sssp.with_costs = true;
  sssp.initial_value = 1e18;
  GraphDataset sssp_graph = MakePowerLawGraph(sssp);
  add("Sssp", {"sssp", FrontendLanguage::kGas, SsspGas(4)}, "gas", "sssp",
      {{"vertices", sssp_graph.vertices}, {"edges", sssp_graph.edges}});

  KmeansDataset kmeans = MakeKmeans(1e7, 300 / div, 4, SubSeed(seed, 7));
  add("Kmeans", {"kmeans", FrontendLanguage::kBeer, KmeansBeer(3)}, "beer",
      "kmeans_centers",
      {{"points", kmeans.points}, {"centers", kmeans.centers}});

  CommunityPair pair = Communities(1200 / div, SubSeed(seed, 8), SubSeed(seed, 9));
  add("CrossCommunity",
      {"cross-community", FrontendLanguage::kBeer, CrossCommunityPageRankBeer(3)},
      "beer", "cc_pagerank",
      {{"lj_edges", pair.a.edges}, {"web_edges", pair.b.edges}});
  return suite;
}

}  // namespace perfbench

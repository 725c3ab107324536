// Unit and property tests for vertex-cut partitioning, master/mirror routing, the
// core-subgraph layout, and snapshot rewiring.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph {
namespace {

// The layout-shape tests below (equal-edge chunks, core edges first) describe the
// paper's Figure-4 layout, so they pin the even_edge strategy.
PartitionOptions Opts(uint32_t parts, bool core = false) {
  PartitionOptions o;
  o.num_partitions = parts;
  o.partitioner = PartitionerKind::kEvenEdge;
  o.core_subgraph = core;
  return o;
}

// Multiset of global edges reconstructed from all partitions' local CSRs.
std::multiset<std::tuple<VertexId, VertexId, float>> GlobalEdges(const PartitionedGraph& pg) {
  std::multiset<std::tuple<VertexId, VertexId, float>> edges;
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      const auto targets = part.out_neighbors(v);
      const auto weights = part.out_weights(v);
      for (size_t i = 0; i < targets.size(); ++i) {
        edges.insert({part.vertex(v).global_id, part.vertex(targets[i]).global_id, weights[i]});
      }
    }
  }
  return edges;
}

TEST(PartitionTest, EdgesPreservedExactly) {
  const EdgeList list = GenerateErdosRenyi(200, 1500, 17);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(7));
  EXPECT_EQ(pg.num_edges(), list.num_edges());
  std::multiset<std::tuple<VertexId, VertexId, float>> expected;
  for (const Edge& e : list.edges()) {
    expected.insert({e.src, e.dst, e.weight});
  }
  EXPECT_EQ(GlobalEdges(pg), expected);
}

TEST(PartitionTest, EdgeCountsBalancedWithinOne) {
  const EdgeList list = GenerateErdosRenyi(300, 4000, 5);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(8));
  const uint64_t lo = list.num_edges() / 8;
  for (const auto& part : pg.partitions()) {
    EXPECT_GE(part.num_local_edges(), lo);
    EXPECT_LE(part.num_local_edges(), lo + 1);
  }
}

TEST(PartitionTest, EveryVertexHasExactlyOneMaster) {
  const EdgeList list = GenerateErdosRenyi(150, 900, 3);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(6));
  std::vector<uint32_t> master_count(list.num_vertices(), 0);
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      if (part.vertex(v).is_master) {
        ++master_count[part.vertex(v).global_id];
      }
    }
  }
  for (VertexId v = 0; v < list.num_vertices(); ++v) {
    EXPECT_EQ(master_count[v], 1u) << "vertex " << v;
    const ReplicaRef master = pg.master_of(v);
    EXPECT_NE(master.partition, kInvalidPartition);
    EXPECT_EQ(pg.partition(master.partition).vertex(master.local).global_id, v);
  }
}

TEST(PartitionTest, MirrorRoutingIsConsistent) {
  const EdgeList list = GenerateErdosRenyi(120, 1200, 23);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(5));
  // Every non-master replica must point at the true master; every master's mirror list
  // must contain exactly its replicas.
  std::map<VertexId, std::set<std::pair<PartitionId, LocalVertexId>>> mirrors;
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      const LocalVertexInfo& info = part.vertex(v);
      const ReplicaRef master = pg.master_of(info.global_id);
      EXPECT_EQ(info.master_partition, master.partition);
      EXPECT_EQ(info.master_local, master.local);
      if (!info.is_master) {
        mirrors[info.global_id].insert({part.id(), v});
      }
    }
  }
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      const LocalVertexInfo& info = part.vertex(v);
      if (!info.is_master) {
        continue;
      }
      std::set<std::pair<PartitionId, LocalVertexId>> listed;
      for (const ReplicaRef& ref : part.mirrors_of(v)) {
        listed.insert({ref.partition, ref.local});
      }
      EXPECT_EQ(listed, mirrors[info.global_id]) << "vertex " << info.global_id;
    }
  }
}

TEST(PartitionTest, GlobalDegreesRecordedOnEveryReplica) {
  const EdgeList list = GenerateErdosRenyi(80, 600, 29);
  std::vector<uint32_t> out_degree(list.num_vertices(), 0);
  for (const Edge& e : list.edges()) {
    ++out_degree[e.src];
  }
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(4));
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      EXPECT_EQ(part.vertex(v).global_out_degree, out_degree[part.vertex(v).global_id]);
    }
  }
}

TEST(PartitionTest, IsolatedVerticesGetMasters) {
  EdgeList list;
  list.Add(0, 1);
  list.set_num_vertices(10);  // Vertices 2..9 are isolated.
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(3));
  for (VertexId v = 0; v < 10; ++v) {
    const ReplicaRef master = pg.master_of(v);
    ASSERT_NE(master.partition, kInvalidPartition) << "vertex " << v;
    EXPECT_TRUE(pg.partition(master.partition).vertex(master.local).is_master);
  }
}

TEST(PartitionTest, EmptyGraph) {
  EdgeList list;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(4));
  EXPECT_EQ(pg.num_partitions(), 1u);
  EXPECT_EQ(pg.num_edges(), 0u);
}

TEST(PartitionTest, MorePartitionsThanEdgesClamps) {
  EdgeList list;
  list.Add(0, 1);
  list.Add(1, 2);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(64));
  EXPECT_EQ(pg.num_partitions(), 2u);
}

TEST(PartitionTest, CoreSubgraphGroupsHubEdges) {
  // Star: hub 0 with bidirectional spokes — only vertex 0 is core, so no core-core edges;
  // add a second hub to create core edges.
  EdgeList list = GenerateStar(100);
  list.Add(0, 99);  // 99 already has degree 2; keep graph mostly star.
  // Create a heavy 2-clique between two hubs: many parallel-ish edges via neighbors.
  PartitionOptions options = Opts(4, /*core=*/true);
  options.core_degree_multiplier = 4.0;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, options);
  // The partitioning must still preserve edges and masters.
  EXPECT_EQ(pg.num_edges(), list.num_edges());
}

TEST(PartitionTest, CoreSubgraphPutsCoreEdgesFirst) {
  // Two hubs connected to each other and to many leaves: the hub-hub edges are the core
  // subgraph and must land in the leading partition(s).
  EdgeList list;
  const VertexId kLeaves = 60;
  for (VertexId i = 2; i < 2 + kLeaves; ++i) {
    list.Add(0, i);
    list.Add(i, 1);
  }
  list.Add(0, 1);
  list.Add(1, 0);
  PartitionOptions options = Opts(4, /*core=*/true);
  options.core_degree_multiplier = 3.0;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, options);
  // Hub-hub edges (0->1, 1->0) must be in partition 0 and it must be flagged core.
  const auto& p0 = pg.partition(0);
  EXPECT_TRUE(p0.is_core());
  bool found01 = false;
  bool found10 = false;
  for (LocalVertexId v = 0; v < p0.num_local_vertices(); ++v) {
    for (LocalVertexId t : p0.out_neighbors(v)) {
      const VertexId s = p0.vertex(v).global_id;
      const VertexId d = p0.vertex(t).global_id;
      found01 |= (s == 0 && d == 1);
      found10 |= (s == 1 && d == 0);
    }
  }
  EXPECT_TRUE(found01);
  EXPECT_TRUE(found10);
  // Later partitions hold only leaf edges.
  EXPECT_FALSE(pg.partition(pg.num_partitions() - 1).is_core());
}

TEST(PartitionTest, ReplicationFactorAtLeastOne) {
  const EdgeList list = GenerateErdosRenyi(100, 2000, 31);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(8));
  EXPECT_GE(pg.replication_factor(), 1.0);
  EXPECT_GT(pg.total_structure_bytes(), 0u);
}

TEST(PartitionTest, SinglePartitionHasNoMirrors) {
  const EdgeList list = GenerateErdosRenyi(64, 500, 37);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(1));
  EXPECT_DOUBLE_EQ(pg.replication_factor(), 1.0);
  for (LocalVertexId v = 0; v < pg.partition(0).num_local_vertices(); ++v) {
    EXPECT_TRUE(pg.partition(0).vertex(v).is_master);
  }
}

TEST(PartitionTest, RewireClonePreservesLayout) {
  const EdgeList list = GenerateErdosRenyi(100, 800, 41);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(4));
  const GraphPartition& original = pg.partition(1);
  const GraphPartition clone = original.RewireClone(50, 99);
  EXPECT_EQ(clone.num_local_vertices(), original.num_local_vertices());
  EXPECT_EQ(clone.num_local_edges(), original.num_local_edges());
  EXPECT_EQ(clone.structure_bytes(), original.structure_bytes());
  for (LocalVertexId v = 0; v < clone.num_local_vertices(); ++v) {
    EXPECT_EQ(clone.vertex(v).global_id, original.vertex(v).global_id);
    EXPECT_EQ(clone.vertex(v).is_master, original.vertex(v).is_master);
  }
  // In-CSR must stay consistent with out-CSR: total edges match per direction.
  uint64_t in_edges = 0;
  for (LocalVertexId v = 0; v < clone.num_local_vertices(); ++v) {
    in_edges += clone.in_neighbors(v).size();
  }
  EXPECT_EQ(in_edges, clone.num_local_edges());
}

TEST(PartitionTest, RewireCloneChangesSomething) {
  const EdgeList list = GenerateErdosRenyi(100, 800, 43);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, Opts(2));
  const GraphPartition& original = pg.partition(0);
  const GraphPartition clone = original.RewireClone(100, 7);
  bool changed = false;
  for (LocalVertexId v = 0; v < clone.num_local_vertices() && !changed; ++v) {
    const auto a = original.out_neighbors(v);
    const auto b = clone.out_neighbors(v);
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) {
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(PartitionTest, SuitablePartitionCountFormula) {
  // 1 MiB cache, 10% reserve, state ratio 0.5 per structure byte with 4 jobs: the
  // structure share per partition is capped near (1MiB - reserve) / (1 + 0.5*4).
  const uint64_t cache = 1ull << 20;
  const uint64_t reserve = cache / 10;
  const uint32_t count =
      SuitablePartitionCount(/*structure_bytes=*/8ull << 20, cache, 4, 0.5, reserve);
  const double pg_bytes = static_cast<double>(cache - reserve) / (1.0 + 0.5 * 4);
  EXPECT_EQ(count, static_cast<uint32_t>(std::ceil((8ull << 20) / pg_bytes)));
  EXPECT_GE(SuitablePartitionCount(0, cache, 4, 0.5, reserve), 1u);
}

// Property sweep: partition invariants hold across graph shapes and partition counts.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, bool>> {};

TEST_P(PartitionPropertyTest, InvariantsHold) {
  const auto [scale, parts, core] = GetParam();
  RmatOptions rmat;
  rmat.scale = scale;
  rmat.edge_factor = 8;
  rmat.seed = scale * 31 + parts;
  const EdgeList list = GenerateRmat(rmat);
  PartitionOptions options = Opts(parts, core);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(list, options);

  // Edge preservation.
  EXPECT_EQ(pg.num_edges(), list.num_edges());
  uint64_t edge_total = 0;
  for (const auto& part : pg.partitions()) {
    edge_total += part.num_local_edges();
  }
  EXPECT_EQ(edge_total, list.num_edges());

  // Balance within one edge.
  const uint64_t lo = list.num_edges() / pg.num_partitions();
  for (const auto& part : pg.partitions()) {
    EXPECT_GE(part.num_local_edges(), lo);
    EXPECT_LE(part.num_local_edges(), lo + 1);
  }

  // Master uniqueness.
  std::vector<uint32_t> masters(list.num_vertices(), 0);
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      if (part.vertex(v).is_master) {
        ++masters[part.vertex(v).global_id];
      }
    }
  }
  for (VertexId v = 0; v < list.num_vertices(); ++v) {
    EXPECT_EQ(masters[v], 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Combine(::testing::Values(8u, 10u), ::testing::Values(1u, 3u, 8u, 16u),
                       ::testing::Bool()));

}  // namespace
}  // namespace cgraph

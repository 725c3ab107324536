// Deterministic synthetic graph generators.
//
// R-MAT produces the skewed power-law degree distributions the paper's datasets exhibit
// (section 3.2.1 cites PowerGraph's observation); the structured generators (ring, star,
// grid, ...) are used by tests where exact expected results are easy to state.

#ifndef SRC_GRAPH_GENERATORS_H_
#define SRC_GRAPH_GENERATORS_H_

#include <cstdint>

#include "src/graph/edge_list.h"

namespace cgraph {

struct RmatOptions {
  uint32_t scale = 14;        // num_vertices = 2^scale; must be < 32
  uint32_t edge_factor = 16;  // num_edges = edge_factor * num_vertices
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;            // d = 1 - a - b - c
  uint64_t seed = 1;
  bool remove_self_loops = true;
  bool dedup = true;
  // Random edge weights in [1, max_weight]; 1.0 means unweighted.
  double max_weight = 16.0;
};

// Kronecker/R-MAT generator (Chakrabarti et al.). Vertex ids are permuted so that low ids
// are not systematically the hubs.
EdgeList GenerateRmat(const RmatOptions& options);

// G(n, m) uniform random directed multigraph (deduped).
EdgeList GenerateErdosRenyi(VertexId n, uint64_t m, uint64_t seed);

// 0 -> 1 -> ... -> n-1 -> 0.
EdgeList GenerateRing(VertexId n);

// 0 -> 1 -> ... -> n-1.
EdgeList GeneratePath(VertexId n);

// Hub 0 with spokes both ways: 0 <-> i for i in [1, n).
EdgeList GenerateStar(VertexId n);

// rows x cols 4-neighbor mesh, edges in both directions.
EdgeList GenerateGrid(VertexId rows, VertexId cols);

// All ordered pairs (i, j), i != j.
EdgeList GenerateComplete(VertexId n);

}  // namespace cgraph

#endif  // SRC_GRAPH_GENERATORS_H_

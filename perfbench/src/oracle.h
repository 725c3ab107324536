// The benchmark's correctness oracle: every job the benchmark runs is checked against the
// single-threaded reference implementations in src/algorithms/reference.h.
//
// Tolerances follow the engine's tier-1 tests: PageRank and personalized PageRank within
// 1e-6 absolute (both run at the tests' tight epsilons, see MakeBenchProgram), SSSP within
// 1e-12 relative, BFS and k-hop exactly, WCC on canonicalized labels, k-core on the
// membership recorded in FinalAux.

#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/core/vertex_program.h"
#include "src/graph/edge_list.h"
#include "src/graph/graph.h"

namespace perfbench {

// k of the benchmark's kcore and khop programs.
inline constexpr uint32_t kBenchK = 4;

// Builds the program the benchmark submits for `name`: MakeProgram's, except that
// PageRank and personalized PageRank converge to the tests' epsilons so their results
// are comparable with the reference within 1e-6.
std::unique_ptr<cgraph::VertexProgram> MakeBenchProgram(const std::string& name,
                                                        cgraph::VertexId source);

class Oracle {
 public:
  explicit Oracle(const cgraph::EdgeList& edges);

  // Compares one completed job's readback with the reference answer for
  // (program, source). Returns an empty string on a match, else what differed.
  // References are computed on first use and cached.
  std::string Check(const std::string& program, cgraph::VertexId source,
                    const std::vector<double>& values, const std::vector<double>& aux);

 private:
  const std::vector<double>& Reference(const std::string& program, cgraph::VertexId source);

  cgraph::Graph graph_;
  std::map<std::pair<std::string, cgraph::VertexId>, std::vector<double>> cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_

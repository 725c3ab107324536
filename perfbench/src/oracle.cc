#include "perfbench/src/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/algorithms/factory.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/reference.h"

namespace perfbench {
namespace {

constexpr double kDamping = 0.85;
constexpr double kPageRankEpsilon = 1e-7;
constexpr double kPprEpsilon = 1e-7;
constexpr double kRankTolerance = 1e-6;
constexpr double kSsspRelTolerance = 1e-12;

bool UsesSource(const std::string& program) {
  return program == "sssp" || program == "bfs" || program == "ppr" || program == "khop";
}

std::string Mismatch(const std::string& program, size_t v, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: vertex %zu is %.17g, reference %.17g",
                program.c_str(), v, got, want);
  return buf;
}

}  // namespace

std::unique_ptr<cgraph::VertexProgram> MakeBenchProgram(const std::string& name,
                                                        cgraph::VertexId source) {
  if (name == "pagerank") {
    return std::make_unique<cgraph::PageRankProgram>(kDamping, kPageRankEpsilon);
  }
  if (name == "ppr") {
    return std::make_unique<cgraph::PersonalizedPageRankProgram>(source, kDamping,
                                                                 kPprEpsilon);
  }
  return cgraph::MakeProgram(name, source, kBenchK);
}

Oracle::Oracle(const cgraph::EdgeList& edges) : graph_(cgraph::Graph::FromEdges(edges)) {}

const std::vector<double>& Oracle::Reference(const std::string& program,
                                             cgraph::VertexId source) {
  const auto key = std::make_pair(program, UsesSource(program) ? source : 0);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    return it->second;
  }
  std::vector<double> ref;
  if (program == "pagerank") {
    ref = cgraph::ReferencePageRank(graph_, kDamping, kPageRankEpsilon);
  } else if (program == "ppr") {
    ref = cgraph::ReferencePersonalizedPageRank(graph_, source, kDamping, kPprEpsilon);
  } else if (program == "sssp") {
    ref = cgraph::ReferenceSssp(graph_, source);
  } else if (program == "bfs") {
    ref = cgraph::ReferenceBfs(graph_, source);
  } else if (program == "khop") {
    ref = cgraph::ReferenceKHop(graph_, source, kBenchK);
  } else if (program == "wcc") {
    ref = cgraph::CanonicalizeLabels(cgraph::ReferenceWcc(graph_));
  } else if (program == "kcore") {
    ref = cgraph::ReferenceKCore(graph_, kBenchK);
  }
  return cache_.emplace(key, std::move(ref)).first->second;
}

std::string Oracle::Check(const std::string& program, cgraph::VertexId source,
                          const std::vector<double>& values, const std::vector<double>& aux) {
  const std::vector<double>& ref = Reference(program, source);
  if (ref.empty()) {
    return program + ": no reference implementation";
  }
  const std::vector<double>& got = program == "kcore" ? aux : values;
  if (got.size() != ref.size()) {
    return program + ": readback has the wrong vertex count";
  }
  if (program == "wcc") {
    const std::vector<double> labels = cgraph::CanonicalizeLabels(got);
    for (size_t v = 0; v < ref.size(); ++v) {
      if (labels[v] != ref[v]) {
        return Mismatch(program, v, labels[v], ref[v]);
      }
    }
    return "";
  }
  for (size_t v = 0; v < ref.size(); ++v) {
    const double a = got[v];
    const double b = ref[v];
    bool ok = false;
    if (program == "pagerank" || program == "ppr") {
      ok = std::fabs(a - b) <= kRankTolerance;
    } else if (program == "kcore") {
      ok = (a == 0.0) == (b == 1.0);  // aux 0 = in the core; reference 1 = in the core.
    } else if (std::isinf(b)) {
      ok = std::isinf(a);
    } else if (program == "sssp") {
      ok = std::fabs(a - b) <= kSsspRelTolerance * std::max(1.0, std::fabs(b));
    } else {
      ok = a == b;
    }
    if (!ok) {
      return Mismatch(program, v, a, b);
    }
  }
  return "";
}

}  // namespace perfbench

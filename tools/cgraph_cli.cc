// cgraph_cli — run concurrent iterative graph jobs from the command line.
//
// `cgraph_cli --help` lists every flag with its scope and default. Flags() below is the
// one table behind both the parser and that listing: each row names a flag, how its
// value parses, the option field it writes, and which runs it applies to.
//
// Prints a per-job report table (cgraph systems add parseable "admission:" and
// "execution:" summary lines; --serve replaces the table with a parseable "service:"
// line; fault injection / checkpointing add a parseable "robustness:" line); --csv
// additionally writes machine-readable rows. Exit codes: 0 ok, 2 usage error, 1 file
// error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/fault_injection.h"
#include "src/common/strings.h"
#include "src/core/admission_policy.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/metrics/csv_writer.h"
#include "src/metrics/table_printer.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"

namespace {

using namespace cgraph;

struct ArrivalSpec {
  std::string job;
  uint64_t step = 0;
};

// Everything the flags write. Engine, partition, service and trace settings live in the
// library option structs that consume them, so each default is stated once, there; the
// initializers here are the CLI's own defaults (a smaller R-MAT graph, 16 partitions).
struct CliOptions {
  CliOptions() {
    rmat.scale = 12;
    rmat.edge_factor = 8;
    partition.num_partitions = 16;
  }

  bool help = false;
  std::string graph_path;
  RmatOptions rmat;
  std::vector<std::string> jobs = {"pagerank", "sssp", "scc", "bfs"};
  std::string system = "cgraph";
  PartitionOptions partition;
  EngineOptions engine;
  VertexId source = kInvalidVertex;  // Unset: the lowest positive out-degree vertex.
  std::vector<ArrivalSpec> arrivals;
  std::string csv_path;
  std::string values_out;  // Final converged values of completed jobs.
  // Service-daemon mode (docs/service.md).
  bool serve = false;
  ServiceOptions service;
  TraceGenOptions trace;
  uint64_t trace_sources = 8;  // Source-pool size; PickSourcePool fills trace.sources.
  std::string trace_file;      // Replay this trace file instead of generating.
  std::string trace_out;       // Save the generated trace here.
};

bool IsCgraphSystem(std::string_view system) {
  return system == "cgraph" || system == "cgraph-without";
}

bool ParseBaselineSystem(std::string_view name, BaselineSystem* out) {
  for (const BaselineSystem system :
       {BaselineSystem::kSequential, BaselineSystem::kSeraph, BaselineSystem::kSeraphVt,
        BaselineSystem::kNxgraph, BaselineSystem::kClip}) {
    if (name == BaselineSystemName(system)) {
      *out = system;
      return true;
    }
  }
  return false;
}

constexpr std::string_view kKnownJobs[] = {"pagerank", "sssp", "scc", "bfs",
                                           "wcc",      "kcore", "ppr", "khop"};

bool IsKnownJob(std::string_view name) {
  return std::find(std::begin(kKnownJobs), std::end(kKnownJobs), name) !=
         std::end(kKnownJobs);
}

// Which runs a flag applies to. A flag given outside its scope is a usage error rather
// than silently ignored.
enum class Scope : uint8_t {
  kAny,     // Every system: input graph, layout, the shared trigger stage, reporting.
  kCgraph,  // --system=cgraph|cgraph-without: admission, execution model, robustness.
  kServe,   // --serve (itself cgraph-only): the arrival trace and daemon policies.
};

// One row of the flag table.
struct Flag {
  const char* name;     // "--partitions".
  const char* metavar;  // "N", "PATH", "fifo|overlap|predict"; "" for a switch.
  Scope scope;
  const char* help;
  std::string expects;       // Completes "error: --flag expects ..." on a bad value.
  std::string default_text;  // The target's value when the table was built; "" hides it.
  std::function<bool(const char* value)> parse;  // Writes the target; false = bad value.

  bool is_switch() const { return *metavar == '\0'; }
};

// The value kinds. Each builder reads the target's current value for default_text, so
// a table built over a default-constructed CliOptions reports the defaults.

Flag Switch(const char* name, bool* field, bool value, Scope scope, const char* help) {
  return {name, "", scope, help, "", "", [field, value](const char*) {
            *field = value;
            return true;
          }};
}

Flag Text(const char* name, std::string* field, Scope scope, const char* help) {
  return {name, "PATH", scope, help, "", *field, [field](const char* value) {
            *field = value;
            return true;
          }};
}

// An unsigned integer in [lo, hi]. A current value outside that range is a sentinel
// ("computed when unset") and is not shown as a default.
template <typename T>
Flag Count(const char* name, T* field, Scope scope, const char* help, uint64_t lo = 0,
           uint64_t hi = std::numeric_limits<T>::max()) {
  const uint64_t current = *field;
  return {name, "N", scope, help,
          "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]",
          current >= lo && current <= hi ? std::to_string(current) : "",
          [field, lo, hi](const char* value) {
            uint64_t parsed = 0;
            if (!ParseUint64(value, &parsed) || parsed < lo || parsed > hi) {
              return false;
            }
            *field = static_cast<T>(parsed);
            return true;
          }};
}

std::string FormatReal(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// A finite double in [lo, hi], or (lo, hi] when lo_open. NaN and infinities fail every
// range comparison, so they are rejected explicitly rather than slipping through one.
Flag Real(const char* name, double* field, Scope scope, const char* help, double lo,
          double hi, bool lo_open = false) {
  return {name, "X", scope, help,
          std::string("a finite number in ") + (lo_open ? "(" : "[") + FormatReal(lo) +
              ", " + FormatReal(hi) + (std::isinf(hi) ? ")" : "]"),
          FormatReal(*field), [field, lo, hi, lo_open](const char* value) {
            double parsed = 0.0;
            if (!ParseDouble(value, &parsed) || !std::isfinite(parsed) ||
                (lo_open ? parsed <= lo : parsed < lo) || parsed > hi) {
              return false;
            }
            *field = parsed;
            return true;
          }};
}

// An enum spelled through its library Parse*/…Name helpers.
template <typename E, typename ParseFn, typename NameFn>
Flag Enum(const char* name, const char* choices, E* field, ParseFn parse_name,
          NameFn name_of, Scope scope, const char* help) {
  return {name, choices, scope, help, choices, std::string(name_of(*field)),
          [field, parse_name](const char* value) { return parse_name(value, field); }};
}

// Custom kinds: comma lists and compound values.

// SCALE,EDGE_FACTOR[,SEED]; omitted fields keep their current values.
bool ParseRmat(const char* value, RmatOptions* rmat) {
  const auto fields = SplitNonEmpty(value, ",");
  uint64_t parsed[3] = {rmat->scale, rmat->edge_factor, rmat->seed};
  if (fields.empty() || fields.size() > 3) {
    return false;
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!ParseUint64(fields[i], &parsed[i])) {
      return false;
    }
  }
  // 2^SCALE must fit a 32-bit VertexId.
  if (parsed[0] > 31 || parsed[1] > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  rmat->scale = static_cast<uint32_t>(parsed[0]);
  rmat->edge_factor = static_cast<uint32_t>(parsed[1]);
  rmat->seed = parsed[2];
  return true;
}

bool ParseJobs(const char* value, std::vector<std::string>* jobs) {
  jobs->clear();
  for (const auto piece : SplitNonEmpty(value, ",")) {
    if (!IsKnownJob(piece)) {
      return false;
    }
    jobs->emplace_back(piece);
  }
  return !jobs->empty();
}

bool ParseArrivals(const char* value, std::vector<ArrivalSpec>* arrivals) {
  for (const auto piece : SplitNonEmpty(value, ",")) {
    const size_t at = piece.find('@');
    uint64_t step = 0;
    if (at == std::string_view::npos || !IsKnownJob(piece.substr(0, at)) ||
        !ParseUint64(piece.substr(at + 1), &step)) {
      return false;
    }
    arrivals->push_back(ArrivalSpec{std::string(piece.substr(0, at)), step});
  }
  return true;
}

bool ParseFaults(const char* value, std::vector<FaultSpec>* specs) {
  for (const auto piece : SplitNonEmpty(value, ",")) {
    FaultSpec spec;
    if (!ParseFaultSpec(piece, &spec)) {
      return false;
    }
    specs->push_back(spec);
  }
  return true;
}

std::string Join(const std::vector<std::string>& names) {
  std::string joined;
  for (const auto& name : names) {
    joined += (joined.empty() ? "" : ",") + name;
  }
  return joined;
}

// The flag table: one row per flag, writing straight into *o.
std::vector<Flag> Flags(CliOptions* o) {
  constexpr Scope kAny = Scope::kAny;
  constexpr Scope kCgraph = Scope::kCgraph;
  constexpr Scope kServe = Scope::kServe;
  constexpr uint64_t k16Bit = 0xFFFF;
  EngineOptions& e = o->engine;
  TraceGenOptions& t = o->trace;
  ServiceOptions& s = o->service;
  return {
      Switch("--help", &o->help, true, kAny, "print this list and exit"),
      Text("--graph", &o->graph_path, kAny,
           "edge list, 'src dst [weight]' per line, # comments (replaces --rmat)"),
      {"--rmat", "SCALE,EF[,SEED]", kAny,
       "synthetic power-law graph: 2^SCALE vertices, EF edges per vertex",
       "SCALE,EF[,SEED] integers with SCALE <= 31 and EF < 2^32",
       std::to_string(o->rmat.scale) + "," + std::to_string(o->rmat.edge_factor) + "," +
           std::to_string(o->rmat.seed),
       [o](const char* value) { return ParseRmat(value, &o->rmat); }},
      {"--jobs", "NAME,...", kAny,
       "pagerank sssp scc bfs wcc kcore ppr khop (the request mix under --serve)",
       "a list of the job names --help lists", Join(o->jobs),
       [o](const char* value) { return ParseJobs(value, &o->jobs); }},
      {"--system", "NAME", kAny,
       "cgraph, cgraph-without (no Eq. 1 priority; under even_edge also no core split), "
       "or a baseline: sequential, seraph, seraph-vt, nxgraph, clip",
       "one of the system names --help lists", o->system,
       [o](const char* value) {
         BaselineSystem baseline;
         o->system = value;
         return IsCgraphSystem(o->system) || ParseBaselineSystem(o->system, &baseline);
       }},
      Count("--partitions", &o->partition.num_partitions, kAny, "graph partitions", 1,
            k16Bit),
      Enum("--partitioner", "even_edge|hash_source|greedy|degree",
           &o->partition.partitioner, ParsePartitionerName, PartitionerKindName, kAny,
           "edge-placement strategy (docs/partitioning.md)"),
      Count("--workers", &e.num_workers, kAny, "worker threads", 1, k16Bit),
      Count("--source", &o->source, kAny,
            "traversal source (default: lowest positive out-degree; a hub fans out wide)",
            0, kInvalidVertex - 1),
      Real("--theta-scale", &e.theta_scale, kAny,
           "scale Eq. 1's theta; 0 = pure N(P) ordering", 0.0, 1.0),
      Switch("--no-straggler", &e.straggler_split, false, kAny,
             "one trigger task per job: no intra-partition chunk stealing"),
      Count("--sweep-threshold", &e.parallel_sweep_threshold, kAny,
            "min partition vertices for pooled bookkeeping sweeps; 0 = always pooled"),
      Count("--trigger-threshold", &e.parallel_trigger_threshold, kAny,
            "min active vertices for a pooled trigger batch; 0 = always pooled"),
      Text("--csv", &o->csv_path, kAny, "also write the report as CSV"),

      {"--arrivals", "JOB@STEP,...", kCgraph,
       "submit JOB online after STEP partition-scheduling steps",
       "JOB@STEP[,JOB@STEP...] with known job names", "",
       [o](const char* value) { return ParseArrivals(value, &o->arrivals); }},
      Enum("--admission", "fifo|overlap|predict", &e.admission_policy,
           ParseAdmissionPolicyName, AdmissionPolicyKindName, kCgraph,
           "job admission when a slot frees (docs/scheduling.md)"),
      Real("--aging", &e.admission_aging, kCgraph,
           "overlap/predict score bonus per waited step", 0.0,
           std::numeric_limits<double>::infinity(), /*lo_open=*/true),
      Count("--max-jobs", &e.max_jobs, kCgraph, "concurrency slots before admission queues",
            1, k16Bit),
      Enum("--execution", "bsp|async", &e.execution_mode, ParseExecutionModeName,
           ExecutionModeName, kCgraph,
           "iteration model; async needs monotonic jobs (docs/execution_modes.md)"),
      Count("--staleness", &e.staleness, kCgraph,
            "async mirror-sync lag bound in iterations; 0 = bsp", 0, k16Bit),
      {"--inject-fault", "KIND@STEP[:JOB],...", kCgraph,
       "one-shot faults, KIND = load|trigger|push|corrupt|cancel (docs/robustness.md)",
       "KIND@STEP[:JOB],... with KIND one of load, trigger, push, corrupt, cancel", "",
       [o](const char* value) { return ParseFaults(value, &o->engine.fault_specs); }},
      Count("--fault-seed", &e.fault_seed, kCgraph, "corruption-target PRNG seed"),
      Count("--checkpoint-every", &e.checkpoint_every, kCgraph,
            "snapshot each job every N iterations; faulted jobs restart there; 0 = off"),
      Count("--job-step-budget", &e.job_step_budget, kCgraph,
            "cancel a running job N steps after admission; 0 = off"),
      Text("--values-out", &o->values_out, kCgraph,
           "write 'job,vertex,value' lines for every completed job"),
      Switch("--serve", &o->serve, true, kCgraph,
             "replay an arrival trace through the service daemon (docs/service.md)"),

      Count("--trace-jobs", &t.num_requests, kServe, "requests in the generated trace", 1),
      Enum("--trace-pattern", "uniform|bursty|diurnal", &t.pattern, ParseArrivalPattern,
           ArrivalPatternName, kServe, "arrival pattern"),
      Count("--trace-seed", &t.seed, kServe, "trace PRNG seed"),
      Count("--trace-gap", &t.mean_gap, kServe, "mean inter-arrival gap in steps"),
      Count("--trace-burst", &t.burst_size, kServe, "requests per bursty clump", 1),
      Count("--trace-sources", &o->trace_sources, kServe,
            "traversal-source pool size; smaller pools coalesce more", 1),
      Text("--trace-file", &o->trace_file, kServe, "replay this trace file"),
      Text("--trace-out", &o->trace_out, kServe, "save the generated trace"),
      Count("--queue-bound", &s.queue_bound, kServe,
            "waiting jobs before arrivals shed; 0 = unbounded"),
      Count("--deadline-steps", &s.deadline_steps, kServe,
            "shed jobs still waiting N steps after arrival; 0 = off"),
      Switch("--no-coalesce", &s.coalesce, false, kServe,
             "no query fan-in: every request runs its own job"),
      Count("--retry-limit", &s.retry_limit, kServe,
            "retry failed/cancelled/deadline-shed jobs up to N times; 0 = off", 0, k16Bit),
      Count("--retry-backoff", &s.retry_backoff, kServe,
            "base retry spacing in steps, doubled per attempt", 1),
  };
}

// Parses argv into *options. Values apply in argument order; then each flag given is
// checked against its scope, so a scope error does not depend on flag order.
bool ParseArgs(int argc, char** argv, CliOptions* options) {
  const std::vector<Flag> flags = Flags(options);
  std::vector<const Flag*> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = std::string_view(argv[i]) == "-h" ? "--help" : argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(), [arg](const Flag& f) {
      const std::string_view name = f.name;
      return f.is_switch() ? arg == name
                           : arg.starts_with(name) && arg.size() > name.size() &&
                                 arg[name.size()] == '=';
    });
    if (flag == flags.end()) {
      std::fprintf(stderr, "error: unknown argument '%s' (try --help)\n", argv[i]);
      return false;
    }
    const char* value = arg.data() + (flag->is_switch() ? arg.size() : arg.find('=') + 1);
    if (!flag->parse(value)) {
      std::fprintf(stderr, "error: %s expects %s\n", flag->name, flag->expects.c_str());
      return false;
    }
    given.push_back(&*flag);
  }
  if (options->help) {
    return true;
  }
  for (const Flag* flag : given) {
    if (flag->scope == Scope::kCgraph && !IsCgraphSystem(options->system)) {
      std::fprintf(stderr, "error: %s requires --system=cgraph|cgraph-without\n",
                   flag->name);
      return false;
    }
    if (flag->scope == Scope::kServe && !options->serve) {
      std::fprintf(stderr, "error: %s requires --serve\n", flag->name);
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  CliOptions defaults;
  const std::vector<Flag> flags = Flags(&defaults);
  std::printf("cgraph_cli — concurrent iterative graph processing (CGraph reproduction)\n");
  const std::pair<Scope, const char*> sections[] = {
      {Scope::kAny, "any system"},
      {Scope::kCgraph, "cgraph systems only (--system=cgraph|cgraph-without)"},
      {Scope::kServe, "--serve only (docs/service.md, docs/robustness.md)"}};
  for (const auto& [scope, title] : sections) {
    std::printf("\n%s:\n", title);
    for (const Flag& flag : flags) {
      if (flag.scope != scope) {
        continue;
      }
      std::string spelling =
          std::string(flag.name) + (flag.is_switch() ? "" : "=") + flag.metavar;
      if (spelling.size() > 22) {  // Too wide for the column: help goes on the next line.
        std::printf("  %s\n", spelling.c_str());
        spelling.clear();
      }
      std::string help = flag.help;
      if (!flag.default_text.empty()) {
        help += " (default " + flag.default_text + ")";
      }
      std::printf("  %-22s %s\n", spelling.c_str(), help.c_str());
    }
  }
}

// Parseable layout-quality summary (consumed by tools/run_bench.sh; index definitions
// in docs/partitioning.md). Printed for every system: the indices describe the graph
// layout, which baselines share with the cgraph systems.
void PrintPartitionLine(const PartitionQuality& q) {
  std::printf(
      "partition: partitioner=%s edge_cut_fraction=%.4f replication_factor=%.4f "
      "mirror_count=%llu edge_balance=%.4f vertex_balance=%.4f\n",
      PartitionerKindName(q.partitioner), q.edge_cut_fraction, q.replication_factor,
      static_cast<unsigned long long>(q.mirror_count), q.edge_balance, q.vertex_balance);
}

// Parseable execution-mode summary (consumed by tools/run_bench.sh): which iteration
// model actually applied, per docs/execution_modes.md — async_jobs counts jobs that ran
// under the relaxed model (monotonic programs with a non-degenerate staleness window).
void PrintExecutionLine(const RunReport& report, const EngineOptions& engine_options) {
  size_t async_jobs = 0;
  uint64_t redrain = 0;
  uint64_t deferred = 0;
  for (const auto& job : report.jobs) {
    async_jobs += job.async_execution ? 1 : 0;
    redrain += job.redrain_computes;
    deferred += job.deferred_pushes;
  }
  std::printf(
      "execution: mode=%s staleness=%u async_jobs=%zu redrain_computes=%llu "
      "deferred_pushes=%llu\n",
      ExecutionModeName(engine_options.execution_mode), engine_options.staleness,
      async_jobs, static_cast<unsigned long long>(redrain),
      static_cast<unsigned long long>(deferred));
}

// Parseable robustness summary (consumed by tools/run_bench.sh; see
// docs/robustness.md). Checkpoints add no hierarchy charge, so their modeled overhead
// is derived analytically: checkpoint_bytes at the cost model's memory-byte rate over
// the run's bandwidth channels, as a fraction of the run's modeled makespan.
void PrintRobustnessLine(size_t faults_fired, const RunReport& report,
                         const CostModel& cost) {
  size_t failed = 0;
  size_t cancelled = 0;
  uint64_t recoveries = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  for (const auto& job : report.jobs) {
    failed += job.failed ? 1 : 0;
    cancelled += job.cancelled ? 1 : 0;
    recoveries += job.recoveries;
    checkpoints += job.checkpoints_taken;
    checkpoint_bytes += job.checkpoint_bytes;
  }
  AccessCharge snapshot_charge;
  snapshot_charge.mem_bytes = checkpoint_bytes;
  const uint32_t channels =
      std::max<uint32_t>(1, std::min(report.workers, cost.bandwidth_channels));
  const double overhead = cost.AccessCost(snapshot_charge) / channels;
  const double makespan = report.ModeledMakespan(cost);
  std::printf(
      "robustness: injected=%zu failed=%zu cancelled=%zu recoveries=%llu "
      "unrecovered=%zu checkpoints=%llu checkpoint_bytes=%llu "
      "checkpoint_overhead_ratio=%.6f\n",
      faults_fired, failed, cancelled,
      static_cast<unsigned long long>(recoveries), failed + cancelled,
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(checkpoint_bytes),
      makespan > 0.0 ? overhead / makespan : 0.0);
}

// Parseable admission summary (consumed by tools/run_bench.sh): per-job wait steps are
// scheduling steps between becoming runnable and admission, deterministic for a fixed
// workload and policy. Overlap means aggregate only *scored* admissions (contended
// decisions under a footprint-aware policy) — unscored jobs report admit_overlap = 0
// without ever having been scored, and averaging them in would dilute the signal.
void PrintAdmissionLine(const RunReport& report, AdmissionPolicyKind policy) {
  uint64_t total_wait = 0;
  uint64_t max_wait = 0;
  size_t waited = 0;
  size_t scored = 0;
  size_t predicted = 0;
  double scored_overlap = 0.0;
  double predicted_overlap = 0.0;
  for (const auto& job : report.jobs) {
    total_wait += job.wait_steps;
    max_wait = std::max(max_wait, job.wait_steps);
    waited += job.wait_steps > 0 ? 1 : 0;
    if (job.admit_scored) {
      ++scored;
      scored_overlap += job.admit_overlap;
    }
    if (job.admit_predicted) {
      ++predicted;
      predicted_overlap += job.predicted_overlap;
    }
  }
  const double mean_wait =
      report.jobs.empty() ? 0.0
                          : static_cast<double>(total_wait) / static_cast<double>(report.jobs.size());
  std::printf(
      "admission: policy=%s mean_wait_steps=%.4f max_wait_steps=%llu waited_jobs=%zu "
      "scored_jobs=%zu mean_admit_overlap=%.4f predicted_jobs=%zu "
      "mean_predicted_overlap=%.4f\n",
      std::string(AdmissionPolicyKindName(policy)).c_str(), mean_wait,
      static_cast<unsigned long long>(max_wait), waited, scored,
      scored == 0 ? 0.0 : scored_overlap / static_cast<double>(scored), predicted,
      predicted == 0 ? 0.0 : predicted_overlap / static_cast<double>(predicted));
}

// The batch report: the per-job table and the run-wide cache line.
void PrintJobTable(const RunReport& report, const CostModel& cost, VertexId source) {
  std::printf("system: %s, %u workers, source %u\n\n", report.executor_name.c_str(),
              report.workers, source);
  TablePrinter table({"Job", "Iterations", "Vertex computes", "Edge traversals",
                      "Modeled time", "Access share"});
  for (const auto& job : report.jobs) {
    const double compute = job.ModeledComputeTime(cost, report.workers);
    const double access = job.ModeledAccessTime(cost, report.workers);
    table.AddRow({job.job_name, std::to_string(job.iterations),
                  std::to_string(job.vertex_computes), std::to_string(job.edge_traversals),
                  FormatDouble(compute + access, 0),
                  FormatDouble(compute + access > 0 ? access / (compute + access) * 100 : 0, 1) +
                      "%"});
  }
  table.Print();
  std::printf("\nLLC miss rate %.1f%%, volume into cache %s, disk I/O %s, wall %.2fs\n",
              report.cache.miss_rate() * 100, HumanBytes(report.cache.miss_bytes).c_str(),
              HumanBytes(report.memory.disk_bytes).c_str(), report.wall_seconds);
}

// The daemon report, ending in the parseable "service:" line (consumed by
// tools/run_bench.sh). Latency percentiles are scheduling-step figures, identical across
// runs and worker counts; wall_seconds and sustained_jobs_per_second are the
// hardware-dependent outputs.
void PrintServiceReport(const CliOptions& options, const ServiceReport& sreport) {
  const char* trace_name = options.trace_file.empty()
                               ? ArrivalPatternName(options.trace.pattern)
                               : options.trace_file.c_str();
  std::printf("system: %s daemon, %u workers, %s trace\n\n", options.system.c_str(),
              options.engine.num_workers, trace_name);
  std::printf("requests     %llu (%llu completed, %llu shed, %llu coalesced, "
              "%llu failed)\n",
              static_cast<unsigned long long>(sreport.total_requests),
              static_cast<unsigned long long>(sreport.completed_requests),
              static_cast<unsigned long long>(sreport.shed_requests),
              static_cast<unsigned long long>(sreport.coalesced_requests),
              static_cast<unsigned long long>(sreport.failed_requests));
  std::printf("jobs         %llu submitted, %llu executed, %llu shed while queued\n",
              static_cast<unsigned long long>(sreport.submitted_jobs),
              static_cast<unsigned long long>(sreport.executed_jobs),
              static_cast<unsigned long long>(sreport.shed_jobs));
  if (options.service.retry_limit > 0 || sreport.failed_jobs > 0 ||
      sreport.cancelled_jobs > 0) {
    std::printf("retries      %llu failed, %llu cancelled mid-run; %llu resubmitted, "
                "%llu resumed from checkpoints\n",
                static_cast<unsigned long long>(sreport.failed_jobs),
                static_cast<unsigned long long>(sreport.cancelled_jobs),
                static_cast<unsigned long long>(sreport.retried_jobs),
                static_cast<unsigned long long>(sreport.recovered_jobs));
  }
  std::printf("latency      p50 %.0f, p95 %.0f, p99 %.0f, mean %.1f, max %.0f steps\n",
              sreport.p50_latency_steps, sreport.p95_latency_steps,
              sreport.p99_latency_steps, sreport.mean_latency_steps,
              sreport.max_latency_steps);
  std::printf("throughput   %.2f completed requests/s over %.2fs wall (%llu steps)\n\n",
              sreport.sustained_jobs_per_second, sreport.wall_seconds,
              static_cast<unsigned long long>(sreport.final_step));
  std::printf(
      "service: pattern=%s requests=%llu completed=%llu shed=%llu coalesced=%llu "
      "failed=%llu submitted_jobs=%llu executed_jobs=%llu shed_jobs=%llu "
      "cancelled_jobs=%llu failed_jobs=%llu retried=%llu recovered=%llu "
      "dedup_ratio=%.4f p50=%.1f p95=%.1f p99=%.1f mean=%.2f max=%.1f final_step=%llu "
      "wall_seconds=%.4f sustained_jobs_per_second=%.4f\n",
      options.trace_file.empty() ? ArrivalPatternName(options.trace.pattern) : "file",
      static_cast<unsigned long long>(sreport.total_requests),
      static_cast<unsigned long long>(sreport.completed_requests),
      static_cast<unsigned long long>(sreport.shed_requests),
      static_cast<unsigned long long>(sreport.coalesced_requests),
      static_cast<unsigned long long>(sreport.failed_requests),
      static_cast<unsigned long long>(sreport.submitted_jobs),
      static_cast<unsigned long long>(sreport.executed_jobs),
      static_cast<unsigned long long>(sreport.shed_jobs),
      static_cast<unsigned long long>(sreport.cancelled_jobs),
      static_cast<unsigned long long>(sreport.failed_jobs),
      static_cast<unsigned long long>(sreport.retried_jobs),
      static_cast<unsigned long long>(sreport.recovered_jobs), sreport.dedup_ratio,
      sreport.p50_latency_steps, sreport.p95_latency_steps, sreport.p99_latency_steps,
      sreport.mean_latency_steps, sreport.max_latency_steps,
      static_cast<unsigned long long>(sreport.final_step), sreport.wall_seconds,
      sreport.sustained_jobs_per_second);
}

// One line per (completed job, vertex): "job,vertex,value" with full double precision —
// the byte-comparable artifact the recovery-equivalence SMOKE gate diffs against a
// fault-free run. Jobs without valid readback (shed/cancelled/failed) are skipped.
bool WriteFinalValues(const LtpEngine& engine, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (JobId id = 0; id < engine.num_jobs(); ++id) {
    const Result<std::vector<double>> values = engine.TryFinalValues(id);
    if (!values.ok()) {
      continue;
    }
    const std::vector<double>& v = values.value();
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%u,%zu,%.17g\n", id, i, v[i]);
    }
  }
  std::fclose(f);
  return true;
}

// The --serve request trace: replayed from --trace-file or generated, then optionally
// saved to --trace-out.
bool BuildTrace(const CliOptions& options, const EdgeList& edges,
                std::vector<ServiceRequest>* trace) {
  if (!options.trace_file.empty()) {
    if (!LoadTrace(options.trace_file, trace)) {
      std::fprintf(stderr, "error: cannot load trace from '%s'\n",
                   options.trace_file.c_str());
      return false;
    }
  } else {
    TraceGenOptions generate = options.trace;
    generate.programs = options.jobs;
    generate.sources = PickSourcePool(edges, options.trace_sources);
    *trace = GenerateArrivalTrace(generate);
  }
  if (!options.trace_out.empty() && !SaveTrace(*trace, options.trace_out)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n", options.trace_out.c_str());
    return false;
  }
  return true;
}

// Batch mode on a cgraph system: submit the jobs and arrivals, run to idle, and restart
// every faulted job that left a checkpoint.
void RunBatch(const CliOptions& options, VertexId source, LtpEngine* engine) {
  for (const auto& name : options.jobs) {
    engine->Submit(MakeProgram(name, source));
  }
  // Online submissions ride the service API: each arrival becomes runnable after its
  // scheduling step and queues behind max_jobs if the engine is saturated.
  for (const auto& arrival : options.arrivals) {
    engine->SubmitAt(MakeProgram(arrival.job, source), arrival.step);
  }
  engine->RunUntilIdle();
  if (options.engine.checkpoint_every == 0) {
    return;
  }
  // Batch-mode recovery: restart every faulted job that left a checkpoint and drive the
  // engine idle again, until nothing recoverable remains. Each fault spec fires once, so
  // a restarted job does not re-trip the fault that killed it; the round guard only
  // bounds pathological spec lists that keep killing restarted jobs.
  for (int round = 0; round < 16; ++round) {
    bool restarted = false;
    for (JobId id = 0; id < static_cast<JobId>(engine->num_jobs()); ++id) {
      const JobStats& stats = engine->job(id).stats();
      if ((stats.failed || stats.cancelled) && engine->HasCheckpoint(id) &&
          engine->RestartFromCheckpoint(id, engine->current_step()).ok()) {
        restarted = true;
      }
    }
    if (!restarted) {
      break;
    }
    engine->RunUntilIdle();
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    return 2;
  }
  if (options.help) {
    PrintUsage();
    return 0;
  }
  if (options.serve && !options.arrivals.empty()) {
    std::fprintf(stderr, "error: --serve and --arrivals are mutually exclusive\n");
    return 2;
  }
  if (options.engine.execution_mode == ExecutionMode::kAsync) {
    // Job names are validated by the parser, so the factory probe cannot trip on an
    // unknown name. Source 0 is arbitrary — monotonic() is a program-type property.
    std::vector<std::string> names = options.jobs;
    for (const auto& arrival : options.arrivals) {
      names.push_back(arrival.job);
    }
    for (const auto& name : names) {
      if (!MakeProgram(name, 0)->monotonic()) {
        std::fprintf(stderr,
                     "error: job '%s' is not monotonic and cannot run under "
                     "--execution=async; monotonic jobs: sssp, bfs, wcc, kcore, khop "
                     "(drop it or use --execution=bsp)\n",
                     name.c_str());
        return 2;
      }
    }
  }

  EdgeList edges;
  if (!options.graph_path.empty()) {
    auto loaded = LoadEdgeListText(options.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    edges = std::move(loaded).value();
  } else {
    edges = GenerateRmat(options.rmat);
  }
  if (options.source != kInvalidVertex && options.source >= edges.num_vertices()) {
    std::fprintf(stderr, "error: --source=%u is not a vertex of the %u-vertex graph\n",
                 options.source, edges.num_vertices());
    return 2;
  }
  const VertexId source =
      options.source == kInvalidVertex ? PickSourceVertex(edges) : options.source;

  // The core split exists only under even_edge; with any other layout cgraph-without
  // differs from cgraph by the scheduler alone.
  options.partition.core_subgraph = options.system != "cgraph-without";
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, options.partition);
  const bool is_cgraph_system = IsCgraphSystem(options.system);
  const CostModel cost;

  RunReport report;
  ServiceReport sreport;
  std::unique_ptr<LtpEngine> engine;
  if (is_cgraph_system) {
    options.engine.use_scheduler = options.system == "cgraph";
    std::vector<ServiceRequest> trace;
    if (options.serve && !BuildTrace(options, edges, &trace)) {
      return 1;
    }
    engine = std::make_unique<LtpEngine>(&graph, options.engine);
    if (options.serve) {
      ServiceDriver driver(engine.get(), options.service);
      sreport = driver.Run(trace);
    } else {
      RunBatch(options, source, engine.get());
    }
    report = engine->Report();
  } else {
    BaselineOptions bopts;
    bopts.engine = options.engine;
    ParseBaselineSystem(options.system, &bopts.system);
    BaselineExecutor executor(&graph, bopts);
    for (const auto& name : options.jobs) {
      executor.Submit(MakeProgram(name, source));
    }
    report = executor.Run();
  }

  std::printf("graph: %u vertices, %zu edges, %u partitions (replication %.2f)\n",
              edges.num_vertices(), edges.num_edges(), graph.num_partitions(),
              graph.replication_factor());
  PrintPartitionLine(graph.quality());
  if (options.serve) {
    PrintServiceReport(options, sreport);
  } else {
    PrintJobTable(report, cost, source);
    if (is_cgraph_system) {
      PrintAdmissionLine(report, options.engine.admission_policy);
    }
  }
  if (is_cgraph_system) {
    PrintExecutionLine(report, options.engine);
    if (!options.engine.fault_specs.empty() || options.engine.checkpoint_every > 0) {
      PrintRobustnessLine(engine->faults_fired(), report, cost);
    }
    if (!options.values_out.empty() && !WriteFinalValues(*engine, options.values_out)) {
      std::fprintf(stderr, "error: cannot write values to '%s'\n",
                   options.values_out.c_str());
      return 1;
    }
  }
  if (!options.csv_path.empty()) {
    const Status status = WriteRunReportCsv(report, cost, options.csv_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("csv written to %s\n", options.csv_path.c_str());
  }
  return 0;
}

#include "perfbench/src/workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "perfbench/src/oracle.h"
#include "perfbench/src/tracer.h"
#include "src/algorithms/factory.h"
#include "src/common/prng.h"
#include "src/core/engine_options.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/metrics/cost_model.h"
#include "src/metrics/run_report.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/thread_pool.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"

namespace perfbench {
namespace {

using cgraph::EdgeList;
using cgraph::LtpEngine;
using cgraph::PartitionedGraph;
using cgraph::VertexId;

// Repetition policy: at least this many measured repetitions even when one outlasts
// --seconds (a traced run needs two traced and two untraced ones), at most kMaxReps.
constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 4;
constexpr int kMaxReps = 200;
// Set-up is repeated at least kMinSetupReps times and until kSetupSeconds have passed
// (at most kMaxSetupReps times); setup_s is the median.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 25;
constexpr double kSetupSeconds = 1.5;

enum class Kind { kBatch, kService };

struct Shape {
  Kind kind = Kind::kBatch;
  uint32_t scale = 14;
  uint32_t edge_factor = 16;
  uint32_t partitions = 32;
  uint32_t workers = 1;
  cgraph::ExecutionMode mode = cgraph::ExecutionMode::kBsp;
  uint32_t staleness = 1;
  uint64_t checkpoint_every = 0;
  std::vector<std::string> programs;  // Batch jobs, in submission order.
  size_t source_pool = 256;           // PickSourcePool size: traversal roots.
  size_t requests = 0;                // Service trace length.
  uint64_t burst = 32;
  uint64_t mean_gap = 4;
};

uint32_t PoolWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<uint32_t>(hw == 0 ? 1u : hw, 1u, 4u);
}

Shape ShapeFor(const RunOptions& options) {
  const bool r = options.reduced;
  Shape s;
  if (options.workload == "batch_mix") {
    s.scale = r ? 11 : 15;
    s.partitions = r ? 16 : 32;
    s.workers = PoolWorkers();
    s.programs = {"pagerank", "ppr", "sssp", "wcc", "bfs", "kcore"};
  } else if (options.workload == "query_service") {
    s.kind = Kind::kService;
    s.scale = r ? 9 : 10;
    s.partitions = r ? 8 : 32;
    s.source_pool = r ? 64 : 256;
    s.requests = r ? 256 : 1024;
  } else {  // async_checkpoint
    s.scale = r ? 11 : 14;
    s.partitions = r ? 16 : 128;
    s.mode = cgraph::ExecutionMode::kAsync;
    s.staleness = 2;
    s.checkpoint_every = 2;
    // Traversals from several pool sources, then the whole-graph jobs. PageRank is not
    // monotonic, so it runs exact BSP inside the async engine.
    for (int i = 0; i < 4; ++i) {
      s.programs.insert(s.programs.end(), {"sssp", "bfs", "khop"});
    }
    s.programs.insert(s.programs.end(), {"wcc", "kcore", "pagerank"});
  }
  return s;
}

cgraph::EngineOptions EngineOptionsFor(const Shape& s) {
  cgraph::EngineOptions e;
  e.num_workers = s.workers;
  e.execution_mode = s.mode;
  e.staleness = s.staleness;
  e.checkpoint_every = s.checkpoint_every;
  return e;
}

// Per-input seeds, all derived from the workload seed.
struct Seeds {
  uint64_t rmat = 0;
  uint64_t sources = 0;
  uint64_t trace = 0;
};

Seeds DeriveSeeds(uint64_t seed) {
  cgraph::SplitMix64 mix(seed);
  Seeds s;
  s.rmat = mix.Next();
  s.sources = mix.Next();
  s.trace = mix.Next();
  return s;
}

struct JobSpec {
  std::string program;
  VertexId source = 0;
};

// One finished job's outcome, copied out of the engine so that it is checked after the
// engine is gone: the checker's memory never adds to the engine's peak.
struct Readback {
  JobSpec spec;
  std::string incomplete;  // Why the job did not complete; empty when it did.
  std::vector<double> values;
  std::vector<double> aux;  // kcore only.
};

Readback ReadBack(const LtpEngine& engine, cgraph::JobId id, const JobSpec& spec) {
  Readback r{spec, "", {}, {}};
  const cgraph::JobStats& stats = engine.job(id).stats();
  if (stats.failed) {
    r.incomplete = "failed: " + stats.fail_message;
  } else if (stats.cancelled || stats.shed) {
    r.incomplete = stats.cancelled ? "cancelled" : "shed";
  } else {
    r.values = engine.FinalValues(id);
    if (spec.program == "kcore") {
      r.aux = engine.FinalAux(id);
    }
  }
  return r;
}

// Everything set-up produces; the measured repetitions only read it.
struct Inputs {
  EdgeList edges;
  std::unique_ptr<PartitionedGraph> graph;
  std::vector<JobSpec> jobs;                   // Batch workloads.
  std::vector<cgraph::ServiceRequest> trace;   // Service workload.
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (the smallest sample with at least p% of samples <= it).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(index, v.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// Median latency in microseconds of ThreadPool::RunBatch over trivial tasks.
double DispatchMicros(uint32_t workers, Tracer* tracer) {
  constexpr size_t kTasks = 64;
  constexpr int kWarmup = 200;
  constexpr int kSamples = 2001;
  cgraph::ThreadPool pool(workers);
  std::vector<uint64_t> sink(kTasks, 0);
  auto task = [&sink](size_t i) { sink[i] += i; };
  for (int i = 0; i < kWarmup; ++i) {
    pool.RunBatch(kTasks, task);
  }
  std::vector<double> samples;
  samples.reserve(kSamples);
  Tracer::Scope probe(tracer, "runtime.dispatch_probe");
  for (int i = 0; i < kSamples; ++i) {
    const int64_t t0 = NowNs();
    pool.RunBatch(kTasks, task);
    samples.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(std::move(samples));
}

// Moves the calling thread over the CPUs the process may use, one CPU per measured
// section. On a shared host each vCPU speeds up and slows down on its own, in phases of
// tens of seconds (two copies of query_service pinned to different vCPUs gave
// uncorrelated repetition times), so a single-threaded section runs at the speed of
// whichever vCPU it lands on. Rotating the sections over all CPUs averages those phases
// within one run instead of leaving them to decide the whole run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &all_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  // Pins the calling thread to the slot-th CPU (modulo their number). Threads it starts
  // while pinned inherit the pin, so an engine whose workers must spread is constructed
  // before this call.
  void Pin(size_t slot) {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  void Unpin() {
    if (cpus_.size() >= 2) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// Deterministic per-repetition counts, in print order. Every repetition of one seed must
// reproduce the first repetition's values exactly.
using Counts = std::vector<Metric>;

void AddEngineCounts(const cgraph::RunReport& report, uint64_t steps,
                     std::vector<double> latencies, Counts* out) {
  uint64_t iterations = 0, vertex_computes = 0, edge_traversals = 0, push_updates = 0;
  uint64_t redrain = 0, deferred = 0, checkpoints = 0, checkpoint_bytes = 0;
  double wait_sum = 0.0, wait_max = 0.0;
  for (const cgraph::JobStats& j : report.jobs) {
    iterations += j.iterations;
    vertex_computes += j.vertex_computes;
    edge_traversals += j.edge_traversals;
    push_updates += j.push_updates;
    redrain += j.redrain_computes;
    deferred += j.deferred_pushes;
    checkpoints += j.checkpoints_taken;
    checkpoint_bytes += j.checkpoint_bytes;
    wait_sum += static_cast<double>(j.wait_steps);
    wait_max = std::max(wait_max, static_cast<double>(j.wait_steps));
  }
  const double jobs = static_cast<double>(std::max<size_t>(1, report.jobs.size()));
  const cgraph::CostModel cost;
  auto add = [out](const char* name, double v, const char* unit) {
    out->push_back(Metric{name, v, unit});
  };
  add("latency_p50_steps", Percentile(latencies, 50), "steps");
  add("latency_p99_steps", Percentile(latencies, 99), "steps");
  add("core.steps", static_cast<double>(steps), "steps");
  add("core.iterations", static_cast<double>(iterations), "count");
  add("core.compute_units", static_cast<double>(report.TotalComputeUnits()), "count");
  add("core.trigger.vertex_computes", static_cast<double>(vertex_computes), "count");
  add("core.trigger.edge_traversals", static_cast<double>(edge_traversals), "count");
  add("core.push.updates", static_cast<double>(push_updates), "count");
  add("core.admission.wait_steps_mean", wait_sum / jobs, "steps");
  add("core.admission.wait_steps_max", wait_max, "steps");
  add("core.async.redrain_computes", static_cast<double>(redrain), "count");
  add("core.async.deferred_pushes", static_cast<double>(deferred), "count");
  add("core.checkpoint.count", static_cast<double>(checkpoints), "count");
  add("core.checkpoint.bytes", static_cast<double>(checkpoint_bytes), "bytes");
  add("cache.llc_miss_rate", report.cache.miss_rate(), "ratio");
  add("cache.bytes_into_cache", static_cast<double>(report.cache.miss_bytes), "bytes");
  add("cache.bytes_below_cache", static_cast<double>(report.BytesBelowCache()), "bytes");
  add("cache.modeled_makespan", report.ModeledMakespan(cost), "modeled");
}

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : options_(options),
        shape_(ShapeFor(options)),
        seeds_(DeriveSeeds(options.seed)),
        tracer_(options.trace) {}

  RunResult Run();

 private:
  // One complete set-up; returns its wall seconds.
  double SetUp();
  // One measured repetition; returns the engine wall (makespan) in seconds.
  double RunBatchRep(uint32_t run);
  double RunServiceRep(uint32_t run);
  // Checks one readback against the reference; returns false (and records why) on a
  // mismatch. Call only once the engine that produced it is destroyed.
  bool Verify(const Readback& readback);
  void RecordCounts(Counts counts);
  void EmitEndToEnd(double setup_s, const std::vector<double>& walls,
                    const std::vector<double>& rates, double peak_rss_mb);
  void EmitPerLayer(const std::vector<double>& traced_walls,
                    const std::vector<double>& untraced_walls);
  // A repetition driven by one thread is rotated over the CPUs; one whose pool spreads
  // over the CPUs on its own is left unpinned, as is every repetition's engine
  // constructor.
  void PinRepetition() {
    if (shape_.workers == 1) {
      cpus_.Pin(cpu_slot_);
    }
  }
  void Add(const char* name, double value, const char* unit) {
    result_.metrics.push_back(Metric{name, value, unit});
  }
  double CountOf(const std::string& name) const {
    for (const Metric& m : counts_) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  }

  RunOptions options_;
  Shape shape_;
  Seeds seeds_;
  Tracer tracer_;
  CpuRotation cpus_;
  size_t cpu_slot_ = 0;  // CPU of the current repetition, see PinRepetition.
  Inputs in_;
  std::unique_ptr<Oracle> oracle_;  // Built on demand after an engine is gone.
  double verify_s_ = 0.0;
  Counts counts_;        // First repetition's counts.
  bool have_counts_ = false;
  uint64_t submits_ = 0;  // Submit calls per repetition.
  RunResult result_;
};

double Bench::SetUp() {
  in_ = Inputs{};
  const int64_t t0 = NowNs();
  Tracer::Scope setup(&tracer_, "setup");
  {
    Tracer::Scope s(&tracer_, "graph.GenerateRmat");
    cgraph::RmatOptions rmat;
    rmat.scale = shape_.scale;
    rmat.edge_factor = shape_.edge_factor;
    rmat.seed = seeds_.rmat;
    in_.edges = cgraph::GenerateRmat(rmat);
  }
  {
    Tracer::Scope s(&tracer_, "partition.Build");
    cgraph::PartitionOptions popts;
    popts.num_partitions = shape_.partitions;
    in_.graph = std::make_unique<PartitionedGraph>(
        cgraph::PartitionedGraphBuilder::Build(in_.edges, popts));
  }
  std::vector<VertexId> pool;
  {
    Tracer::Scope s(&tracer_, "algorithms.PickSourcePool");
    pool = cgraph::PickSourcePool(in_.edges, shape_.source_pool);
  }
  if (shape_.kind == Kind::kService) {
    Tracer::Scope s(&tracer_, "service.GenerateArrivalTrace");
    cgraph::TraceGenOptions tgen;
    tgen.num_requests = shape_.requests;
    tgen.pattern = cgraph::ArrivalPattern::kBursty;
    tgen.seed = seeds_.trace;
    tgen.mean_gap = shape_.mean_gap;
    tgen.burst_size = shape_.burst;
    tgen.programs = {"bfs", "sssp", "khop"};
    tgen.sources = pool;
    in_.trace = cgraph::GenerateArrivalTrace(tgen);
  } else {
    cgraph::Xoshiro256 rng(seeds_.sources);
    for (const std::string& program : shape_.programs) {
      in_.jobs.push_back(JobSpec{program, pool[rng.NextBounded(pool.size())]});
    }
  }
  {
    Tracer::Scope s(&tracer_, "core.LtpEngine");
    LtpEngine engine(in_.graph.get(), EngineOptionsFor(shape_));
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

bool Bench::Verify(const Readback& readback) {
  const int64_t t0 = NowNs();
  const JobSpec& spec = readback.spec;
  std::string problem;
  if (!readback.incomplete.empty()) {
    problem = spec.program + ": job did not complete (" + readback.incomplete + ")";
  } else {
    if (!oracle_) {
      oracle_ = std::make_unique<Oracle>(in_.edges);
    }
    problem = oracle_->Check(spec.program, spec.source, readback.values, readback.aux);
  }
  verify_s_ += static_cast<double>(NowNs() - t0) * 1e-9;
  if (!problem.empty() && result_.problems.size() < 8) {
    result_.problems.push_back(problem);
  }
  return problem.empty();
}

void Bench::RecordCounts(Counts counts) {
  if (!have_counts_) {
    counts_ = std::move(counts);
    have_counts_ = true;
    return;
  }
  for (size_t i = 0; i < counts.size() && i < counts_.size(); ++i) {
    if (counts[i].value != counts_[i].value) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "nondeterministic count %s: %.17g in one repetition, %.17g in another",
                    counts[i].name.c_str(), counts[i].value, counts_[i].value);
      result_.problems.push_back(buf);
      return;
    }
  }
}

double Bench::RunBatchRep(uint32_t run) {
  tracer_.set_run(run);
  Tracer::Scope rep(&tracer_, "rep");
  std::unique_ptr<LtpEngine> engine;
  {
    Tracer::Scope s(&tracer_, "core.LtpEngine");
    engine = std::make_unique<LtpEngine>(in_.graph.get(), EngineOptionsFor(shape_));
  }
  std::vector<cgraph::JobId> ids;
  PinRepetition();
  const int64_t t0 = NowNs();
  for (const JobSpec& spec : in_.jobs) {
    Tracer::Scope s(&tracer_, "core.Submit");
    ids.push_back(engine->Submit(MakeBenchProgram(spec.program, spec.source)).id());
  }
  for (bool busy = true; busy;) {
    Tracer::Scope s(&tracer_, "core.Step");
    busy = engine->Step();
  }
  const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
  cpus_.Unpin();
  cgraph::RunReport report;
  {
    Tracer::Scope s(&tracer_, "core.Report");
    report = engine->Report();
  }
  submits_ = ids.size();

  std::vector<Readback> readbacks;
  std::vector<double> latencies;
  for (size_t i = 0; i < ids.size(); ++i) {
    readbacks.push_back(ReadBack(*engine, ids[i], in_.jobs[i]));
    latencies.push_back(static_cast<double>(engine->job(ids[i]).stats().finish_step));
  }
  Counts counts;
  AddEngineCounts(report, engine->current_step(), std::move(latencies), &counts);
  engine.reset();

  for (const Readback& r : readbacks) {
    result_.attempted += 1;
    if (!Verify(r)) {
      result_.failed += 1;
    }
  }
  oracle_.reset();
  RecordCounts(std::move(counts));
  return wall;
}

double Bench::RunServiceRep(uint32_t run) {
  tracer_.set_run(run);
  Tracer::Scope rep(&tracer_, "rep");
  std::unique_ptr<LtpEngine> engine;
  {
    Tracer::Scope s(&tracer_, "core.LtpEngine");
    engine = std::make_unique<LtpEngine>(in_.graph.get(), EngineOptionsFor(shape_));
  }
  cgraph::ServiceOptions sopts;
  sopts.queue_bound = 0;      // Unbounded: nothing is shed at the door.
  sopts.deadline_steps = 0;   // No queue-wait deadlines.
  sopts.coalesce = true;
  sopts.k = kBenchK;
  cgraph::ServiceReport sreport;
  PinRepetition();
  const int64_t t0 = NowNs();
  {
    Tracer::Scope s(&tracer_, "service.Run");
    sreport = cgraph::ServiceDriver(engine.get(), sopts).Run(in_.trace);
  }
  const double wall = static_cast<double>(NowNs() - t0) * 1e-9;
  cpus_.Unpin();
  cgraph::RunReport report;
  {
    Tracer::Scope s(&tracer_, "core.Report");
    report = engine->Report();
  }
  submits_ = sreport.submitted_jobs;

  // Each executed job is read back and checked once, on behalf of every request
  // coalesced onto it.
  constexpr size_t kNoJob = ~size_t{0};
  std::map<cgraph::JobId, size_t> readback_of;
  std::vector<Readback> readbacks;
  std::vector<size_t> request_readback(sreport.outcomes.size(), kNoJob);
  std::vector<double> latencies;
  for (size_t i = 0; i < sreport.outcomes.size(); ++i) {
    const cgraph::RequestOutcome& o = sreport.outcomes[i];
    if (o.shed || o.failed || o.job == cgraph::kInvalidJob) {
      continue;
    }
    auto it = readback_of.find(o.job);
    if (it == readback_of.end()) {
      const JobSpec spec{in_.trace[i].program, in_.trace[i].source};
      it = readback_of.emplace(o.job, readbacks.size()).first;
      readbacks.push_back(ReadBack(*engine, o.job, spec));
    }
    request_readback[i] = it->second;
    latencies.push_back(static_cast<double>(o.finish_step - o.arrival_step));
  }
  Counts counts;
  AddEngineCounts(report, engine->current_step(), std::move(latencies), &counts);
  engine.reset();

  std::vector<bool> job_ok;
  for (const Readback& r : readbacks) {
    job_ok.push_back(Verify(r));
  }
  oracle_.reset();
  for (size_t i = 0; i < request_readback.size(); ++i) {
    result_.attempted += 1;
    const bool ok = request_readback[i] != kNoJob && job_ok[request_readback[i]];
    if (!ok) {
      result_.failed += 1;
      if (request_readback[i] == kNoJob && result_.problems.size() < 8) {
        result_.problems.push_back("request " + std::to_string(i) + " was shed or failed");
      }
    }
  }
  counts.push_back({"service.final_step", static_cast<double>(sreport.final_step), "steps"});
  counts.push_back(
      {"service.executed_jobs", static_cast<double>(sreport.executed_jobs), "count"});
  counts.push_back({"service.coalesced_requests",
                    static_cast<double>(sreport.coalesced_requests), "count"});
  counts.push_back({"service.dedup_ratio", sreport.dedup_ratio, "ratio"});
  counts.push_back({"service.latency_mean_steps", sreport.mean_latency_steps, "steps"});
  counts.push_back({"service.completed_requests",
                    static_cast<double>(sreport.completed_requests), "count"});
  RecordCounts(std::move(counts));
  return wall;
}

RunResult Bench::Run() {
  // Set-up, repeated; the last repetition's inputs are kept for the measured runs.
  std::vector<double> setups;
  double setup_total_s = 0.0;
  while (setups.size() < kMinSetupReps ||
         (setup_total_s < kSetupSeconds && setups.size() < kMaxSetupReps)) {
    tracer_.set_run(static_cast<uint32_t>(setups.size()));
    cpus_.Pin(setups.size());
    setups.push_back(SetUp());
    cpus_.Unpin();
    setup_total_s += setups.back();
  }
  const uint32_t first_run = static_cast<uint32_t>(setups.size());

  // One warm-up repetition (checked, not timed): the first engine of a process pays
  // first-touch page faults the later ones do not. Then the measured repetitions; a
  // traced run alternates untraced and traced ones so the tracing overhead is measured
  // under the same conditions.
  const bool traced_run = options_.trace;
  const int min_reps = traced_run ? kMinTracedReps : kMinReps;
  std::vector<double> untraced_walls, traced_walls, rates;
  double measured_s = 0.0;
  for (int rep = -1; rep < kMaxReps && (rep < min_reps || measured_s < options_.seconds);
       ++rep) {
    const bool traced = traced_run && rep % 2 == 1;
    tracer_.set_enabled(traced);
    const int64_t t0 = NowNs();
    const double verify_before = verify_s_;
    const uint32_t run = first_run + static_cast<uint32_t>(rep + 1);
    // An untraced repetition and the traced one after it share a CPU, so the tracing
    // overhead is not mixed up with the speed of different CPUs.
    cpu_slot_ = static_cast<size_t>(traced_run ? (rep + 2) / 2 : rep + 1);
    const double wall =
        shape_.kind == Kind::kService ? RunServiceRep(run) : RunBatchRep(run);
    std::fprintf(stderr, "perfbench: %s rep %d%s: %.4f s\n", options_.workload.c_str(), rep,
                 rep < 0 ? " (warm-up)" : traced ? " (traced)" : "", wall);
    if (rep < 0) {
      continue;
    }
    measured_s += static_cast<double>(NowNs() - t0) * 1e-9 - (verify_s_ - verify_before);
    (traced ? traced_walls : untraced_walls).push_back(wall);
    const double completed = shape_.kind == Kind::kService
                                 ? CountOf("service.completed_requests")
                                 : static_cast<double>(in_.jobs.size());
    rates.push_back(completed / wall);
  }
  tracer_.set_enabled(traced_run);
  const double peak_rss_mb = PeakRssMb();

  if (traced_run) {
    EmitPerLayer(traced_walls, untraced_walls);
  } else {
    EmitEndToEnd(Median(setups), untraced_walls, rates, peak_rss_mb);
  }
  return std::move(result_);
}

void Bench::EmitEndToEnd(double setup_s, const std::vector<double>& walls,
                         const std::vector<double>& rates, double peak_rss_mb) {
  Add("setup_s", setup_s, "s");
  Add("makespan_s", Median(walls), "s");
  Add("requests_per_s", Median(rates), "1/s");
  Add("peak_rss_mb", peak_rss_mb, "MB");
}

void Bench::EmitPerLayer(const std::vector<double>& traced_walls,
                         const std::vector<double>& untraced_walls) {
  const bool service = shape_.kind == Kind::kService;
  const double traced_reps = static_cast<double>(std::max<size_t>(1, traced_walls.size()));
  const cgraph::PartitionQuality& q = in_.graph->quality();
  const double engine_wall = Median(traced_walls);
  const double compute_units = CountOf("core.compute_units");

  Add("graph.generate_s", Median(tracer_.Durations("graph.GenerateRmat")), "s");
  Add("partition.build_s", Median(tracer_.Durations("partition.Build")), "s");
  Add("partition.replication_factor", q.replication_factor, "ratio");
  Add("partition.mirror_count", static_cast<double>(q.mirror_count), "count");

  Add("core.construct_s", Median(tracer_.Durations("core.LtpEngine")), "s");
  Add("core.submit_s", tracer_.TotalSeconds("core.Submit") / traced_reps, "s");
  Add("core.submit_count", static_cast<double>(submits_), "count");
  const std::vector<double> steps = tracer_.Durations("core.Step");
  Add("core.step_total_s", tracer_.TotalSeconds("core.Step") / traced_reps, "s");
  Add("core.step_p50_us", Percentile(steps, 50) * 1e6, "us");
  Add("core.step_p99_us", Percentile(steps, 99) * 1e6, "us");
  Add("core.report_s", Median(tracer_.Durations("core.Report")), "s");
  Add("core.ns_per_compute_unit", compute_units > 0 ? engine_wall * 1e9 / compute_units : 0,
      "ns");

  for (const Metric& m : counts_) {
    if (m.name.rfind("core.", 0) == 0 || m.name.rfind("cache.", 0) == 0 ||
        m.name.rfind("latency_", 0) == 0) {
      result_.metrics.push_back(m);
    }
  }

  const double run_s = service ? Median(tracer_.Durations("service.Run")) : 0.0;
  const double final_step = CountOf("service.final_step");
  Add("service.run_s", run_s, "s");
  Add("service.final_step", final_step, "steps");
  Add("service.us_per_step", final_step > 0 ? run_s * 1e6 / final_step : 0.0, "us");
  Add("service.executed_jobs", CountOf("service.executed_jobs"), "count");
  Add("service.coalesced_requests", CountOf("service.coalesced_requests"), "count");
  Add("service.dedup_ratio", CountOf("service.dedup_ratio"), "ratio");
  Add("service.latency_mean_steps", CountOf("service.latency_mean_steps"), "steps");

  Add("runtime.dispatch_us", DispatchMicros(shape_.workers, &tracer_), "us");
  Add("runtime.dispatch_w1_us", DispatchMicros(1, &tracer_), "us");

  Add("algorithms.verify_s", verify_s_, "s");
  Add("trace.overhead_ratio", Median(traced_walls) / Median(untraced_walls), "ratio");
  Add("error_rate",
      result_.attempted == 0 ? 0.0
                             : static_cast<double>(result_.failed) /
                                   static_cast<double>(result_.attempted),
      "ratio");

  if (!options_.out_dir.empty()) {
    const std::string stem = options_.out_dir + "/" + options_.workload + "-seed" +
                             std::to_string(options_.seed);
    if (!tracer_.WriteChromeTrace(stem + ".trace.json") ||
        !tracer_.WriteSummary(stem + ".layers.json")) {
      result_.problems.push_back("cannot write trace files under " + options_.out_dir);
    }
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"batch_mix", "query_service",
                                                  "async_checkpoint"};
  return kNames;
}

RunResult RunWorkload(const RunOptions& options) { return Bench(options).Run(); }

}  // namespace perfbench

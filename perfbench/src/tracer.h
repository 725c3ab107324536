// In-memory span recorder for the benchmark binary.
//
// Spans are recorded around the benchmark's calls into the engine's public API (graph
// generation, partition build, engine construction, Submit, Step, Report,
// ServiceDriver::Run, ...). Nothing is written while a run is being measured; the spans
// stay in memory and are exported once at the end, as Chrome trace-event JSON (load it
// in Perfetto or chrome://tracing) plus a per-layer self-time summary.
//
// A disabled tracer records nothing and reads no clock, so untraced runs pay only an
// inlined branch per call site.

#ifndef PERFBENCH_SRC_TRACER_H_
#define PERFBENCH_SRC_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds since an arbitrary epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // Static string: the layer-qualified call name.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // Index of the enclosing span, -1 at top level.
  uint32_t run = 0;       // Identifier shared by the spans of one measured repetition.
};

// Aggregate of all spans sharing one name.
struct LayerTime {
  std::string name;
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  // Total minus the time covered by child spans.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run(uint32_t run) { run_ = run; }

  // Opens a span; Scope closes it on destruction. No-op while disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // Null when the tracer was disabled at open time.
    int32_t index_ = -1;
  };

  // Durations in seconds of every span named `name`, in record order.
  std::vector<double> Durations(const char* name) const;
  double TotalSeconds(const char* name) const;

  // Per-name count, total and self time, sorted by self time (largest first).
  std::vector<LayerTime> SelfTimes() const;

  // Writes every span as a Chrome trace-event "X" (complete) event; each repetition is
  // its own thread lane. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  // Writes SelfTimes() as JSON. Returns false when the file cannot be written.
  bool WriteSummary(const std::string& path) const;

 private:
  bool enabled_;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // Stack of open span indices.
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACER_H_

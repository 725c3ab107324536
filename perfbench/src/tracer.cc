#include "perfbench/src/tracer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) {
    return;
  }
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->run_;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::TotalSeconds(const char* name) const {
  double total = 0.0;
  for (double d : Durations(name)) {
    total += d;
  }
  return total;
}

std::vector<LayerTime> Tracer::SelfTimes() const {
  // Children never overlap each other (the benchmark drives the engine from one thread),
  // so a span's self time is its duration minus the summed durations of its children.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& layer = by_name[s.name];
    layer.name = s.name;
    layer.count += 1;
    layer.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    layer.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : by_name) {
    out.push_back(layer);
  }
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_s != b.self_s ? a.self_s > b.self_s : a.name < b.name;
  });
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"run\":%u}}\n",
                 i == 0 ? "" : ",", s.name, s.run, (s.start_ns - origin) * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.run);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool Tracer::WriteSummary(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"layers\":[\n");
  const std::vector<LayerTime> layers = SelfTimes();
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerTime& l = layers[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"count\":%llu,\"total_s\":%.9f,\"self_s\":%.9f}\n",
                 i == 0 ? "" : ",", l.name.c_str(), static_cast<unsigned long long>(l.count),
                 l.total_s, l.self_s);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

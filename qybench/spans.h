/// \file spans.h
/// In-memory span recorder for qybench's traced runs.
///
/// The harness opens a span around each call it makes into a layer's public
/// API (translate, load, one CTAS, one request, ...); nothing inside the
/// program is instrumented. Spans are kept in memory and written out once,
/// when the workload ends. A span's self time is its duration minus the time
/// its children cover (children of one parent never overlap: each parent is
/// driven by one thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qybench {

struct Span {
  uint32_t id = 0;      ///< 1-based; 0 means "no span"
  uint32_t parent = 0;  ///< 0 = root
  const char* name = "";
  uint32_t run = 0;     ///< replay or request sequence number
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Thread-safe span sink. A disabled tracer records nothing and every call
/// is a branch, so plain (untraced) runs pay nothing for the hooks.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  uint32_t Begin(const char* name, uint32_t run, uint32_t parent) {
    if (!enabled_) return 0;
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.run = run;
    span.start_ns = now;
    spans_.push_back(span);
    return span.id;
  }

  void End(uint32_t id) {
    if (id == 0) return;
    int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = now;
  }

  /// Durations (seconds) of every span called `name` whose run lies in
  /// [run_lo, run_hi].
  std::vector<double> Durations(const std::string& name, uint32_t run_lo,
                                uint32_t run_hi) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.run >= run_lo && s.run <= run_hi && name == s.name) {
        out.push_back(s.seconds());
      }
    }
    return out;
  }

  /// Per-run sum of the durations of spans called `name`, for runs in
  /// [run_lo, run_hi] (a run without such a span sums to 0).
  std::vector<double> SumPerRun(const std::string& name, uint32_t run_lo,
                                uint32_t run_hi) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out(run_hi >= run_lo ? run_hi - run_lo + 1 : 0, 0.0);
    for (const Span& s : spans_) {
      if (s.run >= run_lo && s.run <= run_hi && name == s.name) {
        out[s.run - run_lo] += s.seconds();
      }
    }
    return out;
  }

  /// Write every span plus a per-name summary (count, total and self time)
  /// as one JSON document. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<int64_t> child_ns(spans_.size() + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    struct Totals {
      uint64_t count = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::map<std::string, Totals> by_name;
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"run\": %u, \"start_ns\": %lld, \"end_ns\": %lld}",
                   i == 0 ? "" : ",", s.id, s.parent, s.name, s.run,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      Totals& t = by_name[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[s.id];
    }
    std::fprintf(f, "],\n\"summary\": {");
    bool first = true;
    for (const auto& [name, t] : by_name) {
      std::fprintf(f,
                   "%s\n\"%s\": {\"count\": %llu, \"total_s\": %.9f, "
                   "\"self_s\": %.9f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.total_ns) * 1e-9,
                   static_cast<double>(t.self_ns) * 1e-9);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_; index = id - 1
};

/// RAII span: opened on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint32_t run, uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, run, parent)) {}
  ~Scope() { tracer_->End(id_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace qybench

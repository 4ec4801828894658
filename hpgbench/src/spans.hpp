// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into the library (nothing inside the
// library is instrumented), kept in memory, and written out at exit as
// Chrome trace-event JSON (opens offline in Perfetto or chrome://tracing).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hpgbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int index = 0;       ///< position in the recorder
  int parent = -1;     ///< index of the enclosing span on the same thread
  std::int64_t id = 0; ///< request id shared by the spans of one request
  int tid = 0;         ///< recording thread (a rank, a worker or the client)
};

class SpanRecorder {
 public:
  SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

  /// Opens a span; returns its index. `parent` < 0 means a root span.
  int open(std::string name, int parent, std::int64_t id, int tid) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start = now();
    s.index = static_cast<int>(spans_.size());
    s.parent = parent;
    s.id = id;
    s.tid = tid;
    spans_.push_back(std::move(s));
    return spans_.back().index;
  }

  void close(int index) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end = t;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time per span name: each span's duration minus the part of its
  /// interval covered by its child spans (children may overlap each other
  /// when they run on other threads, so their union is taken).
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<int>> children(all.size());
    for (const Span& s : all) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back(s.index);
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : all) {
      std::vector<std::pair<double, double>> iv;
      for (const int c : children[static_cast<std::size_t>(s.index)]) {
        const Span& k = all[static_cast<std::size_t>(c)];
        iv.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double lo = 0.0;
      double hi = -1.0;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += std::max(0.0, hi - lo);
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += std::max(0.0, hi - lo);
      out[s.name] += (s.end - s.start) - covered;
    }
    return out;
  }

  /// Writes every span as a complete ("X") trace event. Returns false when
  /// the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                   "%d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                   "\"parent\": %d, \"span\": %d}}%s\n",
                   s.name.c_str(), s.tid, s.start * 1e6,
                   (s.end - s.start) * 1e6, static_cast<long long>(s.id),
                   s.parent, s.index, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; nests under `parent` (an index from another ScopedSpan).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent = -1,
             std::int64_t id = 0, int tid = 0)
      : rec_(&rec), index_(rec.open(std::move(name), parent, id, tid)) {}
  ~ScopedSpan() { rec_->close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace hpgbench

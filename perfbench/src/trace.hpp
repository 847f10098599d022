#pragma once
// Outside-in span recorder for the traced runs. Spans are opened by the
// benchmark's own code around calls into the library's public functions
// (nothing inside src/ is instrumented). Each span records its name,
// start/end, parent, the job it belongs to, and the flops and computed
// traffic bytes the library credited to this thread while it was open
// (tucker::FlopScope; pool workers credit back to the submitting thread).
// Spans stay in memory; rollup() derives self times and write_chrome()
// exports Chrome trace-event JSON that opens offline in Perfetto.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Trace {
 public:
  struct SpanRec {
    const char* name;
    std::int64_t job;
    int parent;  // index into spans_, -1 for a root
    double start_s, end_s;
    std::int64_t flops, traffic;
  };

  /// RAII span; nests under the innermost span open on this Trace.
  class Span {
   public:
    Span(Trace& tr, const char* name) : tr_(&tr), idx_(tr.open(name)) {}
    ~Span() { tr_->close(idx_, scope_.flops(), scope_.traffic()); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* tr_;
    int idx_;
    tucker::FlopScope scope_;
  };

  Trace() : t0_(Clock::now()) { spans_.reserve(4096); }

  /// Spans opened from here on belong to job `id` (one compress job, one
  /// request): the Chrome export puts each job on its own track.
  void set_job(std::int64_t id) { job_ = id; }

  std::size_t size() const { return spans_.size(); }

  struct Layer {
    std::int64_t count = 0;
    double total_s = 0, self_s = 0;
    std::int64_t flops = 0;
  };

  /// Per-name totals over spans [from, size()): count, inclusive time,
  /// self time (duration minus the time its direct children cover) and
  /// self flops (children's flops likewise subtracted).
  std::map<std::string, Layer> rollup(std::size_t from = 0) const {
    std::vector<double> child_s(spans_.size(), 0);
    std::vector<std::int64_t> child_f(spans_.size(), 0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0) {
        child_s[static_cast<std::size_t>(p)] +=
            spans_[i].end_s - spans_[i].start_s;
        child_f[static_cast<std::size_t>(p)] += spans_[i].flops;
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      auto& l = out[s.name];
      const double d = s.end_s - s.start_s;
      ++l.count;
      l.total_s += d;
      l.self_s += d - child_s[i];
      l.flops += s.flops - child_f[i];
    }
    return out;
  }

  /// Share of root span `root`'s duration covered by its direct children.
  double coverage(std::size_t root) const {
    const auto& r = spans_[root];
    double covered = 0;
    for (std::size_t i = root + 1; i < spans_.size(); ++i)
      if (spans_[i].parent == static_cast<int>(root))
        covered += spans_[i].end_s - spans_[i].start_s;
    const double d = r.end_s - r.start_s;
    return d > 0 ? covered / d : 0.0;
  }

  /// Writes every span as a complete ("X") trace event, one track per job.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"flops\":%lld,"
                   "\"traffic_bytes\":%lld,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name,
                   static_cast<long long>(s.job), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6,
                   static_cast<long long>(s.flops),
                   static_cast<long long>(s.traffic), s.parent);
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
  }

 private:
  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, job_, parent, now(), 0, 0, 0});
    const int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx, std::int64_t flops, std::int64_t traffic) {
    auto& s = spans_[static_cast<std::size_t>(idx)];
    s.end_s = now();
    s.flops = flops;
    s.traffic = traffic;
    stack_.pop_back();
  }
  double now() const { return seconds_between(t0_, Clock::now()); }

  Clock::time_point t0_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
  std::int64_t job_ = 0;
};

}  // namespace perfbench

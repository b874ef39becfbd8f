// In-memory span recording for the traced run.
//
// A span covers one call (or one stage of calls) into a layer: its name is
// "<layer>.<what>" with the layer one of the program's modules (geom, sim,
// hist, engine, par, mp, service) or "bench" for the harness itself. Spans
// nest per thread: the innermost open span of the recording thread is the
// parent. Spans of one run or job share its `run` id. Nothing is written
// until write_jsonl() at the end, so recording costs one clock read and one
// locked append per span.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds on the recorder's steady clock
  double end = 0.0;
  int parent = -1;     // index into the recorder's span list; -1 for a root
  std::uint64_t run = 0;
};

// Layer of a span name: the text before the first '.'.
std::string span_layer(const std::string& name);

// Self time of spans[i]: its duration minus the part of its interval that
// its direct children cover (overlapping children are counted once).
double self_time(const std::vector<Span>& spans, std::size_t i);

// Summed self time per layer.
std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  // A disabled recorder records nothing; Scope on it is a no-op.
  explicit SpanRecorder(bool enabled);

  int open(const std::string& name, std::uint64_t run);
  void close(int id);

  // Opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name, std::uint64_t run = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  std::vector<Span> spans() const;
  // One JSON object per line: name, start, end, parent, run.
  bool write_jsonl(const std::string& path) const;

 private:
  double now() const;

  bool enabled_;
  double origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

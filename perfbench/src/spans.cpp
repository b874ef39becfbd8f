#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Open spans of the calling thread, innermost last. Ids are only meaningful
// to the recorder that issued them; the benchmark uses one recorder per run.
thread_local std::vector<int> open_stack;

}  // namespace

std::string span_layer(const std::string& name) { return name.substr(0, name.find('.')); }

double self_time(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(i)) continue;
    const double lo = std::max(c.start, s.start);
    const double hi = std::min(c.end, s.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = s.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return (s.end - s.start) - busy;
}

std::map<std::string, double> self_time_by_layer(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[span_layer(spans[i].name)] += self_time(spans, i);
  return out;
}

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), origin_(steady_seconds()) {}

double SpanRecorder::now() const { return steady_seconds() - origin_; }

int SpanRecorder::open(const std::string& name, std::uint64_t run) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.run = run;
  span.parent = open_stack.empty() ? -1 : open_stack.back();
  span.start = now();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_stack.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const double end = now();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const std::string& name, std::uint64_t run)
    : recorder_(recorder), id_(recorder.open(name, run)) {}

SpanRecorder::Scope::~Scope() { recorder_.close(id_); }

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f, "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"run\": %llu}\n",
                 s.name.c_str(), s.start, s.end, s.parent, static_cast<unsigned long long>(s.run));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "clutter.hpp"
#include "core/rng.hpp"
#include "engine/backend.hpp"
#include "engine/pool.hpp"
#include "geom/scenes.hpp"
#include "seeded.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/checkpoint.hpp"
#include "sim/emitter.hpp"
#include "sim/tracer.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using photon::Backend;
using photon::RunConfig;
using photon::RunResult;
using photon::Scene;
using SceneRef = std::shared_ptr<const Scene>;
using MetricMap = std::map<std::string, double>;

constexpr double kMiB = 1024.0 * 1024.0;

// Seed streams (seeded.hpp derive_seed).
enum : std::uint64_t { kSceneStream = 1, kPhotonStream = 2, kRayStream = 3, kMixStream = 4 };

// A batch run's timing percentiles need this many repetitions (p90 with
// kMinSamplesBeyond beyond it), and so does the service mix.
constexpr std::size_t kMinSamples = 100;
// The sum-to-wall check: staged emit + trace + record over the width-1
// Backend::run wall time of the same photons must land in this band. Each of
// kStagePasses passes runs the stages and then one width-1 run, so host drift
// hits both sides of a pass's ratio alike; the check takes the median ratio.
// The band is the range of measured medians widened by the largest deviation
// of one pass from its run's median (METHOD.md, "Sum-to-wall check").
constexpr int kStagePasses = 3;
constexpr double kStageSumLow = 0.75;
constexpr double kStageSumHigh = 1.35;

double now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak resident set of this process (VmHWM). Not getrusage: its ru_maxrss
// survives execve, so it would report a larger parent's peak instead.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib * 1024.0 / kMiB;
}

// Runs `work` in a forked child and returns the `count` numbers it returns.
// The caller must not have started any thread yet, so the child starts as a
// fresh process would: no pool helpers spawned, no scene resident, and none
// of the allocator caching a long run accumulates (whose size depends on
// which malloc arenas each run's fresh threads happen to draw).
std::vector<double> in_fresh_process(std::size_t count,
                                     const std::function<std::vector<double>()>& work) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("fresh process: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fresh process: fork failed");
  const std::size_t bytes = count * sizeof(double);
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    close(fds[0]);
    std::vector<double> values;
    try {
      values = work();
    } catch (...) {
    }
    const bool ok = values.size() == count &&
                    write(fds[1], values.data(), bytes) == static_cast<ssize_t>(bytes);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::vector<double> values(count);
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = read(fds[0], reinterpret_cast<char*>(values.data()) + got, bytes - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fresh process: the child failed");
  }
  return values;
}

// Output checks. A run or job counts once in `attempted`, and once in
// `failed` however many of its checks fail.
class Checks {
 public:
  void run(bool ok, const std::string& what) {
    ++report_.attempted;
    if (!ok) fail(what);
  }
  // A failed check outside any counted run (a trace-run probe): it counts
  // as one more attempted-and-failed unit.
  void probe(bool ok, const std::string& what) {
    if (ok) return;
    ++report_.attempted;
    fail(what);
  }
  Report& report() { return report_; }

 private:
  void fail(const std::string& what) {
    ++report_.failed;
    if (report_.failures.size() < 20) report_.failures.push_back(what);
  }
  Report report_;
};

RunResult run_backend(const std::string& backend, const Scene& scene, const RunConfig& config) {
  std::unique_ptr<Backend> b = photon::make_backend(backend);
  if (!b) throw std::runtime_error("unknown backend " + backend);
  return b->run(scene, config);
}

// ---------------------------------------------------------------------------
// One run a workload performs: the unit the layer probes measure.

struct Case {
  std::string scene_name;
  SceneRef scene;
  std::string backend;
  RunConfig config;  // photons, seed, workers (the parallel width W)
};

// Keeps every record in arrival order, so the drain can be replayed.
class CaptureSink final : public photon::BinSink {
 public:
  void record(const photon::BounceRecord& rec) override { records.push_back(rec); }
  std::vector<photon::BounceRecord> records;
};

struct Staged {
  double emit_ns = 0.0;    // per photon
  double trace_ns = 0.0;   // per photon, into a discarding sink
  double capture_ns = 0.0; // per photon, into a record buffer (as the backends trace)
  double record_ns = 0.0;  // per photon: replaying its records into a forest
  double bounces_per_photon = 0.0;
  std::uint64_t records = 0;
  photon::BinForest forest;  // the replayed forest

  // Seconds the three stages the backends run (emit, buffered trace, record)
  // take for `photons` photons.
  double sum_s(double photons) const { return (emit_ns + capture_ns + record_ns) * photons * 1e-9; }
};

// The photon pipeline in three single-threaded stages over the case's
// photon ids, each timed whole: Emitter::emit, Tracer::trace into a NullSink,
// and BinForest::record of the captured stream in ascending photon-id order
// (the drain the shared backend runs on its coordinating thread).
Staged run_staged(const Case& c, SpanRecorder& spans) {
  const Scene& scene = *c.scene;
  const std::uint64_t n = c.config.photons;
  const photon::Emitter emitter(scene);
  const photon::Tracer tracer(scene, c.config.limits);
  Staged out;

  std::vector<photon::EmissionSample> emissions(n);
  std::vector<photon::Lcg48> rngs;
  rngs.reserve(n);
  double t0 = now();
  {
    SpanRecorder::Scope span(spans, "sim.emit");
    for (std::uint64_t id = 0; id < n; ++id) {
      photon::Lcg48 rng = photon::photon_stream(c.config.seed, id);
      emissions[id] = emitter.emit(rng);
      rngs.push_back(rng);
    }
  }
  out.emit_ns = (now() - t0) * 1e9 / static_cast<double>(n);

  photon::TraceCounters counters;
  photon::NullSink null_sink;
  t0 = now();
  {
    SpanRecorder::Scope span(spans, "sim.trace");
    for (std::uint64_t id = 0; id < n; ++id) {
      photon::Lcg48 rng = rngs[id];
      tracer.trace(emissions[id], rng, null_sink, &counters);
    }
  }
  out.trace_ns = (now() - t0) * 1e9 / static_cast<double>(n);
  out.bounces_per_photon = counters.bounces_per_photon();

  // The same paths again into a record buffer: the stream the drain replays,
  // and the trace cost the backends actually pay (they buffer every record).
  CaptureSink capture;
  std::vector<std::size_t> first(n + 1, 0);
  t0 = now();
  {
    SpanRecorder::Scope span(spans, "sim.trace_capture");
    for (std::uint64_t id = 0; id < n; ++id) {
      first[id] = capture.records.size();
      tracer.trace(emissions[id], rngs[id], capture);
    }
  }
  out.capture_ns = (now() - t0) * 1e9 / static_cast<double>(n);
  first[n] = capture.records.size();
  out.records = capture.records.size();

  out.forest = photon::BinForest(scene.patch_count(), c.config.policy);
  out.forest.set_total_power(emitter.total_power());
  t0 = now();
  {
    SpanRecorder::Scope span(spans, "hist.record");
    for (std::uint64_t id = 0; id < n; ++id) {
      out.forest.add_emitted(emissions[id].channel);
      for (std::size_t r = first[id]; r < first[id + 1]; ++r) {
        const photon::BounceRecord& rec = capture.records[r];
        out.forest.record(rec.patch, rec.front, rec.coords, rec.channel);
      }
    }
  }
  out.record_ns = (now() - t0) * 1e9 / static_cast<double>(n);
  return out;
}

// Scene::intersect over a seeded ray set on one thread, then the counted
// traversal over the same rays for the exact work counts.
void measure_intersect(const Scene& scene, std::uint64_t seed, std::size_t n_rays,
                       SpanRecorder& spans, Checks& checks, MetricMap& m) {
  const photon::Aabb b = scene.bounds();
  SplitMix rng(seed);
  std::vector<photon::Ray> rays;
  rays.reserve(n_rays);
  for (std::size_t i = 0; i < n_rays; ++i) {
    const photon::Vec3 o{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y),
                         rng.uniform(b.lo.z, b.hi.z)};
    photon::Vec3 d;
    double len2 = 0.0;
    do {
      d = {rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
      len2 = d.x * d.x + d.y * d.y + d.z * d.z;
    } while (len2 > 1.0 || len2 < 1e-6);
    rays.emplace_back(o, d * (1.0 / std::sqrt(len2)));
  }
  std::uint64_t hit_sum = 0;
  double t0 = now();
  {
    SpanRecorder::Scope span(spans, "geom.intersect");
    photon::SceneHit hit;
    for (const photon::Ray& ray : rays) {
      if (scene.intersect(ray, photon::kNoHit, hit)) hit_sum += static_cast<std::uint64_t>(hit.patch);
    }
  }
  m["geom.intersect_ns"] = (now() - t0) * 1e9 / static_cast<double>(n_rays);

  photon::TraversalStats stats;
  std::uint64_t counted_sum = 0;
  {
    SpanRecorder::Scope span(spans, "geom.intersect_counted");
    photon::SceneHit hit;
    for (const photon::Ray& ray : rays) {
      if (scene.accel().intersect_counted(ray, photon::kNoHit, hit, stats)) {
        counted_sum += static_cast<std::uint64_t>(hit.patch);
      }
    }
  }
  checks.probe(counted_sum == hit_sum, scene.name() + ": counted traversal disagrees with intersect");
  m["geom.patch_tests_per_ray"] = static_cast<double>(stats.patch_tests) / static_cast<double>(n_rays);
  m["geom.nodes_per_ray"] = static_cast<double>(stats.nodes_visited) / static_cast<double>(n_rays);
}

// Median wall time of `reps` runs, keeping the last result.
double timed_runs(const std::string& backend, const Scene& scene, const RunConfig& config,
                  int reps, SpanRecorder& spans, const std::string& span_name, RunResult& last) {
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    SpanRecorder::Scope span(spans, span_name, static_cast<std::uint64_t>(r));
    const double t0 = now();
    last = run_backend(backend, scene, config);
    walls.push_back(now() - t0);
  }
  return median(walls);
}

void pool_metrics(const RunResult& r, MetricMap& m) {
  m["engine.pool.steals"] = static_cast<double>(r.pool.steals);
  m["engine.pool.imbalance"] = max_over_mean(r.pool.worker_photons);
}

void dist_metrics(const RunResult& r, MetricMap& m) {
  double wait = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  for (const photon::RankReport& rank : r.ranks) {
    wait += rank.wait_seconds;
    bytes += rank.sent_bytes;
    messages += rank.sent_messages;
  }
  m["par.lb_imbalance"] = max_over_mean(r.balance.rank_load);
  m["par.exchange_wait_s"] = wait;
  m["mp.sent_mb"] = static_cast<double>(bytes) / kMiB;
  m["mp.messages"] = static_cast<double>(messages);
}

// Every per-layer metric of one case except geom set-up and the service
// layer. Layers the case's own backend bypasses (the pool for
// dist-particle, the exchange for shared) are measured by one probe run of
// the other backend at the same width on the same inputs.
MetricMap measure_case(const Case& c, std::uint64_t ray_seed, const std::string& work_dir,
                       SpanRecorder& spans, Checks& checks, std::vector<std::string>& notes) {
  MetricMap m;
  const Scene& scene = *c.scene;
  const double n = static_cast<double>(c.config.photons);
  const std::string label = c.scene_name + "/" + c.backend + "@" + std::to_string(c.config.workers);

  measure_intersect(scene, ray_seed, c.scene_name == "clutter" ? 100000 : 200000, spans, checks, m);

  // Staged passes, each followed by its width-1 run; per-pass figures are
  // reduced by their median.
  RunConfig narrow_config = c.config;
  narrow_config.workers = 1;
  Staged staged;
  RunResult narrow;
  std::vector<double> emit, trace, record, narrow_walls, ratios;
  for (int p = 0; p < kStagePasses; ++p) {
    staged = run_staged(c, spans);
    narrow_walls.push_back(
        timed_runs(c.backend, scene, narrow_config, 1, spans, "engine.backend_run_width1", narrow));
    emit.push_back(staged.emit_ns);
    trace.push_back(staged.trace_ns);
    record.push_back(staged.record_ns);
    ratios.push_back(staged.sum_s(n) / narrow_walls.back());
  }
  const double narrow_wall = median(narrow_walls);
  m["sim.emit_ns"] = median(emit);
  m["sim.trace_ns"] = median(trace);
  m["sim.bounces_per_photon"] = staged.bounces_per_photon;
  m["sim.records"] = static_cast<double>(staged.records);
  m["hist.record_ns"] = median(record);
  m["sim.stage_sum_ratio"] = median(ratios);

  RunResult wide;
  const double wide_wall = timed_runs(c.backend, scene, c.config, 5, spans, "engine.backend_run", wide);
  const double width = static_cast<double>(c.config.workers);
  m["hist.drain_share"] = m["hist.record_ns"] * n * 1e-9 / wide_wall;
  m["hist.forest_mb"] = static_cast<double>(wide.forest.memory_bytes()) / kMiB;
  m["hist.forest_nodes"] = static_cast<double>(wide.forest.total_nodes());
  m["par.width1_photons_per_s"] = n / narrow_wall;
  m["par.scaling_eff"] = (n / wide_wall) / (width * (n / narrow_wall));
  std::string pass_ratios;
  for (const double r : ratios) pass_ratios += " " + std::to_string(r);
  notes.push_back(label + ": staged emit+trace(buffered)+record over width-1 wall, per pass:" +
                  pass_ratios);

  // The photon-stream backends feed the forest in ascending id order, so
  // the staged replay, the width-1 and the width-W forests must agree.
  if (c.backend == "shared") {
    checks.probe(staged.forest == narrow.forest && narrow.forest == wide.forest,
                 label + ": staged replay / width-1 / width-W forests differ");
  }

  RunResult probe;
  if (c.backend == "shared") {
    pool_metrics(wide, m);
  } else {
    timed_runs("shared", scene, c.config, 1, spans, "engine.backend_run_probe", probe);
    pool_metrics(probe, m);
  }
  if (c.backend == "dist-particle") {
    dist_metrics(wide, m);
  } else {
    timed_runs("dist-particle", scene, c.config, 1, spans, "engine.backend_run_probe", probe);
    dist_metrics(probe, m);
  }
  // Printed, not reported: the per-batch allreduce absorbs rank skew, so this
  // wait reads 0 at the default settings (METHOD.md).
  notes.push_back(label + ": par.exchange_wait_s (sum of RankReport::wait_seconds) " +
                  std::to_string(m["par.exchange_wait_s"]) + " s");

  // Checkpoint of the final result, written three times; the file must load
  // back to the same forest.
  const std::string path = work_dir + "/probe.ck";
  std::vector<double> writes;
  for (int r = 0; r < 3; ++r) {
    SpanRecorder::Scope span(spans, "sim.checkpoint_write", static_cast<std::uint64_t>(r));
    const double t0 = now();
    const bool ok = photon::save_checkpoint(wide, path);
    writes.push_back(now() - t0);
    checks.probe(ok, label + ": save_checkpoint failed");
  }
  m["sim.checkpoint_write_s"] = median(writes);
  std::error_code ec;
  m["sim.checkpoint_mb"] = static_cast<double>(std::filesystem::file_size(path, ec)) / kMiB;
  RunResult loaded;
  checks.probe(photon::load_checkpoint(path, loaded) && loaded.forest == wide.forest,
               label + ": checkpoint does not load back to the same forest");
  std::filesystem::remove(path, ec);
  return m;
}

// ---------------------------------------------------------------------------
// The service harness: an in-process daemon on a Unix socket under work_dir.

std::optional<double> json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  try {
    return std::stod(json.substr(at + needle.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string json_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  return json.substr(from, json.find('"', from) - from);
}

class Daemon {
 public:
  Daemon(photon::ServiceConfig config, photon::SceneLoader loader, std::string socket_path)
      : service_(config, std::move(loader)), socket_path_(std::move(socket_path)) {
    thread_ = std::thread(
        [this] { photon::run_daemon(service_, socket_path_, [this] { return stop_.load(); }); });
  }
  ~Daemon() {
    stop_ = true;
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_path_; }
  photon::PhotonService& service() { return service_; }

  // Retries until the daemon has bound its socket and answers a ping.
  bool wait_ready(double timeout_s) const {
    const double until = now() + timeout_s;
    while (now() < until) {
      photon::ServiceClient client(socket_path_);
      std::string response;
      if (client.ok() && client.request("ping", response) &&
          response.find("\"ok\": true") != std::string::npos) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

 private:
  photon::PhotonService service_;
  std::string socket_path_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it uses every member above
};

struct JobPlan {
  std::string line;  // the submit request
  std::string scene;
  std::string backend;
  std::uint64_t photons = 0;
  std::string checkpoint;
};

struct JobOutcome {
  std::size_t plan = 0;
  bool io_failed = false;  // the connection broke; the client stops
  double submitted = 0.0;  // now() when the submit was sent
  double latency = 0.0;    // submit sent -> wait answered, as the client sees it
  double wall_s = 0.0;     // JobInfo::wall_s
  std::uint64_t emitted = 0;
  std::string state;
  std::string error;
};

// Submits each plan through `client` and waits for it; spans per job.
JobOutcome submit_and_wait(photon::ServiceClient& client, const JobPlan& plan, std::size_t index,
                           SpanRecorder& spans) {
  JobOutcome out;
  out.plan = index;
  SpanRecorder::Scope job_span(spans, "bench.job", index);
  const double t0 = now();
  out.submitted = t0;
  std::string response;
  std::uint64_t id = 0;
  {
    SpanRecorder::Scope span(spans, "service.submit", index);
    if (!client.request(plan.line, response)) {
      out.io_failed = true;
      out.error = "submit: " + client.error();
      return out;
    }
  }
  const std::optional<double> job = json_number(response, "job");
  if (!job) {
    out.error = "submit refused: " + response;
    return out;
  }
  id = static_cast<std::uint64_t>(*job);
  {
    SpanRecorder::Scope span(spans, "service.wait", index);
    if (!client.request("wait job=" + std::to_string(id), response)) {
      out.io_failed = true;
      out.error = "wait: " + client.error();
      return out;
    }
  }
  out.latency = now() - t0;
  out.state = json_string(response, "state");
  out.error = json_string(response, "error");
  out.emitted = static_cast<std::uint64_t>(json_number(response, "emitted").value_or(0));
  out.wall_s = json_number(response, "wall_s").value_or(0.0);
  return out;
}

std::vector<double> ping_times(const std::string& socket_path, int count, SpanRecorder& spans) {
  photon::ServiceClient client(socket_path);
  std::vector<double> rtts;
  std::string response;
  for (int i = 0; i < count && client.ok(); ++i) {
    SpanRecorder::Scope span(spans, "service.ping", static_cast<std::uint64_t>(i));
    const double t0 = now();
    if (!client.request("ping", response)) break;
    rtts.push_back(now() - t0);
  }
  return rtts;
}

double jobs_refused(const photon::PhotonService& service) {
  double refused = 0.0;
  for (const photon::JobInfo& info : service.jobs()) {
    if (info.state == photon::JobState::kRefused) refused += 1.0;
  }
  return refused;
}

// Checks one finished job: done, the requested count, and a checkpoint that
// loads with that count. Returns the loaded result for the solo comparison.
bool check_job(const JobPlan& plan, const JobOutcome& o, RunResult& loaded, std::string& why) {
  if (!o.error.empty() || o.state != "done") {
    why = "state " + o.state + " " + o.error;
    return false;
  }
  if (o.emitted != plan.photons) {
    why = "emitted " + std::to_string(o.emitted) + " of " + std::to_string(plan.photons);
    return false;
  }
  const photon::CheckpointStatus status = photon::load_checkpoint_status(plan.checkpoint, loaded);
  if (status != photon::CheckpointStatus::kOk) {
    why = std::string("checkpoint ") + photon::checkpoint_status_name(status);
    return false;
  }
  if (loaded.counters.emitted != plan.photons) {
    why = "checkpoint holds " + std::to_string(loaded.counters.emitted) + " photons";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: repeated, each time in a fresh process, the median reported.

// One set-up's parts, in seconds.
struct SetupSample {
  double total = 0.0;
  double pool = 0.0;   // first WorkerPool::instance(): spawns its helpers
  double scene = 0.0;  // scene load or generation (summed over the mix's scenes)
  double accel = 0.0;  // acceleration structure build (likewise)
};

// Times `setups` set-ups, each in a fresh process (in_fresh_process), so each
// pays what a user's first run pays: the pool spawn and the scene residency
// that the process keeps for its lifetime after the first set-up.
MetricMap fresh_setup_metrics(int setups, const std::function<SetupSample()>& set_up) {
  std::vector<double> total, pool, scene, accel;
  for (int i = 0; i < setups; ++i) {
    const std::vector<double> v = in_fresh_process(4, [&] {
      const SetupSample t = set_up();
      return std::vector<double>{t.total, t.pool, t.scene, t.accel};
    });
    total.push_back(v[0]);
    pool.push_back(v[1]);
    scene.push_back(v[2]);
    accel.push_back(v[3]);
  }
  return {{"setup_s", median(total)},
          {"engine.pool.spawn_s", median(pool)},
          {"geom.scene_s", median(scene)},
          {"geom.accel_build_s", median(accel)}};
}

// Spawns the process-lifetime pool's helpers, as the first parallel accel
// build or shared run would; returns the seconds it took.
double spawn_pool(SpanRecorder& spans) {
  SpanRecorder::Scope span(spans, "engine.pool_spawn");
  const double t0 = now();
  photon::WorkerPool::instance();
  return now() - t0;
}

void add_metrics(Report& report, const std::vector<std::pair<std::string, std::string>>& names,
                 const MetricMap& values) {
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::runtime_error("metric not measured: " + name);
    report.metrics.push_back({name, it->second, unit});
  }
}

void add_self_times(const SpanRecorder& spans, MetricMap& m, Report& report) {
  const std::map<std::string, double> self = self_time_by_layer(spans.spans());
  for (const std::string layer : {"bench", "geom", "sim", "hist", "engine", "service"}) {
    const auto it = self.find(layer);
    m["self." + layer + "_s"] = it == self.end() ? 0.0 : it->second;
  }
  report.notes.push_back("spans recorded: " + std::to_string(spans.spans().size()));
}

// ---------------------------------------------------------------------------
// Batch workloads: one scene, one backend, repeated Backend::run calls.

constexpr int kBatchWidth = 4;  // workers or ranks

struct BatchSpec {
  std::string scene_name;
  std::function<Scene(std::uint64_t seed)> make_scene;
  std::string backend;
  std::uint64_t photons = 0;
  int setups = 5;
  // true: each repetition must equal the serial photon-stream reference;
  // false: tally conservation and equality with the first repetition.
  bool photon_stream_reference = false;
};

// Repetitions of the case's run until `seconds` have passed and at least
// `min_reps` ran, each checked. Returns each repetition's wall time.
std::vector<double> batch_loop(const Case& c, const BatchSpec& spec, const RunResult* reference,
                               double seconds, std::size_t min_reps, SpanRecorder& spans,
                               Checks& checks) {
  std::vector<double> walls;
  std::optional<photon::BinForest> first;
  const double start = now();
  const double limit = start + std::max(3.0 * seconds, seconds + 60.0);
  while ((now() - start < seconds || walls.size() < min_reps) && now() < limit) {
    const std::uint64_t rep = walls.size();
    RunResult r;
    {
      SpanRecorder::Scope span(spans, "engine.backend_run", rep);
      const double t0 = now();
      r = run_backend(c.backend, *c.scene, c.config);
      walls.push_back(now() - t0);
    }
    bool ok = r.status == photon::RunStatus::kComplete && r.counters.emitted == c.config.photons;
    if (spec.photon_stream_reference) {
      ok = ok && reference != nullptr && r.forest == reference->forest;
    } else {
      ok = ok && r.forest.total_tally_all() == r.counters.emitted + r.counters.bounces;
      if (!first) first = std::move(r.forest);
      else ok = ok && r.forest == *first;
    }
    checks.run(ok, c.scene_name + " repetition " + std::to_string(rep) + " failed its output check");
  }
  if (walls.size() < min_reps) {
    throw std::runtime_error("only " + std::to_string(walls.size()) + " repetitions ran");
  }
  return walls;
}

// One set-up: the pool spawn (the accel builds and the shared backend run on
// the process-lifetime pool), scene load or generation, and the
// program-default accel build.
SceneRef set_up_batch(const BatchSpec& spec, std::uint64_t seed, SpanRecorder& spans,
                      SetupSample* sample) {
  SpanRecorder::Scope span(spans, "bench.setup");
  const double t0 = now();
  const double pool_s = spawn_pool(spans);
  const double t1 = now();
  auto scene = std::make_shared<Scene>();
  {
    SpanRecorder::Scope inner(spans, "geom.scene");
    *scene = spec.make_scene(derive_seed(seed, kSceneStream));
    photon::validate_scene(*scene);
  }
  const double t2 = now();
  {
    SpanRecorder::Scope inner(spans, "geom.accel_build");
    scene->set_accel(RunConfig{}.accel);
    scene->build();
  }
  const double t3 = now();
  if (sample != nullptr) *sample = {t3 - t0, pool_s, t2 - t1, t3 - t2};
  return scene;
}

Report run_batch(const BatchSpec& spec, const Options& opt) {
  Checks checks;
  SpanRecorder spans(opt.trace);
  Report& report = checks.report();

  Case c;
  c.scene_name = spec.scene_name;
  c.backend = spec.backend;
  c.config.photons = spec.photons;
  c.config.workers = kBatchWidth;
  c.config.seed = derive_seed(opt.seed, kPhotonStream);

  // The fresh-process probes first, while this process has no threads: the
  // memory probe, then the timed set-ups.
  SpanRecorder off(false);
  const double rss_mb = opt.trace ? 0.0 : in_fresh_process(1, [&] {
    const SceneRef scene = set_up_batch(spec, opt.seed, off, nullptr);
    run_backend(c.backend, *scene, c.config);
    return std::vector<double>{peak_rss_mb()};
  })[0];
  MetricMap m = fresh_setup_metrics(spec.setups, [&] {
    SetupSample t;
    set_up_batch(spec, opt.seed, off, &t);
    return t;
  });
  // This process's own set-up, untimed (its spans are kept).
  c.scene = set_up_batch(spec, opt.seed, spans, nullptr);

  std::optional<RunResult> reference;
  if (spec.photon_stream_reference) {
    RunConfig ref = c.config;
    ref.photon_streams = true;
    reference = run_backend("serial", *c.scene, ref);
  }

  m["geom.accel_mb"] = static_cast<double>(c.scene->accel().memory_bytes()) / kMiB;
  if (!opt.trace) {
    m["peak_rss_mb"] = rss_mb;
    const std::vector<double> walls = batch_loop(c, spec, reference ? &*reference : nullptr,
                                                 opt.seconds, kMinSamples, off, checks);
    std::vector<double> rates;
    double busy = 0.0;
    for (const double w : walls) {
      rates.push_back(static_cast<double>(spec.photons) / w);
      busy += w;
    }
    m["photons_per_s"] = median(rates);
    m["jobs_per_s"] = static_cast<double>(walls.size()) / busy;
    m["job_latency_p50_s"] = percentile(walls, 50).value();
    m["job_latency_p90_s"] = percentile(walls, 90).value();
    m["ok_rate"] = 1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted);
    report.notes.push_back(std::to_string(walls.size()) + " repetitions of " +
                           std::to_string(spec.photons) + " photons");
    add_metrics(report, end_to_end_metrics(), m);
    return report;
  }

  // Traced run: the same loop untraced, then traced, for the overhead; then
  // the layer probes.
  const RunResult* ref = reference ? &*reference : nullptr;
  const std::vector<double> plain = batch_loop(c, spec, ref, opt.seconds / 2, 10, off, checks);
  const std::vector<double> traced = batch_loop(c, spec, ref, opt.seconds / 2, 10, spans, checks);
  const double plain_rate = static_cast<double>(spec.photons) / median(plain);
  const double traced_rate = static_cast<double>(spec.photons) / median(traced);
  m["trace.photons_per_s"] = traced_rate;
  m["trace.overhead"] = 1.0 - traced_rate / plain_rate;

  const MetricMap layers =
      measure_case(c, derive_seed(opt.seed, kRayStream), opt.work_dir, spans, checks, report.notes);
  m.insert(layers.begin(), layers.end());
  if (spec.photon_stream_reference) {
    const double ratio = m["sim.stage_sum_ratio"];
    checks.probe(ratio >= kStageSumLow && ratio <= kStageSumHigh,
                 "staged layers sum to " + std::to_string(ratio) + " of the width-1 wall");
  }

  // The service layer, driven with this workload's run submitted as a job.
  {
    SpanRecorder::Scope span(spans, "bench.service_probe");
    const SceneRef scene = c.scene;
    photon::ServiceConfig config;
    Daemon daemon(config, [scene](const std::string&, photon::AccelKind) { return scene; },
                  opt.work_dir + "/probe.sock");
    checks.probe(daemon.wait_ready(10.0), "service probe: daemon never answered ping");
    photon::ServiceClient client(daemon.socket_path());
    std::vector<double> waits;
    std::vector<double> runs;
    for (std::size_t j = 0; j < 3; ++j) {
      JobPlan plan;
      plan.photons = spec.photons;
      plan.checkpoint = opt.work_dir + "/probe-job.ck";
      plan.line = "submit scene=" + spec.scene_name + " backend=" + spec.backend +
                  " photons=" + std::to_string(spec.photons) +
                  " seed=" + std::to_string(c.config.seed) +
                  " workers=" + std::to_string(kBatchWidth) + " checkpoint=" + plan.checkpoint;
      const JobOutcome o = submit_and_wait(client, plan, j, spans);
      RunResult loaded;
      std::string why;
      checks.probe(check_job(plan, o, loaded, why), "service probe job: " + why);
      waits.push_back(o.latency - o.wall_s);
      runs.push_back(o.wall_s);
    }
    m["service.queue_wait_s"] = median(waits);
    m["service.run_s"] = median(runs);
    m["service.rpc_us"] = median(ping_times(daemon.socket_path(), 200, spans)) * 1e6;
    m["service.scene_loads"] = static_cast<double>(daemon.service().scene_loads());
    m["service.jobs_refused"] = jobs_refused(daemon.service());
    std::error_code ec;
    std::filesystem::remove(opt.work_dir + "/probe-job.ck", ec);
  }

  add_self_times(spans, m, report);
  spans.write_jsonl(opt.work_dir + "/spans.jsonl");
  add_metrics(report, per_layer_metrics(), m);
  return report;
}

// ---------------------------------------------------------------------------
// service-mix: a closed loop of clients against an in-process daemon.

const char* const kMixScenes[] = {"cornell", "harpsichord", "lab"};
constexpr int kMixClients = 4;
constexpr int kMixMaxActive = 2;
constexpr std::size_t kMixBlock = 20;  // jobs per block, one of them big
constexpr std::uint64_t kMixBigPhotons = 100000;
constexpr std::size_t kMixSolo = 4;    // jobs re-run solo for the bitwise check
constexpr int kMixSetups = 61;

SceneRef load_bundled(const std::string& name, photon::AccelKind kind) {
  auto scene = std::make_shared<Scene>(photon::scenes::by_name(name));
  scene->set_accel(kind);
  scene->build();
  return scene;
}

// The job list: blocks of kMixBlock jobs, each with one 100k-photon job and
// the rest 10k-20k; scenes and backends (serial, shared@2) balanced within a
// block and shuffled by the seed. Fixed composition, seeded order.
std::vector<JobPlan> plan_mix(std::uint64_t seed, std::size_t count, const std::string& dir) {
  SplitMix rng(seed);
  std::vector<JobPlan> plans;
  while (plans.size() < count) {
    std::vector<JobPlan> block(kMixBlock);
    for (std::size_t i = 0; i < kMixBlock; ++i) {
      JobPlan& p = block[i];
      p.scene = kMixScenes[i % 3];
      p.backend = i % 2 == 0 ? "serial" : "shared";
      p.photons = i == 0 ? kMixBigPhotons : 10000 + 1000 * rng.below(11);
    }
    for (std::size_t i = kMixBlock - 1; i > 0; --i) std::swap(block[i], block[rng.below(i + 1)]);
    for (JobPlan& p : block) {
      const std::size_t index = plans.size();
      p.checkpoint = dir + "/job-" + std::to_string(index) + ".ck";
      p.line = "submit scene=" + p.scene + " backend=" + p.backend +
               " photons=" + std::to_string(p.photons) + " seed=" + std::to_string(rng.next() >> 16) +
               " workers=2 checkpoint=" + p.checkpoint;
      plans.push_back(std::move(p));
    }
  }
  return plans;
}

struct MixResult {
  std::vector<JobOutcome> outcomes;
  double wall = 0.0;
};

MixResult run_mix(const Daemon& daemon, const std::vector<JobPlan>& plans, std::size_t first_plan,
                  double seconds, std::size_t min_jobs, SpanRecorder& spans) {
  MixResult mix;
  std::mutex mutex;
  std::atomic<std::size_t> next{first_plan};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> broken{false};
  const double start = now();
  const double limit = start + std::max(3.0 * seconds, seconds + 60.0);
  auto client_loop = [&] {
    photon::ServiceClient client(daemon.socket_path());
    if (!client.ok()) {
      broken = true;
      return;
    }
    while (!broken) {
      const double t = now();
      if ((t - start >= seconds && finished >= min_jobs) || t >= limit) break;
      const std::size_t index = next++;
      if (index >= plans.size()) break;
      JobOutcome o = submit_and_wait(client, plans[index], index, spans);
      if (o.io_failed) broken = true;
      ++finished;
      std::lock_guard<std::mutex> lock(mutex);
      mix.outcomes.push_back(std::move(o));
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kMixClients; ++i) clients.emplace_back(client_loop);
  for (std::thread& t : clients) t.join();
  mix.wall = now() - start;
  std::sort(mix.outcomes.begin(), mix.outcomes.end(),
            [](const JobOutcome& a, const JobOutcome& b) { return a.plan < b.plan; });
  return mix;
}

// Output checks of a mix: every job, plus a seeded sample re-run solo.
void check_mix(const std::vector<JobPlan>& plans, const MixResult& mix, std::uint64_t seed,
               Checks& checks) {
  SplitMix rng(seed);
  std::vector<std::size_t> solo;
  for (std::size_t k = 0; k < kMixSolo && !mix.outcomes.empty(); ++k) {
    solo.push_back(rng.below(mix.outcomes.size()));
  }
  std::map<std::string, SceneRef> scenes;
  for (std::size_t i = 0; i < mix.outcomes.size(); ++i) {
    const JobOutcome& o = mix.outcomes[i];
    const JobPlan& plan = plans[o.plan];
    RunResult loaded;
    std::string why;
    bool ok = check_job(plan, o, loaded, why);
    if (ok && std::find(solo.begin(), solo.end(), i) != solo.end()) {
      const photon::JobSpec spec =
          photon::job_spec_from_request(photon::parse_request(plan.line));
      SceneRef& scene = scenes[spec.scene];
      if (!scene) scene = load_bundled(spec.scene, spec.config.accel);
      ok = run_backend(spec.backend, *scene, spec.config).forest == loaded.forest;
      if (!ok) why = "differs from the same RunConfig run solo";
    }
    checks.run(ok, "job " + std::to_string(o.plan) + ": " + why);
    std::error_code ec;
    std::filesystem::remove(plan.checkpoint, ec);
  }
}

MetricMap mix_metrics(const std::vector<JobPlan>& plans, const MixResult& mix) {
  std::uint64_t photons = 0;
  std::vector<double> latencies;
  for (const JobOutcome& o : mix.outcomes) {
    // A failed or refused job misses any latency limit: it counts as infinite.
    const bool done = o.state == "done" && o.emitted == plans[o.plan].photons;
    if (done) photons += o.emitted;
    latencies.push_back(done ? o.latency : std::numeric_limits<double>::infinity());
  }
  const std::optional<double> p50 = percentile(latencies, 50);
  const std::optional<double> p90 = percentile(latencies, 90);
  if (!p50 || !p90) {
    throw std::runtime_error("too few jobs for p90: " + std::to_string(latencies.size()));
  }
  return {{"photons_per_s", static_cast<double>(photons) / mix.wall},
          {"jobs_per_s", static_cast<double>(mix.outcomes.size()) / mix.wall},
          {"job_latency_p50_s", *p50},
          {"job_latency_p90_s", *p90}};
}

// What the latency tail of a mix is made of, as note lines. A small job
// queued behind a big one when its queue interval (submit to the start of
// its run, taken as answer - JobInfo::wall_s) overlaps a big job's run.
std::vector<std::string> tail_notes(const std::vector<JobPlan>& plans, const MixResult& mix) {
  std::vector<std::pair<double, double>> big_runs;
  for (const JobOutcome& o : mix.outcomes) {
    const double answered = o.submitted + o.latency;
    if (plans[o.plan].photons == kMixBigPhotons) big_runs.emplace_back(answered - o.wall_s, answered);
  }
  std::vector<double> latencies, waits;
  std::vector<int> kind;  // 0 big, 1 small behind a big job, 2 other small
  for (const JobOutcome& o : mix.outcomes) {
    const double run_start = o.submitted + o.latency - o.wall_s;
    bool behind = false;
    for (const auto& [from, to] : big_runs) behind = behind || (from < run_start && to > o.submitted);
    kind.push_back(plans[o.plan].photons == kMixBigPhotons ? 0 : behind ? 1 : 2);
    latencies.push_back(o.latency);
    waits.push_back(o.latency - o.wall_s);
  }
  const std::optional<double> p90 = percentile(latencies, 90);
  if (!p90) return {};
  const char* const names[3] = {"big", "small behind a big job", "other small"};
  int tail[3] = {0, 0, 0};
  int all[3] = {0, 0, 0};
  int at_p90 = 0;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    ++all[kind[i]];
    if (latencies[i] >= *p90) ++tail[kind[i]];
    if (latencies[i] == *p90) at_p90 = kind[i];
  }
  const auto text = [&names](const int* k) {
    return std::to_string(k[0]) + " " + names[0] + ", " + std::to_string(k[1]) + " " + names[1] +
           ", " + std::to_string(k[2]) + " " + names[2];
  };
  return {"mix jobs: " + text(all),
          "latency >= p90 (" + std::to_string(*p90) + " s): " + text(tail) + "; the p90 job is " +
              names[at_p90],
          "queue wait p50 " + std::to_string(percentile(waits, 50).value()) + " s, p90 " +
              std::to_string(percentile(waits, 90).value()) + " s"};
}

// One set-up: the pool spawn, service and daemon up until a ping is
// answered, and each resident scene loaded by a one-photon serial job (the
// protocol's only way to make a scene resident).
std::unique_ptr<Daemon> set_up_daemon(const std::string& socket_path, SpanRecorder& spans,
                                      SetupSample* sample) {
  SpanRecorder::Scope span(spans, "bench.setup");
  photon::ServiceConfig config;
  config.max_active = kMixMaxActive;
  const double t0 = now();
  const double pool_s = spawn_pool(spans);
  auto scene_s = std::make_shared<std::atomic<double>>(0.0);
  auto accel_s = std::make_shared<std::atomic<double>>(0.0);
  auto loader = [scene_s, accel_s](const std::string& name, photon::AccelKind kind) {
    const double a = now();
    auto scene = std::make_shared<Scene>(photon::scenes::by_name(name));
    const double b = now();
    scene->set_accel(kind);
    scene->build();
    scene_s->fetch_add(b - a);
    accel_s->fetch_add(now() - b);
    return SceneRef(scene);
  };
  auto daemon = std::make_unique<Daemon>(config, loader, socket_path);
  if (!daemon->wait_ready(10.0)) throw std::runtime_error("service daemon never answered ping");
  photon::ServiceClient client(daemon->socket_path());
  for (const char* name : kMixScenes) {
    JobPlan warm;
    warm.line = std::string("submit scene=") + name + " backend=serial photons=1";
    const JobOutcome o = submit_and_wait(client, warm, 0, spans);
    if (o.state != "done" || o.emitted != 1) {
      throw std::runtime_error(std::string("warm-up job on ") + name + " ended " + o.state +
                               " " + o.error);
    }
  }
  if (sample != nullptr) *sample = {now() - t0, pool_s, *scene_s, *accel_s};
  return daemon;
}

Report run_service_mix(const Options& opt) {
  Checks checks;
  SpanRecorder spans(opt.trace);
  Report& report = checks.report();
  const std::string ck_dir = opt.work_dir + "/jobs";
  std::filesystem::create_directories(ck_dir);
  const std::vector<JobPlan> plans =
      plan_mix(derive_seed(opt.seed, kMixStream), 75 * kMixBlock * kMixClients, ck_dir);

  // The fresh-process probes first, while this process has no threads: the
  // memory probe (one set-up and the first kMinSamples jobs of the mix), then
  // the timed set-ups.
  SpanRecorder off(false);
  const std::string socket_path = opt.work_dir + "/mix.sock";
  const double rss_mb = opt.trace ? 0.0 : in_fresh_process(1, [&] {
    const std::string dir = opt.work_dir + "/jobs-memory";
    std::filesystem::create_directories(dir);
    const std::unique_ptr<Daemon> daemon = set_up_daemon(socket_path, off, nullptr);
    run_mix(*daemon, plan_mix(derive_seed(opt.seed, kMixStream), kMinSamples + kMixBlock, dir), 0, 0.0,
            kMinSamples, off);
    return std::vector<double>{peak_rss_mb()};
  })[0];
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir + "/jobs-memory", ec);
  MetricMap m = fresh_setup_metrics(kMixSetups, [&] {
    SetupSample t;
    // Left running: the child exits right after, and a graceful stop would
    // wait out the daemon's 200 ms stop-flag poll.
    set_up_daemon(socket_path, off, &t).release();
    return t;
  });
  // This process's own daemon, untimed (its spans are kept).
  std::unique_ptr<Daemon> daemon = set_up_daemon(socket_path, spans, nullptr);
  // The daemon loads scenes in its executors; after set-up they are resident.
  std::vector<Case> cases;
  for (const char* name : kMixScenes) {
    Case c;
    c.scene_name = name;
    c.scene = load_bundled(name, RunConfig{}.accel);
    c.backend = "shared";
    c.config.workers = kMixMaxActive;
    c.config.photons = 20000;
    c.config.seed = derive_seed(opt.seed, kPhotonStream);
    cases.push_back(std::move(c));
  }

  double accel_bytes = 0.0;
  for (const Case& c : cases) accel_bytes += static_cast<double>(c.scene->accel().memory_bytes());
  m["geom.accel_mb"] = accel_bytes / kMiB;
  const std::uint64_t solo_seed = derive_seed(opt.seed, kMixStream + 100);

  if (!opt.trace) {
    const MixResult mix = run_mix(*daemon, plans, 0, opt.seconds, kMinSamples, off);
    check_mix(plans, mix, solo_seed, checks);
    checks.probe(daemon->service().scene_loads() == 3,
                 "scene loads " + std::to_string(daemon->service().scene_loads()) + ", not 3");
    const MetricMap e2e = mix_metrics(plans, mix);
    m.insert(e2e.begin(), e2e.end());
    m["peak_rss_mb"] = rss_mb;
    m["ok_rate"] = 1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted);
    report.notes.push_back(std::to_string(mix.outcomes.size()) + " jobs from " +
                           std::to_string(kMixClients) + " closed-loop clients, max_active=" +
                           std::to_string(kMixMaxActive));
    for (std::string& note : tail_notes(plans, mix)) report.notes.push_back(std::move(note));
    add_metrics(report, end_to_end_metrics(), m);
    return report;
  }

  const MixResult plain = run_mix(*daemon, plans, 0, opt.seconds / 2, 20, off);
  check_mix(plans, plain, solo_seed, checks);
  const MixResult traced =
      run_mix(*daemon, plans, plain.outcomes.size(), opt.seconds / 2, 20, spans);
  check_mix(plans, traced, solo_seed + 1, checks);
  const double plain_rate = mix_metrics(plans, plain)["photons_per_s"];
  const double traced_rate = mix_metrics(plans, traced)["photons_per_s"];
  m["trace.photons_per_s"] = traced_rate;
  m["trace.overhead"] = 1.0 - traced_rate / plain_rate;
  std::vector<double> waits;
  std::vector<double> runs;
  for (const JobOutcome& o : traced.outcomes) {
    waits.push_back(o.latency - o.wall_s);
    runs.push_back(o.wall_s);
  }
  m["service.queue_wait_s"] = percentile(waits, 50).value();
  m["service.run_s"] = percentile(runs, 50).value();
  m["service.rpc_us"] = median(ping_times(daemon->socket_path(), 200, spans)) * 1e6;
  m["service.scene_loads"] = static_cast<double>(daemon->service().scene_loads());
  checks.probe(daemon->service().scene_loads() == 3, "scene loads are not 3");
  m["service.jobs_refused"] = jobs_refused(daemon->service());
  daemon.reset();

  // Layer probes on the three resident scenes at the mix's parallel shape;
  // resident costs add up, per-photon and per-run figures are averaged.
  MetricMap sum;
  for (const Case& c : cases) {
    const MetricMap one = measure_case(c, derive_seed(opt.seed, kRayStream), opt.work_dir, spans,
                                       checks, report.notes);
    for (const auto& [name, value] : one) sum[name] += value / static_cast<double>(cases.size());
  }
  m.insert(sum.begin(), sum.end());

  add_self_times(spans, m, report);
  spans.write_jsonl(opt.work_dir + "/spans.jsonl");
  add_metrics(report, per_layer_metrics(), m);
  return report;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"photons_per_s", "photons/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},         {"ok_rate", "fraction"},
      {"jobs_per_s", "jobs/s"},       {"job_latency_p50_s", "s"},
      {"job_latency_p90_s", "s"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"geom.scene_s", "s"},
      {"geom.accel_build_s", "s"},
      {"geom.accel_mb", "MiB"},
      {"geom.intersect_ns", "ns"},
      {"geom.patch_tests_per_ray", "count"},
      {"geom.nodes_per_ray", "count"},
      {"sim.emit_ns", "ns"},
      {"sim.trace_ns", "ns"},
      {"sim.bounces_per_photon", "count"},
      {"sim.records", "count"},
      {"sim.checkpoint_write_s", "s"},
      {"sim.checkpoint_mb", "MiB"},
      {"sim.stage_sum_ratio", "ratio"},
      {"hist.record_ns", "ns"},
      {"hist.drain_share", "fraction"},
      {"hist.forest_mb", "MiB"},
      {"hist.forest_nodes", "count"},
      {"engine.pool.spawn_s", "s"},
      {"engine.pool.steals", "count"},
      {"engine.pool.imbalance", "ratio"},
      {"par.width1_photons_per_s", "photons/s"},
      {"par.scaling_eff", "fraction"},
      {"par.lb_imbalance", "ratio"},
      {"mp.sent_mb", "MiB"},
      {"mp.messages", "count"},
      {"service.queue_wait_s", "s"},
      {"service.run_s", "s"},
      {"service.rpc_us", "us"},
      {"service.scene_loads", "count"},
      {"service.jobs_refused", "count"},
      {"trace.photons_per_s", "photons/s"},
      {"trace.overhead", "fraction"},
      {"self.bench_s", "s"},
      {"self.geom_s", "s"},
      {"self.sim_s", "s"},
      {"self.hist_s", "s"},
      {"self.engine_s", "s"},
      {"self.service_s", "s"},
  };
  return names;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cornell-shared4", "clutter-dist4", "service-mix"};
  return names;
}

Report run_workload(const Options& opt) {
  if (opt.workload == "cornell-shared4") {
    BatchSpec spec;
    spec.scene_name = "cornell";
    spec.make_scene = [](std::uint64_t) { return photon::scenes::cornell_box(); };
    spec.backend = "shared";
    spec.photons = 200000;
    spec.setups = 241;
    spec.photon_stream_reference = true;
    return run_batch(spec, opt);
  }
  if (opt.workload == "clutter-dist4") {
    BatchSpec spec;
    spec.scene_name = "clutter";
    spec.make_scene = [](std::uint64_t seed) { return make_clutter_scene(seed); };
    spec.backend = "dist-particle";
    spec.photons = 40000;
    spec.setups = 25;
    return run_batch(spec, opt);
  }
  if (opt.workload == "service-mix") return run_service_mix(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench

// perfbench_lrb: one repetition of one Linear Road benchmark workload.
//
// Drives the engine only through its public API — lrb::Generator,
// BuildLRBApplication, SCWFDirector + QBSScheduler on a virtual clock, and
// net::IngestServer -> PushChannel -> PNCWFDirector (OS threads) on the
// real clock — and prints one JSON object of raw measurements on stdout.
// perfbench/run.py starts one process per repetition (so peak RSS belongs
// to one workload), aggregates the repetitions, checks the outputs and
// prints the benchmark result. See perfbench/README.md.
//
// Usage:
//   perfbench_lrb --workload fig5_ramp|overload|live_tcp --seed N
//                 [--trace]
//
// --trace switches on the engine's profiler and wave tracer (as
// `cwf_lrb_serve --profile` does) and adds the per-layer section.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "directors/pncwf_director.h"
#include "directors/scwf_director.h"
#include "lrb/generator.h"
#include "lrb/harness.h"
#include "lrb/types.h"
#include "lrb/workflow_builder.h"
#include "net/frame.h"
#include "net/ingest_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "stafilos/qbs_scheduler.h"
#include "stream/push_channel.h"
#include "stream/trace.h"

namespace {

using cwf::Timestamp;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_DCHECKS
#define PERFBENCH_DCHECKS 1
#endif
#ifndef PERFBENCH_LOCK_ORDER_CHECKS
#define PERFBENCH_LOCK_ORDER_CHECKS 1
#endif

// Every process sets its workload up this many times and run.py keeps the
// fastest: a set-up of a virtual workload takes about 5 ms, which one
// preemption on a shared host can double.
constexpr int kSetupReps = 20;

// live_tcp send schedule: fixed rate, connection mix and ingest sizing.
constexpr double kLiveRatePerSec = 500;
// Seconds of the schedule each process sends (its first 4000 reports). The
// engine's per-report cost grows with its window state, so longer live runs
// drift toward saturation and their latency stops being repeatable.
constexpr double kLiveSendSeconds = 8;
constexpr int kLiveLineConnections = 2;
constexpr int kLiveBinaryConnections = 2;
constexpr size_t kLiveFeedCapacity = 4096;
// Slack after the last due time for the in-flight reports to drain.
constexpr double kLiveDrainSeconds = 2;

int64_t HostNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(HostNanos() - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6);
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

cwf::lrb::GeneratorOptions WorkloadOptions(const std::string& workload,
                                           uint64_t seed) {
  cwf::lrb::GeneratorOptions options;
  options.seed = seed;
  if (workload == "fig5_ramp") {
    // Fig. 5 ramp (20 + 0.32 t reports/s) truncated to 180 s; window key
    // state grows all run while the scheduler queues stay short. The 15 s
    // accident gap injects about as many accidents as the paper's 600 s
    // run, so accident detection and the db write path do work.
    options.duration = cwf::Seconds(180);
    options.mean_accident_gap = 15;
  } else if (workload == "overload") {
    // Constant 200 reports/s, 25% above the cost model's ~160/s capacity:
    // scheduler queues and window buffers grow for the whole run. No
    // accidents (fig5_ramp covers that path), so the backlog growth is the
    // same for every seed and db does toll reads and segment upserts only.
    options.duration = cwf::Seconds(40);
    options.initial_rate = 200;
    options.rate_slope_per_sec = 0;
    options.max_rate = 200;
    options.mean_accident_gap = 1e12;
  }
  // live_tcp: the default 600 s trace; the sender replays its prefix.
  return options;
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (flat objects, numeric arrays)
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    Raw(key, s.str());
  }
  void Int(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Ints(const std::string& key, const std::vector<int64_t>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += std::to_string(v[i]);
    }
    Raw(key, out + "]");
  }
  void Nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      std::ostringstream s;
      s.precision(17);
      s << v[i];
      out += (i > 0 ? "," : "") + s.str();
    }
    Raw(key, out + "]");
  }
  void Obj(const std::string& key, const JsonObject& v) { Raw(key, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) {
      body_ += ",";
    }
    body_ += "\"" + key + "\":" + value;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Benchmark-owned instrumentation around public calls
// ---------------------------------------------------------------------------

/// Virtual clock that logs the host time at which engine time advanced, so
/// host cost can be attributed to spans of virtual time (quarters of the
/// run).
class RecordingClock : public cwf::VirtualClock {
 public:
  void AdvanceTo(Timestamp t) override {
    if (t > Now()) {
      log_.push_back({t.micros(), HostNanos()});
    }
    VirtualClock::AdvanceTo(t);
  }

  void MarkStart(int64_t host_ns) { log_.push_back({Now().micros(), host_ns}); }

  /// Host time at which engine time first reached `virtual_us` (the last
  /// logged host time if it never did).
  int64_t HostAt(int64_t virtual_us) const {
    auto it = std::lower_bound(
        log_.begin(), log_.end(), virtual_us,
        [](const Point& p, int64_t v) { return p.virtual_us < v; });
    return it == log_.end() ? log_.back().host_ns : it->host_ns;
  }

 private:
  struct Point {
    int64_t virtual_us;
    int64_t host_ns;
  };
  std::vector<Point> log_;
};

/// QBS with the scheduling decision timed and the scheduler backlog
/// sampled at every pick (traced runs only).
class TimedQBSScheduler : public cwf::QBSScheduler {
 public:
  explicit TimedQBSScheduler(bool timed) : timed_(timed) {}

  cwf::Actor* GetNextActor() override {
    if (!timed_) {
      return QBSScheduler::GetNextActor();
    }
    const int64_t t0 = HostNanos();
    cwf::Actor* actor = QBSScheduler::GetNextActor();
    pick_ns_ += HostNanos() - t0;
    ++picks_;
    queued_events_max_ = std::max(queued_events_max_, TotalQueuedEvents());
    return actor;
  }

  int64_t pick_ns() const { return pick_ns_; }
  uint64_t picks() const { return picks_; }
  size_t queued_events_max() const { return queued_events_max_; }

 private:
  bool timed_;
  int64_t pick_ns_ = 0;
  uint64_t picks_ = 0;
  size_t queued_events_max_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer figures from the engine's profiler
// ---------------------------------------------------------------------------

bool IsDbActor(const std::string& actor) {
  return actor == "TollCalculation" || actor == "AccidentNotification" ||
         actor == "InsertAccident" || actor == "Avgs" || actor == "cars";
}

struct Cell {
  uint64_t ns = 0;
  uint64_t samples = 0;
  void Add(const cwf::obs::ProfileEntry& e) {
    ns += e.self_ns;
    samples += e.samples;
  }
  double UsPer() const {
    return samples == 0 ? 0 : static_cast<double>(ns) / 1e3 / samples;
  }
};

/// Folds the profile snapshot into the per-layer metrics; returns the
/// summed self time of every cell (ns) for the coverage figure.
uint64_t AddProfileLayers(JsonObject* layers, uint64_t ingest_tuples) {
  using cwf::obs::ProfilePhase;
  const cwf::obs::ProfileSnapshot snapshot =
      cwf::obs::SnapshotProfile(cwf::obs::MetricsRegistry::Global());
  Cell put, put_avgsv, put_toll, prefire, wave_open, alloc, core_fire,
      blocked, decode, deposit;
  std::map<std::string, Cell> db_fire;
  uint64_t total_ns = 0;
  for (const cwf::obs::ProfileEntry& e : snapshot.entries) {
    total_ns += e.self_ns;
    const bool ingest = e.actor == "<ingest>";
    switch (e.phase) {
      case ProfilePhase::kReceiverPut:
        if (ingest) {
          deposit.Add(e);
        } else {
          put.Add(e);
          if (e.actor.rfind("Avgsv.", 0) == 0) {
            put_avgsv.Add(e);
          } else if (e.actor.rfind("TollCalculation.", 0) == 0) {
            put_toll.Add(e);
          }
        }
        break;
      case ProfilePhase::kSerialization:
        if (ingest) {
          decode.Add(e);
        }
        break;
      case ProfilePhase::kPrefire:
        prefire.Add(e);
        break;
      case ProfilePhase::kWaveOpen:
        wave_open.Add(e);
        break;
      case ProfilePhase::kAllocation:
        alloc.Add(e);
        break;
      case ProfilePhase::kFire:
        if (IsDbActor(e.actor)) {
          db_fire[e.actor].Add(e);
        } else {
          core_fire.Add(e);
        }
        break;
      case ProfilePhase::kBlocked:
        blocked.Add(e);
        break;
      default:
        break;
    }
  }
  layers->Num("window.put_us", put.UsPer());
  layers->Num("window.put_us.Avgsv", put_avgsv.UsPer());
  layers->Num("window.put_us.TollCalculation", put_toll.UsPer());
  layers->Num("window.prefire_us", prefire.UsPer());
  layers->Int("window.puts", static_cast<int64_t>(put.samples));
  layers->Num("core.wave_open_us", wave_open.UsPer());
  layers->Num("core.alloc_us", alloc.UsPer());
  layers->Num("core.fire_us", core_fire.UsPer());
  layers->Num("db.fire_us.TollCalculation", db_fire["TollCalculation"].UsPer());
  layers->Num("db.fire_us.AccidentNotification",
              db_fire["AccidentNotification"].UsPer());
  layers->Num("db.fire_us.InsertAccident", db_fire["InsertAccident"].UsPer());
  layers->Num("directors.blocked_us", static_cast<double>(blocked.ns) / 1e3);
  const double tuples = static_cast<double>(ingest_tuples);
  layers->Num("net.decode_us_per_tuple",
              tuples > 0 ? static_cast<double>(decode.ns) / 1e3 / tuples : 0);
  layers->Num("net.deposit_us_per_tuple",
              tuples > 0 ? static_cast<double>(deposit.ns) / 1e3 / tuples : 0);
  return total_ns;
}

// ---------------------------------------------------------------------------
// Virtual workloads: fig5_ramp, overload
// ---------------------------------------------------------------------------

// Members are destroyed in reverse order: the director before the clock
// and the workflow it runs.
struct VirtualSetup {
  cwf::lrb::GeneratorReport report;
  std::vector<Timestamp> arrivals;
  Timestamp trace_end;
  std::unique_ptr<cwf::lrb::LRBApplication> app;
  std::unique_ptr<RecordingClock> clock;
  TimedQBSScheduler* scheduler = nullptr;  // owned by the director
  std::unique_ptr<cwf::SCWFDirector> director;
  double generate_s = 0, build_s = 0, initialize_s = 0;
};

cwf::Status SetUpVirtual(const std::string& workload, uint64_t seed,
                         bool traced, const cwf::CostModel* cost_model,
                         VirtualSetup* s) {
  int64_t t = HostNanos();
  cwf::lrb::Generator generator(WorkloadOptions(workload, seed));
  cwf::Trace trace = generator.Generate();
  s->report = generator.report();
  s->generate_s = SecondsSince(t);

  t = HostNanos();
  s->arrivals.clear();
  s->arrivals.reserve(trace.size());
  for (const cwf::TraceEntry& e : trace.entries()) {
    s->arrivals.push_back(e.arrival);
  }
  s->trace_end = trace.EndTime();
  auto feed = std::make_shared<cwf::PushChannel>();
  feed->PushTrace(trace);
  feed->Close();
  CWF_ASSIGN_OR_RETURN(cwf::lrb::LRBApplication app,
                       cwf::lrb::BuildLRBApplication(feed, true));
  s->app = std::make_unique<cwf::lrb::LRBApplication>(std::move(app));
  s->build_s = SecondsSince(t);

  t = HostNanos();
  auto scheduler = std::make_unique<TimedQBSScheduler>(traced);
  cwf::lrb::ApplyLRBPriorities(scheduler.get());
  s->scheduler = scheduler.get();
  s->director = std::make_unique<cwf::SCWFDirector>(std::move(scheduler));
  s->clock = std::make_unique<RecordingClock>();
  CWF_RETURN_NOT_OK(s->director->Initialize(s->app->workflow.get(),
                                            s->clock.get(), cost_model));
  s->initialize_s = SecondsSince(t);
  return cwf::Status::OK();
}

int RunVirtual(const std::string& workload, uint64_t seed, bool traced,
               JsonObject* out) {
  const cwf::CostModel cost_model = cwf::lrb::DefaultLRBCostModel();
  std::vector<double> setup_s, generate_s, build_s, initialize_s;
  std::unique_ptr<VirtualSetup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.reset();  // tear down the previous repetition before timing
    setup = std::make_unique<VirtualSetup>();
    const int64_t t = HostNanos();
    const cwf::Status st =
        SetUpVirtual(workload, seed, traced, &cost_model, setup.get());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench_lrb: setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t));
    generate_s.push_back(setup->generate_s);
    build_s.push_back(setup->build_s);
    initialize_s.push_back(setup->initialize_s);
  }
  VirtualSetup& s = *setup;
  const size_t feed_pending = s.app->source->channel()->Pending();

  if (traced) {
    cwf::obs::SetProfilingEnabled(true);
    cwf::obs::SetTracingEnabled(true);
  }
  const Timestamp horizon = s.trace_end + cwf::Seconds(30);
  const double cpu0 = ProcessCpuSeconds();
  const int64_t run_start = HostNanos();
  s.clock->MarkStart(run_start);
  const cwf::Status run = s.director->Run(horizon);
  const cwf::Status wrapup = s.director->Wrapup();
  const int64_t run_ns = HostNanos() - run_start;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  if (!run.ok() || !wrapup.ok()) {
    std::fprintf(stderr, "perfbench_lrb: run failed: %s / %s\n",
                 run.ToString().c_str(), wrapup.ToString().c_str());
    return 1;
  }

  const cwf::lrb::LRBApplication& app = *s.app;
  JsonObject outputs;
  outputs.Int("reports_generated",
              static_cast<int64_t>(s.report.position_reports));
  outputs.Int("accidents_injected",
              static_cast<int64_t>(s.report.accidents_injected));
  outputs.Int("accidents_recorded",
              static_cast<int64_t>(app.insert_accident->accidents_recorded()));
  outputs.Int("toll_notifications",
              static_cast<int64_t>(app.toll_series->count()));
  outputs.Int("accident_notifications",
              static_cast<int64_t>(app.accident_series->count()));
  outputs.Int("tolls_calculated",
              static_cast<int64_t>(app.toll_calculator->tolls_calculated()));
  outputs.Int("total_firings", static_cast<int64_t>(s.director->total_firings()));
  outputs.Int("director_iterations",
              static_cast<int64_t>(s.director->director_iterations()));
  out->Obj("outputs", outputs);

  // Toll response on the engine clock: virtual µs.
  out->Ints("toll_engine_us", app.toll_series->ResponseMicros());
  out->Nums("setup_s", setup_s);
  out->Num("wall_s", static_cast<double>(run_ns) / 1e9);
  out->Num("cpu_s", cpu_s);
  out->Int("reports", static_cast<int64_t>(s.report.position_reports));

  if (traced) {
    JsonObject layers;
    // Host µs per report in the first and last quarter of the trace's
    // virtual span: their ratio exposes cost that grows with state or
    // backlog.
    const int64_t end_us = s.trace_end.micros();
    double quarter_us[4];
    for (int q = 0; q < 4; ++q) {
      const int64_t from = end_us * q / 4, to = end_us * (q + 1) / 4;
      const auto lo = std::lower_bound(s.arrivals.begin(), s.arrivals.end(),
                                       Timestamp(from));
      const auto hi = q == 3 ? s.arrivals.end()
                             : std::lower_bound(s.arrivals.begin(),
                                                s.arrivals.end(), Timestamp(to));
      const double reports = static_cast<double>(hi - lo);
      const double host_us =
          static_cast<double>(s.clock->HostAt(to) - s.clock->HostAt(from)) /
          1e3;
      quarter_us[q] = reports > 0 ? host_us / reports : 0;
    }
    layers.Num("directors.host_us_per_report.q1", quarter_us[0]);
    layers.Num("directors.host_us_per_report.q4", quarter_us[3]);
    layers.Num("directors.cost_growth",
               quarter_us[0] > 0 ? quarter_us[3] / quarter_us[0] : 0);
    layers.Int("directors.firings",
               static_cast<int64_t>(s.director->total_firings()));
    layers.Int("directors.iterations",
               static_cast<int64_t>(s.director->director_iterations()));
    layers.Num("stafilos.pick_us",
               s.scheduler->picks() == 0
                   ? 0
                   : static_cast<double>(s.scheduler->pick_ns()) / 1e3 /
                         static_cast<double>(s.scheduler->picks()));
    layers.Int("stafilos.picks", static_cast<int64_t>(s.scheduler->picks()));
    layers.Int("stafilos.queued_events_max",
               static_cast<int64_t>(s.scheduler->queued_events_max()));
    // The virtual feed is preloaded: its backlog is the whole trace.
    layers.Int("stream.feed_pending_max", static_cast<int64_t>(feed_pending));
    const uint64_t self_ns = AddProfileLayers(&layers, 0);
    layers.Num("obs.profile_coverage_pct",
               100.0 * static_cast<double>(self_ns) / static_cast<double>(run_ns));
    layers.Int("net.tuples", 0);
    layers.Int("net.bytes", 0);
    layers.Int("net.backpressure_pauses", 0);
    layers.Num("net.paused_ms", 0);
    layers.Int("net.parse_errors", 0);
    layers.Num("lrb.generate_s", Median(generate_s));
    layers.Num("lrb.build_s", Median(build_s));
    layers.Num("analysis.initialize_s", Median(initialize_s));
    out->Obj("layers", layers);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// live_tcp: open-loop TCP sender -> IngestServer -> PushChannel -> PNCWF
// ---------------------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

struct LiveSetup {
  cwf::Trace trace;
  std::shared_ptr<cwf::PushChannel> feed;
  std::unique_ptr<cwf::lrb::LRBApplication> app;
  std::unique_ptr<cwf::RealClock> clock;
  std::unique_ptr<cwf::PNCWFDirector> director;
  std::unique_ptr<cwf::net::IngestServer> server;
  std::vector<int> fds;
  double generate_s = 0, build_s = 0, initialize_s = 0;

  LiveSetup() = default;
  LiveSetup(const LiveSetup&) = delete;
  LiveSetup& operator=(const LiveSetup&) = delete;
  ~LiveSetup() {
    for (const int fd : fds) {
      ::close(fd);
    }
    if (server != nullptr) {
      server->Stop();
    }
  }
};

cwf::Status SetUpLive(uint64_t seed, LiveSetup* s) {
  int64_t t = HostNanos();
  cwf::lrb::Generator generator(WorkloadOptions("live_tcp", seed));
  s->trace = generator.Generate();
  s->generate_s = SecondsSince(t);

  t = HostNanos();
  s->feed = std::make_shared<cwf::PushChannel>();
  s->feed->SetCapacity(kLiveFeedCapacity);
  s->feed->SetExpectedSchema(cwf::lrb::PositionReportType(), "lrb_feed");
  CWF_ASSIGN_OR_RETURN(cwf::lrb::LRBApplication app,
                       cwf::lrb::BuildLRBApplication(s->feed));
  s->app = std::make_unique<cwf::lrb::LRBApplication>(std::move(app));
  s->build_s = SecondsSince(t);

  t = HostNanos();
  s->clock = std::make_unique<cwf::RealClock>();
  cwf::PNCWFOptions pncwf;
  pncwf.mode = cwf::PNCWFMode::kOsThreads;
  s->director = std::make_unique<cwf::PNCWFDirector>(pncwf);
  CWF_RETURN_NOT_OK(
      s->director->Initialize(s->app->workflow.get(), s->clock.get(), nullptr));
  s->initialize_s = SecondsSince(t);

  cwf::net::IngestServer::Options net;
  net.shards = 1;
  s->server = std::make_unique<cwf::net::IngestServer>(s->clock.get(), net);
  s->server->AddChannel(0, s->feed, "lrb");
  CWF_RETURN_NOT_OK(s->server->Start(0));
  for (int c = 0; c < kLiveLineConnections + kLiveBinaryConnections; ++c) {
    const int fd = ConnectLoopback(s->server->port());
    if (fd < 0) {
      return cwf::Status::Internal(std::string("connect failed: ") +
                                   std::strerror(errno));
    }
    s->fds.push_back(fd);
  }
  return cwf::Status::OK();
}

/// Toll notifications the report prefix must produce: TollCalculation
/// tolls every change of (xway, dir, seg) between a car's consecutive
/// reports. Computed from the generated reports, independently of the
/// engine.
int64_t ExpectedTolls(const cwf::Trace& trace, size_t n) {
  struct Last {
    int64_t xway, dir, seg;
  };
  std::map<int64_t, Last> last;
  int64_t tolls = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto r = cwf::lrb::PositionReport::FromToken(trace[i].token);
    auto [it, inserted] = last.try_emplace(r.car, Last{r.xway, r.dir, r.seg});
    if (!inserted) {
      if (it->second.xway != r.xway || it->second.dir != r.dir ||
          it->second.seg != r.seg) {
        ++tolls;
      }
      it->second = Last{r.xway, r.dir, r.seg};
    }
  }
  return tolls;
}

int RunLive(uint64_t seed, bool traced, JsonObject* out) {
  std::vector<double> setup_s, generate_s, build_s, initialize_s;
  std::unique_ptr<LiveSetup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // tear down the previous repetition before timing the next
    s = std::make_unique<LiveSetup>();
    const int64_t t = HostNanos();
    const cwf::Status st = SetUpLive(seed, s.get());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench_lrb: live setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t));
    generate_s.push_back(s->generate_s);
    build_s.push_back(s->build_s);
    initialize_s.push_back(s->initialize_s);
  }

  const size_t n = std::min(
      s->trace.size(), static_cast<size_t>(kLiveRatePerSec * kLiveSendSeconds));
  const int64_t expected_tolls = ExpectedTolls(s->trace, n);
  // Pre-encode the wire bytes so the sender only writes. Report i goes to
  // connection i % 4: the first two speak the line protocol, the others
  // binary frames on channel 0.
  const size_t conns = s->fds.size();
  std::vector<std::string> wire(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string body = cwf::SerializeTokenBody(s->trace[i].token);
    wire[i] = i % conns < static_cast<size_t>(kLiveLineConnections)
                  ? body + "\n"
                  : cwf::net::EncodeFrame(0, body);
  }

  if (traced) {
    cwf::obs::SetProfilingEnabled(true);
    cwf::obs::SetTracingEnabled(true);
  }
  const int64_t period_ns = static_cast<int64_t>(1e9 / kLiveRatePerSec);
  std::vector<int64_t> lag_us(n, 0);
  std::vector<double> quarter_cpu(5, 0);
  size_t pending_max = 0;
  std::atomic<bool> send_ok{true};
  cwf::net::IngestServer* server = s->server.get();
  cwf::PushChannel* feed = s->feed.get();
  const std::vector<int>& fds = s->fds;

  const double cpu0 = ProcessCpuSeconds();
  const int64_t run_start = HostNanos();
  const int64_t t0 = run_start + 10'000'000;  // first report due in 10 ms
  const Timestamp until = s->clock->Now() +
                          cwf::Seconds(kLiveSendSeconds + kLiveDrainSeconds) +
                          cwf::Millis(10);
  std::thread sender([&] {
    quarter_cpu[0] = ProcessCpuSeconds();
    size_t next_quarter = 1;
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = t0 + static_cast<int64_t>(i) * period_ns;
      int64_t now = HostNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = HostNanos();
      }
      lag_us[i] = (now - due) / 1000;
      if (!WriteAll(fds[i % conns], wire[i])) {
        send_ok = false;
        break;
      }
      pending_max = std::max(pending_max, feed->Pending());
      while (next_quarter <= 4 && (i + 1) * 4 >= n * next_quarter) {
        quarter_cpu[next_quarter++] = ProcessCpuSeconds();
      }
    }
    // Wait (bounded) for the ingest path to take every report, then stop
    // it: stopping closes the feed, so the workflow drains to the horizon.
    const int64_t give_up = HostNanos() + 5'000'000'000LL;
    while (server->tuples_received() + server->parse_errors() +
                   server->schema_rejects() <
               n &&
           HostNanos() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server->Stop();
  });
  const cwf::Status run = s->director->Run(until);
  sender.join();
  const cwf::Status wrapup = s->director->Wrapup();
  const int64_t run_ns = HostNanos() - run_start;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  if (!run.ok() || !wrapup.ok() || !send_ok) {
    std::fprintf(stderr, "perfbench_lrb: live run failed: %s / %s%s\n",
                 run.ToString().c_str(), wrapup.ToString().c_str(),
                 send_ok ? "" : " / send error");
    return 1;
  }

  const cwf::lrb::LRBApplication& app = *s->app;
  const uint64_t delivered = server->tuples_received();
  JsonObject outputs;
  outputs.Int("reports_sent", static_cast<int64_t>(n));
  outputs.Int("reports_delivered", static_cast<int64_t>(delivered));
  outputs.Int("parse_errors", static_cast<int64_t>(server->parse_errors()));
  outputs.Int("schema_rejects", static_cast<int64_t>(server->schema_rejects()));
  outputs.Int("frame_errors", static_cast<int64_t>(server->frame_errors()));
  outputs.Int("line_connections", kLiveLineConnections);
  outputs.Int("binary_connections", kLiveBinaryConnections);
  outputs.Int("expected_tolls", expected_tolls);
  outputs.Int("toll_notifications",
              static_cast<int64_t>(app.toll_series->count()));
  outputs.Int("tolls_calculated",
              static_cast<int64_t>(app.toll_calculator->tolls_calculated()));
  outputs.Int("accident_notifications",
              static_cast<int64_t>(app.accident_series->count()));
  outputs.Int("total_firings", static_cast<int64_t>(s->director->total_firings()));
  out->Obj("outputs", outputs);

  // The engine clock is the host clock here: the toll series measures
  // from the ingest stamp to the TollNotification firing.
  out->Ints("toll_engine_us", app.toll_series->ResponseMicros());
  out->Ints("send_lag_us", lag_us);

  out->Nums("setup_s", setup_s);
  out->Num("wall_s", static_cast<double>(run_ns) / 1e9);
  out->Num("cpu_s", cpu_s);
  out->Int("reports", static_cast<int64_t>(delivered));

  if (traced) {
    JsonObject layers;
    // CPU µs per report in the first and last quarter of the send schedule.
    const double per_q = static_cast<double>(n) / 4;
    const double q1 = (quarter_cpu[1] - quarter_cpu[0]) * 1e6 / per_q;
    const double q4 = (quarter_cpu[4] - quarter_cpu[3]) * 1e6 / per_q;
    layers.Num("directors.host_us_per_report.q1", q1);
    layers.Num("directors.host_us_per_report.q4", q4);
    layers.Num("directors.cost_growth", q1 > 0 ? q4 / q1 : 0);
    layers.Int("directors.firings",
               static_cast<int64_t>(s->director->total_firings()));
    layers.Int("directors.iterations", 0);
    layers.Num("stafilos.pick_us", 0);
    layers.Int("stafilos.picks", 0);
    layers.Int("stafilos.queued_events_max", 0);
    layers.Int("stream.feed_pending_max", static_cast<int64_t>(pending_max));
    const uint64_t self_ns = AddProfileLayers(&layers, delivered);
    layers.Num("obs.profile_coverage_pct",
               100.0 * static_cast<double>(self_ns) / static_cast<double>(run_ns));
    layers.Int("net.tuples", static_cast<int64_t>(delivered));
    layers.Int("net.bytes", static_cast<int64_t>(server->bytes_received()));
    layers.Int("net.backpressure_pauses",
               static_cast<int64_t>(server->backpressure_pauses()));
    layers.Num("net.paused_ms",
               static_cast<double>(server->backpressure_paused_us()) / 1e3);
    layers.Int("net.parse_errors", static_cast<int64_t>(server->parse_errors()));
    layers.Num("lrb.generate_s", Median(generate_s));
    layers.Num("lrb.build_s", Median(build_s));
    layers.Num("analysis.initialize_s", Median(initialize_s));
    out->Obj("layers", layers);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_lrb --workload fig5_ramp|overload|live_tcp "
               "--seed N [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed || (workload != "fig5_ramp" && workload != "overload" &&
                     workload != "live_tcp")) {
    return Usage();
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (PERFBENCH_DCHECKS || PERFBENCH_LOCK_ORDER_CHECKS ||
      build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench_lrb: refusing to measure a %s build with "
                 "DCHECKs=%d lock-order checks=%d; configure with "
                 "-DCMAKE_BUILD_TYPE=Release -DCONFLUENCE_DCHECKS=OFF "
                 "-DCONFLUENCE_LOCK_ORDER_CHECKS=OFF\n",
                 build_type.c_str(), PERFBENCH_DCHECKS,
                 PERFBENCH_LOCK_ORDER_CHECKS);
    return 3;
  }

  JsonObject out;
  out.Str("workload", workload);
  out.Int("seed", static_cast<int64_t>(seed));
  out.Bool("traced", traced);
  JsonObject build;
  build.Str("type", build_type);
  build.Bool("dchecks", PERFBENCH_DCHECKS);
  build.Bool("lock_order_checks", PERFBENCH_LOCK_ORDER_CHECKS);
  out.Obj("build", build);
  const int rc = workload == "live_tcp"
                     ? RunLive(seed, traced, &out)
                     : RunVirtual(workload, seed, traced, &out);
  if (rc != 0) {
    return rc;
  }
  out.Num("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

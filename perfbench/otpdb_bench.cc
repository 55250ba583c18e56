// otpdb-bench job runner: builds one workload's cluster, runs it over a fixed
// simulated span, checks the result and prints one JSON line of metrics.
// perfbench/run.py repeats jobs (one process each) and aggregates them; see
// perfbench/README.md for the workloads and what every metric means.
//
// The program is driven from the outside, through its public API only. Two
// thin forwarding layers, installed through a ReplicaFactory, observe the
// ingress path without changing it:
//   TapAbcast  - wraps the site's AtomicBroadcast and notes the MsgId the
//                broadcast assigns to each admitted request, with the
//                request's first due time;
//   TapReplica - wraps the real engine; times submit_update calls (traced
//                runs), and matches origin-site commits and answered queries
//                to their due times for the client latency samples.
//
// Usage:
//   otpdb_bench --workload NAME --seed N [--trace] [--rate R] [--setups K]
//               [--data-dir DIR] [--spans FILE]
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "abcast/opt_abcast.h"
#include "baseline/conservative_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "db/durable_store.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace otpdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads. Every value here is part of the benchmark's definition: changing
// one changes what is measured, so it is a change to the benchmark.
// ---------------------------------------------------------------------------

enum class Engine { otp, conservative };

struct Workload {
  std::string name;
  Engine engine = Engine::otp;
  bool tpcc = false;
  std::size_t sites = 4;
  std::size_t classes = 8;            // warehouses for TPC-C
  std::uint64_t objects_per_class = 32;
  double rate_per_site = 400;         // offered txn/s per site (open loop)
  SimTime mean_exec = 3 * kMillisecond;
  std::size_t span_s = 30;            // load window, simulated seconds
  bool wan = false;
  bool durable = false;
  bool sharded = false;               // site-sharded simulator instead of the classic loop
  unsigned threads = 1;               // simulator worker threads
  bool overload = false;              // admission, sender cap, deadlines, retries
  SimTime deadline_budget = 0;
  // Simulations pooled per job. The tail percentiles of rmw-lan and scale32
  // move most from seed to seed, so they pool more.
  int sims = 4;
};

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "rmw-lan") {
    w.sims = 6;
    return w;
  }
  if (name == "tpcc-wan-durable") {
    w.tpcc = true;
    w.classes = 8;
    w.objects_per_class = tpcc::Layout{}.objects_per_warehouse();
    w.rate_per_site = 120;
    w.wan = true;
    w.durable = true;
    return w;
  }
  if (name == "scale32") {
    w.sites = 32;
    w.objects_per_class = 64;
    w.rate_per_site = 50;
    w.span_s = 8;
    w.sims = 6;
    w.sharded = true;
    w.threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    return w;
  }
  if (name == "overload-conservative") {
    w.engine = Engine::conservative;
    w.objects_per_class = 64;
    w.mean_exec = 4 * kMillisecond;
    w.rate_per_site = 1000;  // 2x the 8-classes / 4 ms capacity over 4 sites
    w.overload = true;
    w.deadline_budget = 250 * kMillisecond;
    return w;
  }
  return std::nullopt;
}

ClusterConfig cluster_config(const Workload& w, std::uint64_t seed,
                             const std::filesystem::path& data_dir) {
  ClusterConfig config;
  config.n_sites = w.sites;
  config.n_classes = w.classes;
  config.objects_per_class = w.objects_per_class;
  config.seed = seed;
  if (w.wan) {
    // The wide-area timer rescale of bench/bench_common.h apply_topology():
    // without it consensus retries and false suspicions dominate (the
    // otpdb_cli --topology=wan flag sets only the topology, not these).
    config.net.topology = TopologyProfile::wan;
    config.opt.batch_delay = 10 * kMillisecond;
    config.opt.alignment_window = 8 * kMillisecond;
    config.opt.consensus.fast_wait = 150 * kMillisecond;
    config.opt.consensus.round_timeout = 500 * kMillisecond;
    config.fd.interval = 50 * kMillisecond;
    config.fd.suspect_timeout = 500 * kMillisecond;
  }
  if (w.durable) {
    config.storage.backend = StorageBackendKind::durable;  // default flush policy
    config.storage.data_dir = data_dir.string();
  }
  if (w.sharded) {
    config.parallel.threads = w.threads;
    config.parallel.force_sharded = true;  // also with one CPU
  }
  if (w.overload) {
    config.admission.enabled = true;
    config.opt.max_inflight_per_sender = 256;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Tracing: spans from this file only, kept in memory, written at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the process's time origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the main span list, -1 = root
  std::int32_t site = -1;
  MsgId txn{};                // shared by the spans of one transaction
  bool has_txn = false;
};

const Clock::time_point kOrigin = Clock::now();

std::int64_t ns_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kOrigin).count();
}

/// Per-site state of the forwarding layers. Touched only from the site's
/// own simulator shard (submissions, broadcasts, commits and query answers
/// of one site all run there), so the sharded engine needs no locking.
struct SiteTap {
  SiteId site = 0;
  SimTime deadline_budget = 0;
  SimTime load_end = 0;  // commits at or before this count towards goodput
  bool trace = false;
  std::int32_t* current_parent = nullptr;  // the running slice span

  std::unordered_map<MsgId, SimTime> due;  // admitted, not yet committed here
  std::vector<SimTime> commit_latency;     // origin commits, first due -> commit
  std::vector<SimTime> query_latency;
  std::uint64_t origin_commits = 0;
  std::uint64_t commits_in_window = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t submit_calls = 0;
  std::int64_t submit_ns = 0;
  std::vector<Span> spans;
  MsgId last_broadcast{};
};

class TapAbcast final : public AtomicBroadcast {
 public:
  TapAbcast(AtomicBroadcast& inner, SiteTap& tap) : inner_(inner), tap_(tap) {}

  MsgId broadcast(PayloadPtr payload) override {
    const auto* request = dynamic_cast<const TxnRequest*>(payload.get());
    // Retries keep the deadline of the first attempt, so deadline - budget
    // is the request's first due time; without deadlines nothing retries.
    const SimTime due = request == nullptr ? 0
                        : request->deadline != 0 ? request->deadline - tap_.deadline_budget
                                                 : request->submitted_at;
    const MsgId id = inner_.broadcast(std::move(payload));
    if (request != nullptr) tap_.due.emplace(id, due);
    tap_.last_broadcast = id;
    return id;
  }
  void set_callbacks(AbcastCallbacks callbacks) override {
    inner_.set_callbacks(std::move(callbacks));
  }
  SiteId site() const override { return inner_.site(); }
  const AbcastStats& stats() const override { return inner_.stats(); }
  bool backpressured() const override { return inner_.backpressured(); }

 private:
  AtomicBroadcast& inner_;
  SiteTap& tap_;
};

class TapReplica final : public ReplicaBase {
 public:
  TapReplica(const ReplicaDeps& deps, Engine engine, const AdmissionConfig& admission,
             SiteTap& tap)
      : tap_(tap), abcast_(deps.abcast, tap) {
    if (engine == Engine::conservative) {
      inner_ = std::make_unique<ConservativeReplica>(deps.sim, abcast_, deps.storage,
                                                     deps.catalog, deps.registry, deps.site);
    } else {
      inner_ = std::make_unique<OtpReplica>(deps.sim, abcast_, deps.storage, deps.catalog,
                                            deps.registry, deps.site);
    }
    // Cluster::build configures admission through the non-virtual
    // ReplicaBase::configure_admission, which reaches this wrapper, not the
    // engine whose ingress gate decides; hand the policy on explicitly.
    inner_->configure_admission(admission);
    inner_->set_commit_hook([this](const CommitRecord& r) { on_commit(r); });
  }

  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline) override {
    const std::int64_t start = tap_.trace ? ns_now() : 0;
    const SubmitResult r =
        inner_->submit_update(proc, klass, std::move(args), exec_duration, deadline);
    if (tap_.trace) note_submit(start, r);
    return r;
  }
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline) override {
    const std::int64_t start = tap_.trace ? ns_now() : 0;
    const SubmitResult r = inner_->submit_update_multi(proc, std::move(classes),
                                                       std::move(args), exec_duration, deadline);
    if (tap_.trace) note_submit(start, r);
    return r;
  }
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override {
    inner_->submit_query(std::move(fn), exec_duration,
                         [this, done = std::move(done)](const QueryReport& q) {
                           tap_.query_latency.push_back(q.completed_at - q.submitted_at);
                           ++tap_.queries_answered;
                           if (done) done(q);
                         });
  }
  void set_commit_hook(CommitHook hook) override { hook_ = std::move(hook); }
  std::size_t in_flight() const override { return inner_->in_flight(); }
  const ReplicaMetrics& metrics() const override { return inner_->metrics(); }
  SiteId site() const override { return inner_->site(); }

 private:
  void note_submit(std::int64_t start, SubmitResult r) {
    const std::int64_t end = ns_now();
    ++tap_.submit_calls;
    tap_.submit_ns += end - start;
    Span span{"submit_update", start, end, *tap_.current_parent,
              static_cast<std::int32_t>(tap_.site)};
    if (r == SubmitResult::admitted) {
      span.txn = tap_.last_broadcast;
      span.has_txn = true;
    }
    tap_.spans.push_back(span);
  }

  void on_commit(const CommitRecord& r) {
    const std::int64_t start = tap_.trace ? ns_now() : 0;
    if (r.txn.sender == tap_.site) {
      const auto it = tap_.due.find(r.txn);
      OTPDB_CHECK_MSG(it != tap_.due.end(), "origin commit of a request never broadcast");
      tap_.commit_latency.push_back(r.at - it->second);
      tap_.due.erase(it);
      ++tap_.origin_commits;
      if (r.at <= tap_.load_end) ++tap_.commits_in_window;
    }
    if (hook_) hook_(r);
    if (tap_.trace && r.txn.sender == tap_.site) {
      tap_.spans.push_back(Span{"origin_commit", start, ns_now(), *tap_.current_parent,
                                static_cast<std::int32_t>(tap_.site), r.txn, true});
    }
  }

  SiteTap& tap_;
  TapAbcast abcast_;  // declared before inner_: the engine holds a reference
  std::unique_ptr<ReplicaBase> inner_;
  CommitHook hook_;
};

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

/// Ordered "key": value pairs rendered as one JSON object.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.10g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Host speed. On a shared host the same work runs a quarter faster or slower
// from one minute to the next as neighbours come and go. A small fixed kernel
// that shares no code with otpdb is timed before and after every timed span
// (the set-up burst, each one-second slice, the drain); each span's wall
// time is scaled by kReferenceMs over the mean of the two kernel times, so
// the wall-clock metrics read as on a host where the kernel takes
// kReferenceMs and a 4 KiB write + fsync takes kReferenceFsyncMs (about
// their times on a 4-vCPU Xeon VM with a virtio disk). Raw values are
// reported beside them.
// ---------------------------------------------------------------------------

constexpr double kReferenceMs = 1.0;
constexpr double kReferenceFsyncMs = 0.05;

/// Binary-heap churn and hash-map updates: the access pattern of a
/// discrete-event simulator, on a working set that fits in L2.
double kernel_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL, sink = 0;
  std::vector<std::uint64_t> heap;
  heap.reserve(4096);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() >= 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sink += heap.back();
      heap.pop_back();
    }
    map[x & 0xFFFF] += i;
  }
  const double ms = ms_between(t0, Clock::now());
  // Keep the loop observable so it cannot be optimised away.
  return sink + map.size() == 0 ? ms + 1 : ms;
}

/// The kernel's time now. The first run refills the caches the simulation
/// evicted; the second is timed, so the sample does not depend on how much
/// the simulation itself touched. With several threads (the sharded engine's
/// worker count) the kernel runs on all of them at once and the slowest
/// counts, as the engine waits for its slowest worker at every round.
double host_sample_ms(unsigned threads) {
  auto sample = [] {
    kernel_ms();
    return kernel_ms();
  };
  if (threads <= 1) return sample();
  std::vector<double> ms(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&ms, t, &sample] { ms[t] = sample(); });
  }
  for (std::thread& worker : workers) worker.join();
  return *std::max_element(ms.begin(), ms.end());
}

/// One 4 KiB write + fsync on `fd`, median of three: the disk's speed now.
double fsync_sample_ms(int fd) {
  static const std::vector<char> page(4096, 'p');
  double runs[3];
  for (double& ms : runs) {
    const auto t0 = Clock::now();
    OTPDB_CHECK(::pwrite(fd, page.data(), page.size(), 0) == static_cast<ssize_t>(page.size()));
    OTPDB_CHECK(::fsync(fd) == 0);
    ms = ms_between(t0, Clock::now());
  }
  std::sort(runs, runs + 3);
  return runs[1];
}

double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Host speed across consecutive timed spans: each scale() call samples the
/// host and scales the span timed since the previous call by the reference
/// time over the mean of the two samples. With a disk probe (durable
/// workloads, whose wall time is largely fsync waits) the span's time on the
/// CPU is scaled by the kernel and its time off the CPU by an fsync probe in
/// the data directory.
class HostClock {
 public:
  HostClock(unsigned threads, const std::filesystem::path& probe_dir = {})
      : threads_(threads), last_cpu_(host_sample_ms(threads)) {
    if (!probe_dir.empty()) {
      probe_ = probe_dir / ("host-probe-" + std::to_string(::getpid()));
      fd_ = ::open(probe_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      OTPDB_CHECK_MSG(fd_ >= 0, "cannot create the disk probe file");
      last_io_ = fsync_sample_ms(fd_);
    }
    cpu_at_ = process_cpu_ms();
  }
  ~HostClock() {
    if (fd_ >= 0) {
      ::close(fd_);
      std::error_code ec;
      std::filesystem::remove(probe_, ec);
    }
  }
  HostClock(const HostClock&) = delete;
  HostClock& operator=(const HostClock&) = delete;

  /// `wall_ms`: the span just timed. Returns it at the reference speed.
  double scale(double wall_ms) {
    const double on_cpu = process_cpu_ms() - cpu_at_;
    const double next_cpu = host_sample_ms(threads_);
    const double cpu_factor = kReferenceMs / ((last_cpu_ + next_cpu) / 2);
    last_cpu_ = next_cpu;
    samples_.push_back(next_cpu);
    double scaled = wall_ms * cpu_factor;
    if (fd_ >= 0) {
      const double next_io = fsync_sample_ms(fd_);
      const double io_factor = kReferenceFsyncMs / ((last_io_ + next_io) / 2);
      last_io_ = next_io;
      const double cpu_part = std::min(on_cpu, wall_ms);
      scaled = cpu_part * cpu_factor + (wall_ms - cpu_part) * io_factor;
    }
    cpu_at_ = process_cpu_ms();
    return scaled;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  unsigned threads_;
  double last_cpu_;
  double last_io_ = 0;
  double cpu_at_ = 0;
  std::filesystem::path probe_;
  int fd_ = -1;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// One simulation: setup, run, drain, check.
// ---------------------------------------------------------------------------

/// Main-thread spans (setup, run_for slices, quiesce, check); per-site spans
/// are gathered from the taps after each simulation.
struct Tracer {
  bool on = false;
  std::vector<Span> spans;
  std::vector<std::string> extra;  // per span: extra JSON fields, or empty
  std::int32_t current = -1;       // parent for per-site spans

  std::int32_t open(const char* name, std::int32_t parent) {
    if (!on) return -1;
    spans.push_back(Span{name, ns_now(), 0, parent});
    extra.emplace_back();
    return static_cast<std::int32_t>(spans.size() - 1);
  }
  void close(std::int32_t id) {
    if (id >= 0) spans[id].end_ns = ns_now();
  }
};

struct Job {
  std::vector<std::unique_ptr<SiteTap>> taps;  // outlive the cluster's replicas
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<HistoryRecorder> history;
  std::unique_ptr<WorkloadDriver> rmw;
  std::unique_ptr<tpcc::TpccDriver> tpcc;
  std::filesystem::path data_dir;

  ~Job() {
    tpcc.reset();
    rmw.reset();
    history.reset();
    cluster.reset();  // closes the WAL files before the directory goes
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }
};

std::unique_ptr<Job> setup_job(const Workload& w, std::uint64_t seed, Tracer& tracer,
                               const std::filesystem::path& data_dir) {
  auto job = std::make_unique<Job>();
  job->data_dir = data_dir;
  for (std::size_t s = 0; s < w.sites; ++s) {
    auto tap = std::make_unique<SiteTap>();
    tap->site = static_cast<SiteId>(s);
    tap->deadline_budget = w.deadline_budget;
    tap->load_end = static_cast<SimTime>(w.span_s) * kSecond;
    tap->trace = tracer.on;
    tap->current_parent = &tracer.current;
    job->taps.push_back(std::move(tap));
  }
  const ClusterConfig config = cluster_config(w, seed, data_dir);
  job->cluster = std::make_unique<Cluster>(
      config, [&job, engine = w.engine, admission = config.admission](const ReplicaDeps& d) {
        return std::make_unique<TapReplica>(d, engine, admission, *job->taps[d.site]);
      });
  job->history = std::make_unique<HistoryRecorder>(*job->cluster);
  const std::uint64_t driver_seed = seed * 0x9E3779B97F4A7C15ULL + 0x5EED;
  if (w.tpcc) {
    tpcc::MixConfig mix;
    mix.txn_per_second_per_site = w.rate_per_site;
    mix.mean_exec_time = w.mean_exec;
    mix.duration = static_cast<SimTime>(w.span_s) * kSecond;
    mix.remote_txn_fraction = 0.1;
    job->tpcc = std::make_unique<tpcc::TpccDriver>(*job->cluster, tpcc::Layout{}, mix,
                                                   driver_seed);
    job->tpcc->start();
  } else {
    WorkloadConfig wl;
    wl.updates_per_second_per_site = w.rate_per_site;
    wl.mean_exec_time = w.mean_exec;
    wl.duration = static_cast<SimTime>(w.span_s) * kSecond;
    if (w.overload) {
      wl.deadline_budget = w.deadline_budget;
      wl.max_retries = 8;
    }
    job->rmw = std::make_unique<WorkloadDriver>(*job->cluster, wl, driver_seed);
    job->rmw->start();
  }
  return job;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Last quarter of `series` over its first quarter after the warm-up entry.
double quarter_growth(const std::vector<double>& series) {
  if (series.size() < 5) return 0.0;
  const std::size_t q = (series.size() - 1) / 4;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += series[1 + i];
    last += series[series.size() - 1 - i];
  }
  return ratio(last, first);
}

/// What one simulation produced. Latencies are in simulated nanoseconds.
struct SimOutcome {
  std::vector<std::string> violations;
  std::vector<SimTime> commit_latency;  // origin commits, first due -> commit
  std::vector<SimTime> query_latency;
  PercentileTracker reported;  // ReplicaMetrics' own latency samples
  std::uint64_t generated = 0, done = 0, refused = 0, lost = 0, in_window = 0;
  double load_s = 0, sim_s = 0, backlog_growth = 0;
  std::vector<double> setup_ms, slice_ms;  // raw wall
  std::vector<double> setup_norm_ms;        // scaled to the reference host
  double run_ms = 0, drain_ms = 0;          // raw wall
  double wall_norm_ms = 0;                  // run + drain, scaled
  double reference_ms = 0;                  // median host sample
  std::vector<std::pair<const char*, double>> layers;
};

SimOutcome simulate(const Workload& w, std::uint64_t seed, int setups,
                    const std::filesystem::path& data_root, Tracer& tracer) {
  SimOutcome out;
  const std::int32_t root = tracer.open("simulation", -1);
  if (root >= 0) tracer.extra[root] = "\"seed\":" + std::to_string(seed);

  // Setup is repeated and the median reported: one construction takes well
  // under a millisecond on most workloads, so a single sample is mostly
  // noise. Every setup but the last is torn down again; the last one runs.
  HostClock setup_host(1);  // set-up runs on this thread alone
  std::unique_ptr<Job> job;
  for (int i = 0; i < setups; ++i) {
    job.reset();
    const std::filesystem::path dir =
        w.durable ? data_root / ("job-" + std::to_string(::getpid()) + "-" +
                                 std::to_string(seed) + "-" + std::to_string(i))
                  : std::filesystem::path{};
    const std::int32_t span = tracer.open("setup", root);
    const auto t0 = Clock::now();
    job = setup_job(w, seed, tracer, dir);
    out.setup_ms.push_back(ms_between(t0, Clock::now()));
    tracer.close(span);
  }
  // Every set-up is scaled as its share of the whole burst.
  double burst_ms = 0;
  for (double ms : out.setup_ms) burst_ms += ms;
  const double setup_factor = setup_host.scale(burst_ms) / burst_ms;
  for (double ms : out.setup_ms) out.setup_norm_ms.push_back(ms * setup_factor);
  HostClock host(w.threads, w.durable ? data_root : std::filesystem::path{});
  Cluster& cluster = *job->cluster;
  const std::size_t n = w.sites;
  auto executed_events = [&] {
    return cluster.engine() ? cluster.engine()->executed() : cluster.sim().executed();
  };
  auto in_flight = [&] {
    std::uint64_t total = 0;
    for (SiteId s = 0; s < n; ++s) total += cluster.replica(s).in_flight();
    return total;
  };

  // Run: the load window in one-simulated-second slices, then the drain.
  std::vector<double> slice_in_flight;
  for (std::size_t i = 0; i < w.span_s; ++i) {
    tracer.current = tracer.open("run_for", root);
    const auto t0 = Clock::now();
    cluster.run_for(kSecond);
    out.slice_ms.push_back(ms_between(t0, Clock::now()));
    slice_in_flight.push_back(static_cast<double>(in_flight()));
    tracer.close(tracer.current);
    if (tracer.on) {
      JsonObject counters;
      counters.integer("events", executed_events())
          .integer("deliveries", cluster.net().delivered_count())
          .integer("site_commits", cluster.total_committed())
          .integer("in_flight", static_cast<std::uint64_t>(slice_in_flight.back()));
      tracer.extra[tracer.current] = "\"counters\":" + counters.dump();
    }
    out.wall_norm_ms += host.scale(out.slice_ms.back());
  }
  tracer.current = tracer.open("quiesce", root);
  const auto drain_t0 = Clock::now();
  const bool drained = cluster.quiesce(600 * kSecond);
  out.drain_ms = ms_between(drain_t0, Clock::now());
  tracer.close(tracer.current);
  tracer.current = -1;
  out.wall_norm_ms += host.scale(out.drain_ms);
  std::vector<double> samples = host.samples();
  std::sort(samples.begin(), samples.end());
  out.reference_ms = samples[samples.size() / 2];
  out.load_s = static_cast<double>(w.span_s);
  out.sim_s = static_cast<double>(cluster.sim().now()) / 1e9;
  for (double v : out.slice_ms) out.run_ms += v;
  out.backlog_growth = quarter_growth(slice_in_flight);

  // Checks: drain, 1-copy serializability, TPC-C audit, accounting.
  auto& violations = out.violations;
  const std::int32_t check_span = tracer.open("check", root);
  const auto check_t0 = Clock::now();
  if (!drained) violations.push_back("drain: cluster did not quiesce");
  const auto& logs = job->history->site_logs();
  const CheckResult csr = check_one_copy_serializability(logs);
  if (!csr.ok()) violations.push_back("1csr: " + csr.summary());
  for (std::size_t s = 1; s < logs.size(); ++s) {
    if (logs[s].size() != logs[0].size()) {
      violations.push_back("1csr: sites committed different transaction counts");
      break;
    }
  }
  if (job->tpcc) {
    for (SiteId s = 0; s < n; ++s) {
      for (const std::string& v : job->tpcc->audit(s)) {
        violations.push_back("audit site " + std::to_string(s) + ": " + v);
      }
    }
  }
  const double checker_ms = ms_between(check_t0, Clock::now());
  tracer.close(check_span);

  // Client-side accounting. Every generated operation ends in exactly one
  // outcome: committed, answered, refused for good (gave up after retries),
  // expired before admission, or dropped by the queue-head deadline.
  std::uint64_t gen_updates = 0, gen_queries = 0, gave_up = 0, expired_pre = 0, retries = 0;
  if (job->tpcc) {
    const tpcc::MixStats st = job->tpcc->stats();
    gen_updates = st.new_orders + st.payments + st.deliveries;
    gen_queries = st.stock_level_queries;
    gave_up = st.gave_up;
    expired_pre = st.expired_presubmit;
    retries = st.retries;
  } else {
    gen_updates = job->rmw->updates_submitted();
    gen_queries = job->rmw->queries_submitted();
    gave_up = job->rmw->gave_up();
    expired_pre = job->rmw->expired_presubmit();
    retries = job->rmw->retries();
  }
  std::uint64_t origin_commits = 0, answered = 0, admitted = 0, shed = 0, backpressured = 0,
                queue_drops = 0, site_commits = 0, reexec = 0, reorders = 0, queries_done = 0,
                query_retries = 0, submit_calls = 0;
  std::int64_t submit_ns = 0;
  OnlineStats commit_wait;
  for (SiteId s = 0; s < n; ++s) {
    SiteTap& tap = *job->taps[s];
    origin_commits += tap.origin_commits;
    out.in_window += tap.commits_in_window;
    answered += tap.queries_answered;
    submit_calls += tap.submit_calls;
    submit_ns += tap.submit_ns;
    out.commit_latency.insert(out.commit_latency.end(), tap.commit_latency.begin(),
                              tap.commit_latency.end());
    out.query_latency.insert(out.query_latency.end(), tap.query_latency.begin(),
                             tap.query_latency.end());
    tracer.spans.insert(tracer.spans.end(), tap.spans.begin(), tap.spans.end());
    tracer.extra.resize(tracer.spans.size());
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    admitted += m.admitted_updates;
    shed += m.shed_updates;
    backpressured += m.backpressured_updates;
    // Decided from the definitive order: every site counts the same drops.
    queue_drops = std::max(queue_drops, m.deadline_expired_queue);
    site_commits += m.committed;
    reexec += m.reexecutions;
    reorders += m.mismatch_reorders;
    queries_done += m.queries_done;
    query_retries += m.query_retries;
    out.reported.merge(m.commit_latency_percentiles_ns);
    commit_wait.merge(m.commit_wait_ns);
  }
  out.generated = gen_updates + gen_queries;
  out.done = origin_commits + answered;
  out.refused = gave_up + expired_pre + queue_drops;
  // Operations with no outcome at all: lost work, never expected.
  out.lost = out.generated > out.done + out.refused ? out.generated - out.done - out.refused : 0;
  if (out.done + out.refused != out.generated) {
    violations.push_back("accounting: generated " + std::to_string(out.generated) +
                         " != done " + std::to_string(out.done) + " + refused " +
                         std::to_string(out.refused));
  }
  if (admitted != origin_commits + queue_drops) {
    violations.push_back("accounting: admitted " + std::to_string(admitted) +
                         " != origin commits + queue drops " +
                         std::to_string(origin_commits + queue_drops));
  }

  // Per-layer counters. Every abcast figure comes from consensus_stats()
  // and the live AbcastStats fields: AbcastStats::fast_batches/slow_batches
  // are never incremented by the broadcast and would read 0.
  ConsensusStats cons;
  std::uint64_t to_delivered = 0;
  std::int64_t gap_ns = 0;
  for (SiteId s = 0; s < n; ++s) {
    const auto* ab = dynamic_cast<const OptAbcast*>(&cluster.abcast(s));
    if (ab == nullptr) continue;
    const ConsensusStats& c = ab->consensus_stats();
    cons.instances_decided += c.instances_decided;
    cons.fast_decides += c.fast_decides;
    cons.rounds_started += c.rounds_started;
    to_delivered += ab->stats().to_delivered;
    gap_ns += ab->stats().opt_to_gap_total_ns;
  }
  std::uint64_t fsyncs = 0, wal_commits = 0, wal_bytes = 0, ckpt_bytes = 0, versions = 0;
  for (SiteId s = 0; s < n; ++s) {
    if (const WalStats* ws = cluster.wal_stats(s)) {
      fsyncs += ws->fsyncs;
      wal_commits += ws->commits_logged;
      wal_bytes += ws->wal_bytes;
      std::error_code ec;
      const auto size = std::filesystem::file_size(
          job->data_dir / ("site-" + std::to_string(s)) / "checkpoint.bin", ec);
      if (!ec) ckpt_bytes += size;
    }
    versions += cluster.store(s).total_versions();
  }
  const EngineStats engine = cluster.engine() ? cluster.engine()->stats() : EngineStats{};
  const double sites = static_cast<double>(n);
  const double distinct = static_cast<double>(origin_commits);
  const double commits = static_cast<double>(site_commits);
  const double instances = static_cast<double>(cons.instances_decided);
  const double delivered = static_cast<double>(to_delivered);
  out.layers = {
      {"sim.run_wall_ms", out.run_ms},
      {"sim.events_per_commit", ratio(static_cast<double>(executed_events()), commits)},
      {"sim.slice_growth", quarter_growth(out.slice_ms)},
      {"sim.rounds_per_sim_s", static_cast<double>(engine.rounds) / out.sim_s},
      {"sim.active_site_frac", ratio(static_cast<double>(engine.site_activations),
                                     static_cast<double>(engine.rounds) * sites)},
      {"net.deliveries_per_commit",
       ratio(static_cast<double>(cluster.net().delivered_count()), distinct)},
      {"abcast.fast_path_frac", ratio(static_cast<double>(cons.fast_decides), instances)},
      {"abcast.rounds_per_instance", ratio(static_cast<double>(cons.rounds_started), instances)},
      {"abcast.msgs_per_instance", ratio(delivered, instances)},
      {"abcast.opt_to_gap_ms", ratio(static_cast<double>(gap_ns), delivered) / 1e6},
      {"abcast.suspicions", static_cast<double>(cluster.fd_stats().suspicions)},
      {"core.submit_ns", ratio(static_cast<double>(submit_ns), static_cast<double>(submit_calls))},
      {"core.commit_wait_ms", commit_wait.mean() / 1e6},
      {"core.useful_exec_frac", ratio(commits, commits + static_cast<double>(reexec))},
      {"core.reorders_per_kcommit", ratio(1000.0 * static_cast<double>(reorders), commits)},
      {"core.shed_frac", ratio(static_cast<double>(shed + backpressured),
                               static_cast<double>(admitted + shed + backpressured))},
      {"core.deadline_drops", static_cast<double>(queue_drops)},
      {"query.retries_per_query",
       ratio(static_cast<double>(query_retries), static_cast<double>(queries_done))},
      {"db.commits_per_fsync",
       ratio(static_cast<double>(wal_commits), static_cast<double>(fsyncs))},
      {"db.wal_bytes_per_commit",
       ratio(static_cast<double>(wal_bytes), static_cast<double>(wal_commits))},
      {"db.checkpoint_kib", static_cast<double>(ckpt_bytes) / 1024.0 / sites},
      {"db.live_versions", static_cast<double>(versions) / sites},
      {"checker.wall_ms", checker_ms},
      {"workload.retries_per_update",
       ratio(static_cast<double>(retries), static_cast<double>(gen_updates))},
  };
  tracer.close(root);
  return out;
}

// ---------------------------------------------------------------------------
// The job: several simulations on seeds derived from --seed, pooled.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile over sorted samples - the same definition as
/// PercentileTracker, so the cross-check against ReplicaMetrics can demand
/// exact equality while the numbers stay this benchmark's own.
double nearest_rank(const std::vector<SimTime>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[rank == 0 ? 0 : rank - 1]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double rate = 0;  // 0 = the workload's own rate
  int sims = 0;  // 0 = the workload's own count
  int setups = 5;
  std::filesystem::path data_dir = ".bench_build/data";
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--rate" && has_value) {
      a.rate = std::strtod(argv[++i], nullptr);
    } else if (flag == "--sims" && has_value) {
      a.sims = std::max(0, std::atoi(argv[++i]));
    } else if (flag == "--setups" && has_value) {
      a.setups = std::max(1, std::atoi(argv[++i]));
    } else if (flag == "--data-dir" && has_value) {
      a.data_dir = argv[++i];
    } else if (flag == "--spans" && has_value) {
      a.spans = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
    const Span& s = tracer.spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent;
    if (s.site >= 0) out << ",\"site\":" << s.site;
    if (s.has_txn) out << ",\"txn\":\"" << s.txn.sender << ":" << s.txn.seq << "\"";
    if (!tracer.extra[i].empty()) out << "," << tracer.extra[i];
    out << "}\n";
  }
}

int run(const Args& args) {
  std::optional<Workload> maybe = make_workload(args.workload);
  if (!maybe) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload w = *maybe;
  if (args.rate > 0) w.rate_per_site = args.rate;
  if (args.sims > 0) w.sims = args.sims;
  Tracer tracer;
  tracer.on = args.trace;

  // Simulation k runs on seed * 1000 + k: one seed's tail percentiles move
  // by ~10% from seed to seed, pooling several simulations steadies them
  // while keeping every number a pure function of --seed.
  std::vector<SimOutcome> sims;
  for (int k = 0; k < w.sims; ++k) {
    sims.push_back(simulate(w, args.seed * 1000 + static_cast<std::uint64_t>(k), args.setups,
                            args.data_dir, tracer));
    // Hand the finished simulation's heap back, so peak_rss_mb is the
    // footprint of one simulation rather than of allocator leftovers.
    ::malloc_trim(0);
  }

  std::vector<SimTime> lat, qlat;
  PercentileTracker reported;
  std::vector<std::string> violations;
  std::vector<double> setup_ms, raw_setup_ms, slices_ms, wall, raw_wall, reference;
  std::uint64_t generated = 0, done = 0, refused = 0, lost = 0, in_window = 0;
  double load_s = 0, sim_s = 0, run_ms = 0, drain_ms = 0, backlog_growth = 0;
  for (const SimOutcome& o : sims) {
    raw_setup_ms.insert(raw_setup_ms.end(), o.setup_ms.begin(), o.setup_ms.end());
    setup_ms.insert(setup_ms.end(), o.setup_norm_ms.begin(), o.setup_norm_ms.end());
    raw_wall.push_back((o.run_ms + o.drain_ms) / o.sim_s);
    wall.push_back(o.wall_norm_ms / o.sim_s);
    reference.push_back(o.reference_ms);
    lat.insert(lat.end(), o.commit_latency.begin(), o.commit_latency.end());
    qlat.insert(qlat.end(), o.query_latency.begin(), o.query_latency.end());
    reported.merge(o.reported);
    violations.insert(violations.end(), o.violations.begin(), o.violations.end());
    slices_ms.insert(slices_ms.end(), o.slice_ms.begin(), o.slice_ms.end());
    generated += o.generated;
    done += o.done;
    refused += o.refused;
    lost += o.lost;
    in_window += o.in_window;
    load_s += o.load_s;
    sim_s += o.sim_s;
    run_ms += o.run_ms;
    drain_ms += o.drain_ms;
    backlog_growth = std::max(backlog_growth, o.backlog_growth);
  }
  std::sort(lat.begin(), lat.end());
  std::sort(qlat.begin(), qlat.end());

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  JsonObject sim;  // simulated clock: a pure function of the seed
  sim.num("commit_p50_ms", nearest_rank(lat, 50.0) / 1e6)
      .num("commit_p99_ms", nearest_rank(lat, 99.0) / 1e6)
      .num("commit_p999_ms", nearest_rank(lat, 99.9) / 1e6)
      .integer("commit_samples", lat.size())
      .num("goodput_tps", static_cast<double>(in_window) / load_s)
      .num("failed_frac", ratio(static_cast<double>(generated - done),
                                static_cast<double>(generated)))
      .num("query_p99_ms", nearest_rank(qlat, 99.0) / 1e6)
      .integer("query_samples", qlat.size())
      .integer("generated", generated)
      .integer("done", done)
      .integer("refused", refused)
      .integer("lost", lost)
      .num("backlog_growth", backlog_growth)
      .num("sim_s", sim_s);

  // Wall clock: what the experimenter pays. Per simulation (per set-up for
  // the set-up times), scaled to the reference host speed, and raw.
  JsonObject host;
  host.raw("wall_ms_per_sim_s", json_array(wall))
      .raw("raw_wall_ms_per_sim_s", json_array(raw_wall))
      .raw("setup_ms", json_array(setup_ms))
      .raw("raw_setup_ms", json_array(raw_setup_ms))
      .raw("reference_ms", json_array(reference))
      .num("run_ms", run_ms)
      .num("drain_ms", drain_ms)
      .num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0)
      .raw("slices_ms", json_array(slices_ms));

  // Per-layer metrics: the mean over the simulations.
  JsonObject layers;
  for (std::size_t i = 0; i < sims.front().layers.size(); ++i) {
    double sum = 0;
    for (const SimOutcome& o : sims) sum += o.layers[i].second;
    layers.num(sims.front().layers[i].first, sum / static_cast<double>(sims.size()));
  }

  // Cross-check of this benchmark's own latency against ReplicaMetrics,
  // which starts the clock at the admitted attempt instead of the first due
  // time - equal wherever no request is ever refused and retried.
  JsonObject xcheck;
  xcheck.boolean("equal", reported.count() == lat.size() &&
                              reported.percentile(50.0) == nearest_rank(lat, 50.0) &&
                              reported.percentile(99.0) == nearest_rank(lat, 99.0))
      .integer("replica_count", reported.count())
      .num("replica_p50_ms", reported.percentile(50.0) / 1e6)
      .num("replica_p99_ms", reported.percentile(99.0) / 1e6);

  std::string violation_list = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    violation_list += (i ? "," : "") + json_string(violations[i]);
  }
  violation_list += "]";

  if (tracer.on && !args.spans.empty()) write_spans(args.spans, tracer);

  JsonObject out;
  out.str("workload", w.name)
      .integer("seed", args.seed)
      .integer("sims", sims.size())
      .num("rate_per_site", w.rate_per_site)
      .boolean("trace", tracer.on)
      .boolean("ok", violations.empty())
      .raw("violations", violation_list)
      .raw("sim", sim.dump())
      .raw("wall", host.dump())
      .raw("layers", layers.dump())
      .raw("xcheck", xcheck.dump());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace otpdb::perfbench

int main(int argc, char** argv) {
  otpdb::perfbench::Args args;
  if (!otpdb::perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: otpdb_bench --workload NAME --seed N [--trace] [--rate R] [--sims K]\n"
                 "                   [--setups K] [--data-dir DIR] [--spans FILE]\n");
    return 2;
  }
  return otpdb::perfbench::run(args);
}

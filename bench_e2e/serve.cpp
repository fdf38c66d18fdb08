// Serve workloads (serve-burst-dup, serve-open-unique).
//
// One process drives an in-process SolveServer: 3 workers, the GPU chain,
// coalescing and the shared probe cache on, every request solved with
// num_threads = 1. The calling thread generates the load and also collects
// responses, polling every future at least every kPoll; a request's latency
// runs from when it was due (the burst's resume, or its scheduled send) to
// when its response was seen.
//
// A traced run reads the server's own serve/solve spans (and the spans
// nested in them) through an obs::ObsSession, and splits each request's
// latency into queue wait, service and delivery. After every run a sample
// of served requests is replayed through gpu::solve_gpu_ptas on a fresh
// device: the answer must be bit-identical and satisfy the certificate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/bounds.hpp"
#include "core/resilient.hpp"
#include "e2e.hpp"
#include "gpu/gpu_ptas.hpp"
#include "gpusim/device.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "timed.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace pcmax::bench {

namespace {

constexpr int kWorkers = 3;
constexpr double kEpsilon = 0.3;
constexpr auto kPoll = std::chrono::microseconds(250);
// Every window runs on a fresh server: SolveServer's devices keep a record
// of every simulated kernel they ran, so a server's memory grows with the
// requests it has answered (README.md, "Why the inputs look like this").
constexpr std::size_t kBurstUnique = 75;
constexpr std::size_t kBurstDuplicates = 25;
constexpr std::size_t kOpenWindow = 100;
/// Open-loop arrival rate: about 0.4 of the three workers' unique-solve
/// capacity on 4 cores when it was chosen; frozen so runs compare across
/// commits.
constexpr double kOpenRate = 100.0;
constexpr std::size_t kOpenQueue = 64;
/// The load generator's lateness p99 above which a run is invalid.
constexpr double kMaxLateMs = 5.0;
constexpr std::size_t kReplays = 20;
constexpr std::size_t kQualityWindows = 8;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ResilientOptions request_options() {
  ResilientOptions options;
  options.epsilon = kEpsilon;
  options.num_threads = 1;  // the workers are the parallelism axis
  return options;
}

serve::ServeOptions server_options(std::size_t queue_capacity, bool paused) {
  serve::ServeOptions options;
  options.workers = kWorkers;
  options.queue_capacity = queue_capacity;
  options.coalesce = true;
  options.use_gpu_engine = true;
  options.share_probe_cache = true;
  options.start_paused = paused;
  return options;
}

struct Request {
  std::size_t instance = 0;  ///< index into the run's instances
  bool admitted = false;     ///< a rejection is counted when it happens
  Clock::time_point due{};
  Clock::time_point observed{};
  std::future<serve::SolveResponse> future;
  std::optional<serve::SolveResponse> response;
};

/// Takes every ready response out of its future, stamping when it was seen.
void collect_ready(std::vector<Request>& requests,
                   std::vector<std::size_t>& outstanding) {
  const auto now = Clock::now();
  std::erase_if(outstanding, [&](std::size_t i) {
    Request& r = requests[i];
    if (r.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return false;
    r.observed = now;
    r.response = r.future.get();
    return true;
  });
}

/// The fields tools/pcmax_serve compares for bit-identical responses.
bool same_result(const ResilientResult& a, const ResilientResult& b) {
  return a.status.code() == b.status.code() &&
         a.schedule.assignment == b.schedule.assignment &&
         a.achieved_makespan == b.achieved_makespan && a.engine == b.engine &&
         a.k == b.k && a.bound_num == b.bound_num &&
         a.bound_den == b.bound_den && a.degraded == b.degraded;
}

/// The per-response gate; returns why it failed, or "".
std::string check_response(const Instance& instance,
                           const serve::SolveResponse& response) {
  if (!response.ok()) return "status " + response.status.to_string();
  const ResilientResult& r = response.result;
  try {
    validate_schedule(instance, r.schedule);
  } catch (const std::exception& e) {
    return std::string("invalid schedule: ") + e.what();
  }
  if (makespan(instance, r.schedule) != r.achieved_makespan)
    return "reported makespan differs from the schedule's";
  if (r.achieved_makespan < makespan_lower_bound(instance))
    return "makespan below the lower bound";
  if (r.k > 0 && (r.bound_num != r.k + 1 || r.bound_den != r.k))
    return "PTAS answer without its (k+1)/k bound";
  return {};
}

// ---------------------------------------------------------------------------
// Trace reading.

struct Span {
  std::string name;
  std::int64_t begin_ns = 0;  // bench steady-clock ns
  std::int64_t end_ns = -1;
  std::int64_t req = -1;
  bool cached = false;  // a dp/invocation answered by the probe cache
  std::vector<std::size_t> children;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - begin_ns) / 1e6;
  }
};

std::int64_t steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// A session plus the offset from its recorder's clock to steady ns.
struct TraceCapture {
  obs::ObsSession session;
  std::int64_t origin_ns = 0;

  TraceCapture() {
    const std::int64_t now = steady_ns(Clock::now());
    session.trace().instant("bench/origin");
    origin_ns = now - session.trace().snapshot().back().wall_ns;
  }
};

/// Host spans by thread, nested; completed spans only.
std::vector<Span> read_spans(const TraceCapture& capture,
                             const std::vector<obs::TraceEvent>& events) {
  std::vector<Span> spans;
  std::map<std::int32_t, std::vector<std::size_t>> open;  // per tid stack
  for (const obs::TraceEvent& e : events) {
    std::vector<std::size_t>& stack = open[e.tid];
    if (e.kind == obs::EventKind::kSpanBegin) {
      Span s;
      s.name = e.name;
      s.begin_ns = e.wall_ns + capture.origin_ns;
      for (const obs::TraceArg& a : e.args)
        if (std::strcmp(a.key, "req") == 0) s.req = a.value;
      if (!stack.empty()) spans[stack.back()].children.push_back(spans.size());
      stack.push_back(spans.size());
      spans.push_back(std::move(s));
    } else if (e.kind == obs::EventKind::kSpanEnd && !stack.empty()) {
      spans[stack.back()].end_ns = e.wall_ns + capture.origin_ns;
      stack.pop_back();
    } else if (e.kind == obs::EventKind::kInstant && !stack.empty() &&
               std::strcmp(e.name, "dp/cache-hit") == 0) {
      spans[stack.back()].cached = true;
    }
  }
  return spans;
}

/// Wall time one serve/solve span spent in each layer.
struct Service {
  double total_ms = 0, dp_ms = 0, reconstruct_ms = 0, engine_ms = 0,
         resilient_ms = 0;
  Clock::time_point begin{}, end{};
};

bool is_dp(const std::string& n) {
  return n == "dp/invocation" || n == "eptas/invocation";
}

void walk(const std::vector<Span>& spans, std::size_t i, Service& s,
          std::vector<double>& dp_call_us, bool in_reconstruct) {
  const Span& span = spans[i];
  if (is_dp(span.name)) {
    s.dp_ms += span.ms();
    if (in_reconstruct) s.reconstruct_ms -= span.ms();
    if (!span.cached) dp_call_us.push_back(span.ms() * 1e3);
    return;
  }
  if (span.name == "ptas/reconstruct" || span.name == "eptas/reconstruct") {
    s.reconstruct_ms += span.ms();
    in_reconstruct = true;
  }
  if (span.name == "ptas/solve" || span.name == "eptas/solve")
    s.engine_ms += span.ms();
  if (span.name == "resilient/solve") s.resilient_ms += span.ms();
  for (const std::size_t c : span.children)
    walk(spans, c, s, dp_call_us, in_reconstruct);
}

// ---------------------------------------------------------------------------
// Run bookkeeping shared by both serve workloads.

struct ServeRun {
  Report report;
  std::vector<Instance> instances;  // every instance any request used
  std::vector<double> latency_ms;   // untraced requests
  std::vector<double> submit_us;
  std::vector<double> quality;  // achieved / LB per checked unique request
  // Traced layers, summed over traced requests (followers included).
  std::size_t traced_requests = 0, leaders = 0;
  double e2e_ms = 0, queue_ms = 0, service_ms = 0, delivery_ms = 0;
  double dp_ms = 0, reconstruct_ms = 0, search_self_ms = 0,
         resilient_self_ms = 0, serve_self_ms = 0;  // leader-weighted
  double leader_dp_ms = 0, leader_reconstruct_ms = 0, leader_resilient_ms = 0;
  std::vector<double> queue_wait_ms, service_leader_ms, dp_call_us;
  std::uint64_t cells = 0, probes = 0, rounds = 0, bound_skips = 0,
                attempts = 0, fallbacks = 0;
  serve::ServeStats traced_stats;
  std::size_t ok_served = 0;
  // Replays of sampled requests outside the server.
  std::uint64_t replays = 0, replay_kernels = 0, replay_probes = 0;
  double replay_wall_ms = 0, replay_sim_ms = 0, bounds_us = 0,
         rounding_us = 0;
};

/// The correctness gate over a finished window; records the latency of
/// every request that passed.
void check_requests(ServeRun& run, const std::vector<Request>& requests) {
  for (const Request& r : requests) {
    ++run.report.attempted;
    if (!r.admitted) continue;
    if (!r.response.has_value()) {
      run.report.fail("request never answered");
      continue;
    }
    const Instance& instance = run.instances[r.instance];
    if (const std::string why = check_response(instance, *r.response);
        !why.empty()) {
      run.report.fail(why);
      continue;
    }
    ++run.ok_served;
    run.latency_ms.push_back(ms_between(r.due, r.observed));
  }
}

/// Splits each traced request's latency into queue wait, service and
/// delivery, using the server's spans.
void attribute(ServeRun& run, TraceCapture& capture,
               const std::vector<Request>& requests) {
  const std::vector<obs::TraceEvent> events =
      capture.session.trace().snapshot();
  const std::vector<Span> spans = read_spans(capture, events);
  std::map<std::int64_t, Service> by_leader;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != "serve/solve" || s.end_ns < 0) continue;
    Service service;
    service.total_ms = s.ms();
    service.begin = Clock::time_point(std::chrono::nanoseconds(s.begin_ns));
    service.end = Clock::time_point(std::chrono::nanoseconds(s.end_ns));
    walk(spans, i, service, run.dp_call_us, false);
    by_leader[s.req] = service;
  }
  std::map<std::int64_t, std::int64_t> leader_of;  // follower -> leader
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::EventKind::kInstant ||
        std::strcmp(e.name, "serve/coalesce") != 0)
      continue;
    std::int64_t id = -1, leader = -1;
    for (const obs::TraceArg& a : e.args) {
      if (std::strcmp(a.key, "id") == 0) id = a.value;
      if (std::strcmp(a.key, "leader") == 0) leader = a.value;
    }
    leader_of[id] = leader;
  }
  for (const auto& [id, s] : by_leader) {
    ++run.leaders;
    run.leader_dp_ms += s.dp_ms;
    run.leader_reconstruct_ms += s.reconstruct_ms;
    run.leader_resilient_ms += s.resilient_ms - s.engine_ms;
    run.service_leader_ms.push_back(s.total_ms);
  }
  for (const Request& r : requests) {
    if (!r.response.has_value()) continue;
    const std::int64_t id = r.response->request_id;
    const auto leader = leader_of.find(id);
    const auto it =
        by_leader.find(leader != leader_of.end() ? leader->second : id);
    if (it == by_leader.end()) continue;
    const Service& s = it->second;
    ++run.traced_requests;
    const double queue = ms_between(r.due, s.begin);
    run.e2e_ms += ms_between(r.due, r.observed);
    run.queue_ms += queue;
    run.queue_wait_ms.push_back(queue);
    run.service_ms += s.total_ms;
    run.delivery_ms += ms_between(s.end, r.observed);
    run.dp_ms += s.dp_ms;
    run.reconstruct_ms += s.reconstruct_ms;
    run.search_self_ms += s.engine_ms - s.dp_ms - s.reconstruct_ms;
    run.resilient_self_ms += s.resilient_ms - s.engine_ms;
    run.serve_self_ms += s.total_ms - s.resilient_ms;
  }
  const obs::MetricsRegistry& m = capture.session.metrics();
  run.cells += m.counter("dp.cells");
  run.probes += m.counter("search.probes");
  run.rounds += m.counter("search.rounds");
  run.bound_skips += m.counter("search.bound_skips");
  run.attempts += m.counter("resilient.attempts");
  run.fallbacks += m.counter("resilient.fallbacks");
}

void add_stats(serve::ServeStats& into, const serve::ServeStats& s) {
  into.submitted += s.submitted;
  into.coalesced += s.coalesced;
  into.completed += s.completed;
  into.cache.lookups += s.cache.lookups;
  into.cache.hits += s.cache.hits;
  into.cache.cross_hits += s.cache.cross_hits;
}

/// Set-up: generate the first window's instances, then start a server and
/// push one warm-up request per worker through it.
template <typename Generate>
double setup_seconds(ServeRun& run, Generate&& generate) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    run.instances = generate();
    serve::SolveServer server(server_options(kOpenQueue, false));
    std::vector<std::future<serve::SolveResponse>> warm;
    for (int w = 0; w < kWorkers; ++w) {
      serve::SolveRequest request;
      request.instance =
          serve_instance(derive_seed(~0ull, static_cast<std::uint64_t>(w)));
      request.options = request_options();
      auto admitted = server.submit(std::move(request));
      if (admitted.has_value()) warm.push_back(std::move(*admitted));
    }
    for (auto& f : warm) f.get();
    server.shutdown();
    samples.push_back(static_cast<double>(elapsed_ns(start)) / 1e9);
  }
  return median(samples);
}

/// Replays a sample of answered unique requests through the GPU PTAS on a
/// fresh device; each must match the served answer bit for bit and carry a
/// valid certificate. Also sizes the bounds, rounding and gpu layers.
void replay_sample(ServeRun& run, const std::vector<Request>& requests,
                   const std::vector<bool>& unique) {
  std::vector<const Request*> sample;
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (unique[i] && requests[i].response.has_value() &&
        requests[i].response->ok())
      sample.push_back(&requests[i]);
  const std::size_t stride = std::max<std::size_t>(1, sample.size() / kReplays);
  const std::int64_t k = k_for_epsilon(kEpsilon);
  for (std::size_t i = 0, replays = 0; i < sample.size() && replays < kReplays;
       i += stride, ++replays, ++run.replays) {
    const Request& r = *sample[i];
    const Instance& instance = run.instances[r.instance];
    const ResilientResult& served = r.response->result;
    gpusim::Device device(gpusim::DeviceSpec::k40());
    gpu::GpuPtasOptions options;
    options.epsilon = epsilon_for_k(k);
    options.use_probe_cache = true;
    const auto start = Clock::now();
    const gpu::GpuPtasResult replay =
        gpu::solve_gpu_ptas(instance, device, options);
    run.replay_wall_ms += static_cast<double>(elapsed_ns(start)) / 1e6;
    run.replay_sim_ms += replay.device_time.ms();
    run.replay_kernels += replay.stats.kernels;
    const PtasResult& p = replay.ptas;
    if (served.engine != "gpu-ptas" ||
        served.schedule.assignment != p.schedule.assignment ||
        served.achieved_makespan != p.achieved_makespan)
      run.report.fail("served answer differs from a fresh GPU PTAS replay");
    if (p.best_target < makespan_lower_bound(instance) ||
        p.achieved_makespan * k > (k + 1) * p.best_target)
      run.report.fail("replayed answer breaks the (k+1)/k certificate");

    // Every dp_calls entry but the last (the reconstruction) is a probe.
    std::vector<std::int64_t> targets;
    for (std::size_t c = 0; c + 1 < p.dp_calls.size(); ++c)
      targets.push_back(p.dp_calls[c].target);
    run.bounds_us += static_cast<double>(replay_bounds_ns(instance)) / 1e3;
    run.rounding_us +=
        static_cast<double>(replay_rounding_ns(instance, targets, k, false)) /
        1e3;
    run.replay_probes += targets.size();
  }
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Fills the end-to-end metrics and, for a traced run, the layers.
void finish(ServeRun& run, double setup_s, double throughput,
            double overhead, bool traced) {
  Report& report = run.report;
  report.set("setup_s", setup_s);
  report.set("throughput_per_s", throughput);
  report.set("latency_ms_p50", percentile(run.latency_ms, 50.0));
  report.set("latency_ms_p95", percentile(run.latency_ms, 95.0));
  double quality = 0;
  for (const double q : run.quality) quality += q;
  report.set("makespan_over_lb",
             quality / static_cast<double>(run.quality.size()));
  const Percentile tail = tail_percentile(run.latency_ms);
  report.line("latency p50 %.3f ms, p95 %.3f ms, p%g %.3f ms (n=%zu); "
              "serve.submit_us_p50 %.1f (n=%zu)",
              percentile(run.latency_ms, 50.0),
              percentile(run.latency_ms, 95.0), tail.pct, tail.value,
              tail.samples, percentile(run.submit_us, 50.0),
              run.submit_us.size());
  const auto replays =
      static_cast<double>(std::max<std::uint64_t>(run.replays, 1));
  report.set("bounds.us_per_solve", run.bounds_us / replays);
  report.set("rounding.us_per_probe",
             share(run.rounding_us, static_cast<double>(run.replay_probes)));
  report.set("gpu.kernels_per_solve",
             static_cast<double>(run.replay_kernels) / replays);
  report.line("%llu replays: gpu.wall_ms_per_solve %.3f, gpu.sim_ms_per_solve "
              "%.3f (simulated time), gpu.kernels_per_solve %.1f",
              static_cast<unsigned long long>(run.replays),
              run.replay_wall_ms / replays, run.replay_sim_ms / replays,
              static_cast<double>(run.replay_kernels) / replays);
  report.set("mem.peak_rss_mb", peak_rss_mb());
  if (!traced) return;

  const auto leaders =
      static_cast<double>(std::max<std::size_t>(run.leaders, 1));
  const serve::ServeStats& st = run.traced_stats;
  report.set("dp.fill_share", share(run.dp_ms, run.e2e_ms));
  report.set("dp.ns_per_cell",
             share(run.leader_dp_ms * 1e6, static_cast<double>(run.cells)));
  report.set("dp.us_per_call_p50",
             run.dp_call_us.empty() ? 0.0 : median(run.dp_call_us));
  report.set("dp.cells_per_solve", static_cast<double>(run.cells) / leaders);
  report.set("search.probes_per_solve",
             static_cast<double>(run.probes) / leaders);
  report.set("search.rounds_per_solve",
             static_cast<double>(run.rounds) / leaders);
  report.set("search.bound_skip_frac",
             share(static_cast<double>(run.bound_skips),
                   static_cast<double>(run.bound_skips + run.probes)));
  report.set("reconstruct.us_per_solve",
             run.leader_reconstruct_ms * 1e3 / leaders);
  report.set("cache.hit_frac", share(static_cast<double>(st.cache.hits),
                                     static_cast<double>(st.cache.lookups)));
  report.set("cache.cross_hit_frac",
             share(static_cast<double>(st.cache.cross_hits),
                   static_cast<double>(st.cache.lookups)));
  report.set("service_ms_p50", run.service_leader_ms.empty()
                                   ? 0.0
                                   : median(run.service_leader_ms));
  report.set("serve.queue_wait_share", share(run.queue_ms, run.e2e_ms));
  report.set("serve.coalesced_frac",
             share(static_cast<double>(st.coalesced),
                   static_cast<double>(st.submitted)));
  report.set("resilient.attempts_per_req",
             static_cast<double>(run.attempts) / leaders);
  report.set("resilient.fallback_frac",
             static_cast<double>(run.fallbacks) / leaders);
  report.set("other_frac", share(run.delivery_ms, run.e2e_ms));
  report.set("trace.overhead_frac", overhead);

  report.line("traced %zu requests (%zu solved, %zu coalesced); latency "
              "split, ms summed over requests:",
              run.traced_requests, run.leaders,
              run.traced_requests - run.leaders);
  const auto row = [&](const char* name, double ms) {
    report.line("  %-28s %12.2f ms  %6.2f%%", name, ms,
                100.0 * share(ms, run.e2e_ms));
  };
  row("queue wait", run.queue_ms);
  row("service (serve/solve)", run.service_ms);
  row("  dp fill + cache lookups", run.dp_ms);
  row("  reconstruct (self)", run.reconstruct_ms);
  row("  search self (bounds, rounding)", run.search_self_ms);
  row("  resilient self", run.resilient_self_ms);
  row("  serve self", run.serve_self_ms);
  row("delivery + collection (other)", run.delivery_ms);
  const double rest = run.e2e_ms - run.queue_ms - run.service_ms -
                      run.delivery_ms;
  report.line("  %-28s %12.2f ms  reconciled: residual %+.3f%%",
              "= end to end", run.e2e_ms, 100.0 * share(rest, run.e2e_ms));
  report.line("  serve.queue_wait_ms p50 %.3f p95 %.3f (n=%zu); "
              "serve.service_ms_p50 %.3f (n=%zu); "
              "resilient.self_ms_per_req %.3f",
              percentile(run.queue_wait_ms, 50.0),
              percentile(run.queue_wait_ms, 95.0), run.queue_wait_ms.size(),
              median(run.service_leader_ms), run.service_leader_ms.size(),
              run.leader_resilient_ms / leaders);
}

/// One window of a serve run: a fresh server answers `order.size()`
/// requests (indices into run.instances). A burst queues them all on
/// parked workers and resumes; otherwise request i is sent at offset_s[i]
/// after the start, whatever the server is doing (open loop).
struct Window {
  std::vector<Request> requests;
  std::vector<bool> unique;  // first request of its instance in the window
  serve::ServeStats stats;
  Clock::time_point start{};
  Clock::time_point last{};  // last response seen
};

Window run_window(ServeRun& run, const std::vector<std::size_t>& order,
                  const std::vector<double>& offset_s, bool burst,
                  std::vector<double>& late_ms) {
  Window w;
  w.requests.resize(order.size());
  w.unique.resize(order.size());
  std::vector<bool> seen(run.instances.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    w.requests[i].instance = order[i];
    w.unique[i] = !seen[order[i]];
    seen[order[i]] = true;
  }
  serve::SolveServer server(
      server_options(burst ? order.size() : kOpenQueue, burst));
  std::vector<std::size_t> outstanding;
  const auto submit = [&](std::size_t i) {
    serve::SolveRequest request;
    request.instance = run.instances[w.requests[i].instance];
    request.options = request_options();
    const auto start = Clock::now();
    auto admitted = server.submit(std::move(request));
    run.submit_us.push_back(static_cast<double>(elapsed_ns(start)) / 1e3);
    if (!admitted.has_value()) {
      run.report.fail("request rejected: " + admitted.status().to_string());
      return;
    }
    w.requests[i].admitted = true;
    w.requests[i].future = std::move(*admitted);
    outstanding.push_back(i);
  };

  std::size_t next = 0;
  if (burst) {
    for (; next < order.size(); ++next) submit(next);
    w.start = Clock::now();
    server.resume();
    for (Request& r : w.requests) r.due = w.start;
  } else {
    w.start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < order.size(); ++i)
      w.requests[i].due =
          w.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s[i]));
  }
  while (next < order.size() || !outstanding.empty()) {
    collect_ready(w.requests, outstanding);
    const auto now = Clock::now();
    if (next < order.size() && now >= w.requests[next].due) {
      late_ms.push_back(ms_between(w.requests[next].due, now));
      submit(next++);
      continue;
    }
    auto wake = now + kPoll;
    if (next < order.size()) wake = std::min(wake, w.requests[next].due);
    std::this_thread::sleep_until(wake);
  }
  server.shutdown();
  w.stats = server.stats();
  w.last = w.start;
  for (const Request& r : w.requests) w.last = std::max(w.last, r.observed);
  return w;
}

/// Both serve workloads: windows on fresh servers until the run's time is
/// up; a traced run alternates untraced and traced windows.
Report run_serve(const RunConfig& config, bool burst) {
  ServeRun run;
  const std::size_t unique = burst ? kBurstUnique : kOpenWindow;
  const auto make_instances = [&](std::size_t window) {
    std::vector<Instance> instances;
    for (std::size_t i = 0; i < unique; ++i)
      instances.push_back(serve_instance(
          derive_seed(config.seed,
                      (burst ? 1 : 2) * 1000000 + window * 1000 + i)));
    return instances;
  };
  const double setup_s = setup_seconds(run, [&] { return make_instances(0); });

  std::vector<double> rates, untraced_p50, traced_p50, window_s, late_ms;
  const auto run_start = Clock::now();
  for (std::size_t w = 0;
       w < (config.traced ? 4u : 3u) ||
       static_cast<double>(elapsed_ns(run_start)) / 1e9 < config.seconds;
       ++w) {
    const bool traced = config.traced && w % 2 == 1;
    // Set-up generated window 0's instances; later windows append theirs.
    const std::size_t base = w == 0 ? 0 : run.instances.size();
    if (w > 0)
      for (Instance& instance : make_instances(w))
        run.instances.push_back(std::move(instance));
    util::Rng rng(derive_seed(config.seed, 3000000 + w));
    std::vector<std::size_t> order(unique);
    for (std::size_t i = 0; i < unique; ++i) order[i] = base + i;
    std::vector<double> offset_s;
    if (burst) {
      // Exact duplicates of distinct originals, all in a seeded shuffle.
      std::shuffle(order.begin(), order.end(), rng.engine());
      const std::vector<std::size_t> duplicates(
          order.begin(), order.begin() + kBurstDuplicates);
      order.insert(order.end(), duplicates.begin(), duplicates.end());
      std::shuffle(order.begin(), order.end(), rng.engine());
    } else {
      // Poisson arrivals conditioned on their count: sorted uniform times.
      for (std::size_t i = 0; i < unique; ++i)
        offset_s.push_back(rng.uniform01() * static_cast<double>(unique) /
                           kOpenRate);
      std::sort(offset_s.begin(), offset_s.end());
    }

    std::optional<TraceCapture> capture;
    if (traced) capture.emplace();
    Window win = run_window(run, order, offset_s, burst, late_ms);

    const std::size_t ok_before = run.ok_served;
    const std::size_t latency_before = run.latency_ms.size();
    const std::uint64_t failed_before = run.report.failed;
    check_requests(run, win.requests);
    const double seconds = ms_between(win.start, win.last) / 1e3;
    window_s.push_back(seconds);
    std::vector<double> latency(
        run.latency_ms.begin() + static_cast<std::ptrdiff_t>(latency_before),
        run.latency_ms.end());
    (traced ? traced_p50 : untraced_p50).push_back(median(latency));
    if (traced) {
      run.latency_ms.resize(latency_before);  // end to end stays untraced
      attribute(run, *capture, win.requests);
      add_stats(run.traced_stats, win.stats);
    } else {
      rates.push_back(static_cast<double>(run.ok_served - ok_before) /
                      seconds);
    }
    if (burst && win.stats.coalesced != kBurstDuplicates)
      run.report.fail("burst coalesced " +
                      std::to_string(win.stats.coalesced) + " of " +
                      std::to_string(kBurstDuplicates) + " duplicates");
    // Duplicates must match their originals bit for bit.
    std::map<std::size_t, const ResilientResult*> first;
    for (const Request& r : win.requests) {
      if (!r.response.has_value()) continue;
      const auto [it, inserted] =
          first.emplace(r.instance, &r.response->result);
      if (!inserted && !same_result(*it->second, r.response->result))
        run.report.fail("duplicate answer differs from its original");
    }
    // Quality over a fixed set of requests: the first kQualityWindows.
    if (w < kQualityWindows)
      for (std::size_t i = 0; i < win.requests.size(); ++i)
        if (const Request& r = win.requests[i];
            win.unique[i] && r.response && r.response->ok())
          run.quality.push_back(
              static_cast<double>(r.response->result.achieved_makespan) /
              static_cast<double>(
                  makespan_lower_bound(run.instances[r.instance])));
    if (w == 0 || traced || run.report.failed != failed_before)
      replay_sample(run, win.requests, win.unique);
  }
  run.report.line("%zu windows of %zu requests (%zu duplicates) on fresh "
                  "servers, %.3f s median window",
                  window_s.size(), burst ? unique + kBurstDuplicates : unique,
                  burst ? kBurstDuplicates : std::size_t{0}, median(window_s));
  if (!burst) {
    const Percentile late = tail_percentile(late_ms);
    run.report.line("open loop at %.0f req/s: serve.gen_late_ms p%g %.3f "
                    "(n=%zu)",
                    kOpenRate, late.pct, late.value, late.samples);
    if (late.value > kMaxLateMs)
      run.report.fail("load generator ran late: p" +
                      std::to_string(late.pct) + " " +
                      std::to_string(late.value) + " ms");
  }
  finish(run, setup_s, median(rates),
         config.traced ? median(traced_p50) / median(untraced_p50) - 1.0 : 0.0,
         config.traced);
  return std::move(run.report);
}

}  // namespace

Report run_serve_burst_dup(const RunConfig& config) {
  return run_serve(config, true);
}

Report run_serve_open_unique(const RunConfig& config) {
  return run_serve(config, false);
}

}  // namespace pcmax::bench

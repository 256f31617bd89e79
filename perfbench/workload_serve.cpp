// `serve`: online protection-as-a-service, the deployment the paper
// targets.
//
// One ModelHost (default ServeOptions, workers = 2) serves four untrained
// resnet20 tenants (270,896 weights each) signed radar2, radar3, crc13
// and radar2 without interleaving — every scan kernel family. Traffic is
// open loop: Poisson single-image requests at kRate req/s with Zipf
// tenant popularity, timed from each request's due time. Beside it a
// single-MSB injection stream runs round-robin over the tenants, each
// tenant's injections kTenantInjectGapMs apart so the quarantine (3
// detections in 2 s) never trips. Inference, the budgeted background
// sweep and recovery contend for the same cores here and nowhere else.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/package.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"
#include "data/synthetic.h"
#include "exp/workspace.h"
#include "nn/resnet.h"
#include "qnn/engine.h"
#include "serve/host.h"
#include "sim/netdesc.h"
#include "workloads.h"

namespace perfbench {

using namespace radar;

namespace {

constexpr double kRate = 150.0;          ///< requests per second, all tenants
constexpr double kZipfS = 1.0;           ///< tenant popularity skew
constexpr double kWarmupS = 1.5;         ///< traffic before measuring
constexpr std::int64_t kTenantInjectGapMs = 1100;  ///< per tenant
constexpr std::int64_t kDetectTimeoutMs = 1000;    ///< per injection
constexpr std::int64_t kInjectTailMs = 200;  ///< no injection due later
constexpr std::int64_t kInputs = 64;     ///< generated images per run
constexpr std::int64_t kProbes = 16;     ///< probe images per tenant
constexpr std::int64_t kCalibImages = 64;  ///< the host's calibration set
constexpr int kForwardB1Reps = 200, kForwardB64Reps = 12;

struct TenantSpec {
  const char* name;
  const char* scheme;
  bool interleave;
};
constexpr TenantSpec kTenants[] = {{"radar2", "radar2", true},
                                   {"radar3", "radar3", true},
                                   {"crc13", "crc13", true},
                                   {"radar2_noilv", "radar2", false}};
constexpr std::size_t kNumTenants = std::size(kTenants);

core::SchemeParams params_of(const TenantSpec& t) {
  core::SchemeParams p;  // defaults: G=512, skew 3
  p.interleave = t.interleave;
  return p;
}

/// One scheduled request of the open-loop trace.
struct Planned {
  std::int64_t due_ns;  ///< offset from the traffic start
  std::size_t tenant;
  std::size_t input;
};

std::vector<Planned> plan_traffic(Rng& rng, double horizon_s) {
  std::vector<double> cdf(kNumTenants);
  double total = 0.0;
  for (std::size_t i = 0; i < kNumTenants; ++i)
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
  double acc = 0.0;
  for (std::size_t i = 0; i < kNumTenants; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS) / total;
    cdf[i] = acc;
  }
  std::vector<Planned> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    if (t >= horizon_s) break;
    const double u = rng.uniform();
    std::size_t tenant = 0;
    while (tenant + 1 < kNumTenants && u > cdf[tenant]) ++tenant;
    out.push_back({static_cast<std::int64_t>(t * 1e9), tenant,
                   static_cast<std::size_t>(rng.uniform_int(0, kInputs - 1))});
  }
  return out;
}

int argmax_row0(const nn::Tensor& logits, std::int64_t classes) {
  const float* row = logits.data();
  int best = 0;
  for (std::int64_t c = 1; c < classes; ++c)
    if (row[c] > row[best]) best = static_cast<int>(c);
  return best;
}

/// Latency samples of the measured window, split at the traced half.
struct Traffic {
  std::vector<double> latency_ms[2];  ///< [0] untraced, [1] traced half
  std::vector<double> lag_ms;
  std::int64_t attempted = 0, failed = 0;
};

/// The load generator: one sender thread submits each planned request at
/// its due time; one collector thread resolves the futures in order.
/// Latency = (submit - due) + the host's submit-to-completion time, so a
/// slow future ahead in the collector's queue adds nothing.
class LoadGen {
 public:
  LoadGen(serve::ModelHost& host, const std::vector<nn::Tensor>& inputs,
          std::vector<Planned> plan, std::int64_t measure_from_ns,
          std::int64_t traced_from_ns, Tracer& tracer)
      : host_(host),
        inputs_(inputs),
        plan_(std::move(plan)),
        measure_from_ns_(measure_from_ns),
        traced_from_ns_(traced_from_ns),
        tracer_(tracer) {}
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen() { join(); }

  void start(std::int64_t t0_ns) {
    t0_ns_ = t0_ns;
    collector_ = std::thread([this] { collect(); });
    sender_ = std::thread([this] { send(); });
  }
  void join() {
    if (sender_.joinable()) sender_.join();
    if (collector_.joinable()) collector_.join();
  }
  const Traffic& traffic() const { return traffic_; }

 private:
  struct InFlight {
    std::int64_t due_ns, submit_ns;
    bool accepted;
    std::uint64_t span;  ///< reserved id of the request span (0: untraced)
    std::future<serve::InferenceResult> result;
  };

  void send() {
    for (const Planned& p : plan_) {
      const std::int64_t due = t0_ns_ + p.due_ns;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      InFlight f{due, 0, false, tracer_.reserve_id(), {}};
      {
        Span span(tracer_, "serve.try_infer_async", f.span, f.span);
        f.submit_ns = now_ns();
        f.accepted = host_.try_infer_async(p.tenant, inputs_[p.input], f.result);
      }
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(f));
      cv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_one();
  }

  void collect() {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        f = std::move(queue_.front());
        queue_.pop_front();
      }
      serve::InferenceResult r;
      if (f.accepted) r = f.result.get();
      const std::int64_t offset = f.due_ns - t0_ns_;
      if (offset < measure_from_ns_) continue;  // warm-up
      ++traffic_.attempted;
      const double lag_ms = static_cast<double>(f.submit_ns - f.due_ns) * 1e-6;
      traffic_.lag_ms.push_back(lag_ms);
      if (!r.ok) {
        ++traffic_.failed;
        continue;
      }
      const int half = offset >= traced_from_ns_ ? 1 : 0;
      traffic_.latency_ms[half].push_back(lag_ms + static_cast<double>(r.latency_ns) * 1e-6);
      if (f.span != 0)
        tracer_.record("serve.request", f.submit_ns, f.submit_ns + r.latency_ns, 0, f.span, f.span);
    }
  }

  serve::ModelHost& host_;
  const std::vector<nn::Tensor>& inputs_;
  const std::vector<Planned> plan_;
  const std::int64_t measure_from_ns_, traced_from_ns_;
  Tracer& tracer_;
  std::int64_t t0_ns_ = 0;
  std::mutex mu_;  ///< guards queue_ and done_
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  bool done_ = false;
  Traffic traffic_;  ///< collector thread only until join()
  std::thread sender_, collector_;  ///< last: they use every member above
};

/// Change of one TenantStats counter from `a` to `b`, summed over tenants.
std::uint64_t delta(const serve::HostStats& a, const serve::HostStats& b,
                    std::uint64_t serve::TenantStats::*counter) {
  std::uint64_t d = 0;
  for (std::size_t t = 0; t < b.tenants.size(); ++t)
    d += b.tenants[t].*counter - a.tenants[t].*counter;
  return d;
}

/// What the injection stream saw: one TTD sample per injection the host
/// reported detected and recovered.
struct Injections {
  std::vector<double> ttd_ms;
  std::int64_t injected = 0, confirmed = 0;
};

/// Runs the injection stream from `first_ns` until `end_ns`: round-robin
/// single-MSB injections, each waited on until the host reports it
/// detected and recovered. Switches `tracer` on at `trace_from_ns`
/// (INT64_MAX: never).
void inject_until(serve::ModelHost& host, Rng& rng, std::int64_t first_ns,
                  std::int64_t end_ns, std::int64_t trace_from_ns, Tracer& tracer,
                  Injections& out) {
  const auto wait_until = [&](std::int64_t t) {
    if (!tracer.enabled() && trace_from_ns <= t) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(trace_from_ns)));
      tracer.set_enabled(true);
    }
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
  };
  const std::int64_t gap_ns =
      kTenantInjectGapMs * 1000000 / static_cast<std::int64_t>(kNumTenants);
  for (std::int64_t k = 0;; ++k) {
    const std::int64_t at = first_ns + k * gap_ns;
    if (at >= end_ns) return wait_until(end_ns);
    wait_until(at);
    const std::size_t t = static_cast<std::size_t>(k) % kNumTenants;
    const serve::TenantStats before = host.stats().tenants[t];
    std::size_t flipped = 0;
    {
      Span span(tracer, "serve.inject_faults");
      flipped = host.inject_faults(t, 1, rng.uniform_int(1, INT64_MAX));
    }
    ++out.injected;
    const std::int64_t deadline = now_ns() + kDetectTimeoutMs * 1000000;
    for (;;) {
      wait_until(now_ns() + 2000000);
      const serve::TenantStats now = host.stats().tenants[t];
      if (flipped == 1 && now.detections > before.detections &&
          now.groups_recovered > before.groups_recovered) {
        out.ttd_ms.push_back(static_cast<double>(now.last_ttd_ns) * 1e-6);
        ++out.confirmed;
        break;
      }
      if (now_ns() > deadline) {
        std::printf("FAIL injection %lld into %s: not detected and recovered "
                    "within %lld ms\n",
                    static_cast<long long>(k), kTenants[t].name,
                    static_cast<long long>(kDetectTimeoutMs));
        break;
      }
    }
  }
}

/// Per-layer probe: ScanScheduler slices at the serve budget on a
/// guard-enabled copy of one tenant, until two sweeps complete.
void probe_slices(const std::string& path, Result& result, const char* name,
                  const serve::ServeOptions& opts) {
  Rng init(20);  // any init: the package overwrites every weight
  nn::ResNet net(nn::ResNetSpec::resnet20(10), init);
  quant::QuantizedModel qm(net);
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::load_package(path, qm, scheme, 1);
  qm.enable_epoch_guard(opts.epoch_shard_bytes);
  core::ScanScheduler sched;
  core::ScanScheduler::Config cfg;
  cfg.budget_us = opts.scan_budget_us;
  cfg.budget_bytes = opts.scan_budget_bytes;
  cfg.chunk_bytes = opts.scan_shard_bytes;
  cfg.max_retries = opts.epoch_max_retries;
  sched.plan(*scheme, cfg);
  std::vector<double> slice_us;
  std::int64_t bytes = 0, ns = 0;
  while (sched.sweeps() < 2) {
    const auto slice = sched.run_slice(qm);
    slice_us.push_back(static_cast<double>(slice.elapsed_ns) * 1e-3);
    bytes += slice.bytes;
    ns += slice.elapsed_ns;
  }
  result.metric(std::string("core.slice_us.") + name, median(slice_us), "us");
  result.metric(std::string("core.slice_bytes_per_s.") + name,
                static_cast<double>(bytes) / (static_cast<double>(ns) * 1e-9), "B/s");
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  serve::ServeOptions opts;
  opts.workers = 2;
  Tracer tracer(false);

  // ---- set-up: sign, save and add each tenant (setup_s: median) ----
  auto t0 = Clock::now();
  exp::ModelBundle bundle = exp::make_bundle("resnet20", false, false);
  const double make_bundle_s = ms_since(t0) * 1e-3;
  serve::ModelHost host(opts);
  std::vector<std::string> paths;  // in the work dir, overwritten by each run
  std::vector<double> setup_s, attach_ms;
  for (const TenantSpec& ts : kTenants) {
    t0 = Clock::now();
    auto scheme = core::SchemeRegistry::instance().create(ts.scheme, params_of(ts));
    const auto ta = Clock::now();
    scheme->attach(*bundle.qmodel);
    attach_ms.push_back(ms_since(ta));
    paths.push_back(args.work_dir + "/serve_" + ts.name + ".rpkg");
    core::save_package(paths.back(), *bundle.qmodel, *scheme, "resnet20");
    serve::TenantConfig cfg;
    cfg.name = ts.name;
    cfg.package_path = paths.back();
    cfg.model_id = "resnet20";
    host.add_tenant(cfg);
    setup_s.push_back(ms_since(t0) * 1e-3);
  }
  print_quantiles("setup_s (per tenant)", "s", setup_s, {0.5});

  // Reference engine: the same packages loaded outside the host, engine
  // calibrated on the host's calibration images.
  const quant::ArenaSnapshot signed_arena = bundle.qmodel->snapshot();
  bool packages_ok = true;
  for (const std::string& p : paths) {
    std::unique_ptr<core::IntegrityScheme> s;
    const auto rep = core::load_package(p, *bundle.qmodel, s, 1);
    packages_ok = packages_ok && rep.verified() && bundle.qmodel->snapshot() == signed_arena;
  }
  result.gate("all four packages verify and hold the same weights", packages_ok);
  qnn::InferenceEngine ref(*bundle.qmodel, qnn::EngineKind::kBatched, nullptr);
  t0 = Clock::now();
  ref.calibrate(host.dataset(0).test_batch(0, kCalibImages).images);
  const double calibrate_ms = ms_since(t0);

  // ---- generated inputs: one synthetic split drawn from the seed ----
  data::SyntheticSpec in_spec = data::synthetic_cifar_spec();
  in_spec.noise = 0.55;
  in_spec.seed = args.seed;
  const data::SyntheticDataset gen(in_spec, 0, kInputs);
  std::vector<nn::Tensor> inputs;
  for (std::int64_t i = 0; i < kInputs; ++i) inputs.push_back(gen.test_batch(i, 1).images);

  Rng rng(args.seed);
  const double measured_s = args.seconds;
  std::vector<Planned> plan = plan_traffic(rng, kWarmupS + measured_s);
  const auto measure_from = static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t traced_from =
      args.trace ? measure_from + static_cast<std::int64_t>(measured_s * 0.5e9)
                 : INT64_MAX;
  std::printf("serve: %zu resnet20 tenants x %lld weights, workers %zu, open "
              "loop %.0f req/s Zipf(%.1f), %zu requests planned; bench threads: "
              "1 sender + 1 collector + 1 injector (nproc %u)\n",
              kNumTenants, static_cast<long long>(bundle.qmodel->total_weights()),
              opts.workers, kRate, kZipfS, plan.size(),
              std::thread::hardware_concurrency());

  // ---- run: warm-up, then the measured window ----
  host.start();
  LoadGen gen_traffic(host, inputs, std::move(plan), measure_from, traced_from, tracer);
  const std::int64_t start_ns = now_ns();
  gen_traffic.start(start_ns);
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(start_ns + measure_from)));
  const serve::HostStats s0 = host.stats();
  const std::int64_t s0_ns = now_ns();

  Injections inj;
  const std::int64_t end_ns = start_ns + measure_from + static_cast<std::int64_t>(measured_s * 1e9);
  // The last injection is due kInjectTailMs before the traffic ends.
  const std::int64_t inject_end = end_ns - kInjectTailMs * 1000000;
  inject_until(host, rng, s0_ns + 50000000, inject_end,
               args.trace ? start_ns + traced_from : INT64_MAX, tracer, inj);
  gen_traffic.join();
  tracer.set_enabled(false);
  const serve::HostStats s1 = host.stats();
  const double wall_ms = static_cast<double>(now_ns() - s0_ns) * 1e-6;
  const Traffic& tr = gen_traffic.traffic();

  // ---- correctness gates ----
  std::uint64_t quarantines_total = 0;
  for (const auto& t : s1.tenants) quarantines_total += t.quarantines;

  result.ops(tr.attempted, tr.failed);
  result.ops(inj.injected, inj.injected - inj.confirmed);
  result.gate("every injection detected and recovered (" +
                  std::to_string(inj.confirmed) + "/" + std::to_string(inj.injected) + ")",
              inj.injected > 0 && inj.confirmed == inj.injected &&
                  delta(s0, s1, &serve::TenantStats::recover_failures) == 0);
  result.gate("no quarantines", quarantines_total == 0);

  std::int64_t mismatches = 0;
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  for (std::size_t t = 0; t < kNumTenants; ++t)
    for (std::int64_t i = 0; i < kProbes; ++i) {
      const nn::Tensor& x = inputs[static_cast<std::size_t>(i)];
      ref.forward_into(x, scratch, logits);
      const serve::InferenceResult r = host.infer(t, x);
      if (!r.ok || r.predicted != argmax_row0(logits, ref.num_classes())) ++mismatches;
    }
  result.gate("probe predictions of every tenant equal the reference engine's (" +
                  std::to_string(mismatches) + " mismatches)",
              mismatches == 0);
  host.stop();

  std::vector<double> latency = tr.latency_ms[0];
  latency.insert(latency.end(), tr.latency_ms[1].begin(), tr.latency_ms[1].end());
  print_quantiles("latency_ms (request, from due time)", "ms", latency, {0.5, 0.99});
  print_quantiles("serve.ttd_ms", "ms", inj.ttd_ms, {0.5, 0.9});
  print_quantiles("loadgen.lag_ms", "ms", tr.lag_ms, {0.5, 0.99});
  double coverage_ms = 0.0;
  std::vector<double> sweep_ms(kNumTenants);
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    const std::uint64_t sweeps = s1.tenants[t].sweeps - s0.tenants[t].sweeps;
    sweep_ms[t] = wall_ms / static_cast<double>(std::max<std::uint64_t>(1, sweeps));
    std::printf("tenant %-13s sweeps %6llu  sweep %.3f ms  scan %lld B/s (since start)\n",
                kTenants[t].name, static_cast<unsigned long long>(sweeps), sweep_ms[t],
                static_cast<long long>(s1.tenants[t].scan_bytes_per_sec));
    coverage_ms = std::max(coverage_ms, sweep_ms[t]);
  }
  std::printf("requests %lld failed %lld, injections %lld\n",
              static_cast<long long>(tr.attempted), static_cast<long long>(tr.failed),
              static_cast<long long>(inj.injected));
  if (!args.trace) {
    result.metric("latency_ms", quantile(latency, 0.5), "ms");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::vector<double> b1, b64;
  for (int k = 0; k < kForwardB1Reps; ++k) {
    const auto f0 = Clock::now();
    ref.forward_into(inputs[static_cast<std::size_t>(k % kInputs)], scratch, logits);
    b1.push_back(ms_since(f0));
  }
  const nn::Tensor batch64 = gen.test_batch(0, kInputs).images;
  ref.set_pool(&ThreadPool::global());
  for (int k = 0; k < kForwardB64Reps; ++k) {
    const auto f0 = Clock::now();
    ref.forward_into(batch64, scratch, logits);
    b64.push_back(ms_since(f0));
  }
  ref.set_pool(nullptr);
  const double forward_b1 = median(b1);
  const double infer_ms = median(tracer.durations_ms("serve.request"));

  std::vector<double> load_ms;
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    core::PackageLoadOptions lo;
    lo.threads = 1;
    lo.mmap_golden = true;
    for (int rep = 0; rep < 5; ++rep) {
      std::unique_ptr<core::IntegrityScheme> s;
      const auto l0 = Clock::now();
      core::load_package(paths[t], *bundle.qmodel, s, lo);
      load_ms.push_back(ms_since(l0));
    }
    probe_slices(paths[t], result, kTenants[t].name, opts);
  }

  const double memcpy = memcpy_gbps(kRooflineBytes, 15);
  const double dot = dot_i8_gops();
  const sim::NetworkShape shape = sim::resnet20_shape();
  result.gate("the tenant model has the paper ResNet-20's weights, so its MAC "
              "count is sim::resnet20_shape()'s",
              shape.total_weights() == bundle.qmodel->total_weights());
  const double gmacs = static_cast<double>(shape.total_macs()) / (forward_b1 * 1e-3) * 1e-9;

  result.metric("serve.infer_ms", infer_ms, "ms");
  result.metric("serve.infer_p99_ms", quantile(latency, 0.99), "ms");
  result.metric("serve.queue_wait_ms", infer_ms - forward_b1, "ms");
  result.metric("serve.shed",
                static_cast<double>(s1.queue_rejected - s0.queue_rejected +
                                    delta(s0, s1, &serve::TenantStats::shed_quarantined)),
                "count");
  result.metric("serve.deadline_expired",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::deadline_expired)),
                "count");
  result.metric("serve.quarantines", static_cast<double>(quarantines_total), "count");
  result.metric("serve.scanner_restarts",
                static_cast<double>(s1.scanner_restarts - s0.scanner_restarts), "count");
  result.metric("serve.worker_flags", static_cast<double>(s1.worker_flags - s0.worker_flags),
                "count");
  result.metric("serve.infer_fail_ratio",
                static_cast<double>(tr.failed) / static_cast<double>(std::max<std::int64_t>(1, tr.attempted)),
                "ratio");
  result.metric("serve.inject_ms", median(tracer.durations_ms("serve.inject_faults")), "ms");
  result.metric("serve.ttd_p50_ms", quantile(inj.ttd_ms, 0.5), "ms");
  result.metric("serve.ttd_p90_ms", quantile(inj.ttd_ms, 0.9), "ms");
  result.metric("serve.coverage_ms", coverage_ms, "ms");
  result.metric("serve.detect_ratio",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::detections)) /
                    static_cast<double>(std::max<std::int64_t>(1, inj.injected)),
                "ratio");
  result.metric("serve.groups_recovered",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::groups_recovered)),
                "count");
  result.metric("serve.coverage_alarms",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::coverage_alarms)),
                "count");
  for (std::size_t t = 0; t < kNumTenants; ++t) {
    result.metric(std::string("serve.sweep_ms.") + kTenants[t].name, sweep_ms[t], "ms");
    result.metric(std::string("serve.scan_bytes_per_s.") + kTenants[t].name,
                  static_cast<double>(s1.tenants[t].scan_bytes_per_sec), "B/s");
  }
  result.metric("serve.epoch_retries",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::epoch_retries)), "count");
  result.metric("serve.epoch_fallbacks",
                static_cast<double>(delta(s0, s1, &serve::TenantStats::epoch_fallbacks)),
                "count");
  result.metric("loadgen.lag_ms", quantile(tr.lag_ms, 0.99), "ms");
  result.metric("qnn.forward_b1_ms", forward_b1, "ms");
  result.metric("qnn.forward_b1_roofline_pct", 100.0 * gmacs / dot, "%");
  result.metric("qnn.forward_b64_ms", median(b64), "ms");
  result.metric("qnn.calibrate_ms", calibrate_ms, "ms");
  result.metric("core.attach_ms", median(attach_ms), "ms");
  result.metric("core.load_package_ms", median(load_ms), "ms");
  result.metric("exp.make_bundle_s", make_bundle_s, "s");
  result.metric("machine.memcpy_gbps", memcpy, "GB/s");
  result.metric("machine.dot_i8_gops", dot, "GMAC/s");
  result.metric("trace.overhead_pct",
                overhead_pct(quantile(tr.latency_ms[0], 0.5), quantile(tr.latency_ms[1], 0.5),
                             /*higher_is_better=*/false),
                "%");
  tracer.write(args.work_dir + "/trace_serve.jsonl");
}

}  // namespace perfbench

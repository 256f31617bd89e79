// `verify`: an offline whole-model integrity check at paper scale.
//
// ResNet-18 (1000 classes, width 64: 11,671,232 int8 weights, an
// 11.67 MB arena that does not fit in L2) is initialised from the
// workload seed, signed radar2 with G=512 and interleaving, and saved as
// a v3 package. The measured loop then repeats, until the time is up:
//   * load_package with verification and the mmap'd golden copy;
//   * clean whole-model scans through a 1-thread ScanSession;
//   * inject -> scan -> kReloadClean recover -> confirming rescan cycles
//     of single MSB flips placed in distinct groups.
// No inference runs here: scan and recover are the whole cost.
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/package.h"
#include "core/scan_session.h"
#include "core/scheme_registry.h"
#include "nn/resnet.h"
#include "quant/qmodel.h"
#include "workloads.h"

namespace perfbench {

using namespace radar;

namespace {

constexpr int kSetups = 3;          ///< set-ups per run (setup_s median)
constexpr int kSettleScans = 3;     ///< untimed scans after each load
constexpr int kScansPerLoad = 12;   ///< timed clean scans after each load
constexpr int kCyclesPerLoad = 3;   ///< recover cycles after each load
constexpr int kFlipsPerCycle = 8;   ///< MSB flips, one per distinct group
constexpr int kThreadedScans = 64;  ///< tN scans in the traced probe
/// Every timing here is reported as its p90, not its median: scan times
/// are bimodal and the share of fast scans moves from run to run, so a
/// run's median jumps between the modes while its p90 stays put (see
/// NOTES.md).
constexpr double kQuantile = 0.9;

struct Model {
  std::unique_ptr<nn::ResNet> net;
  std::unique_ptr<quant::QuantizedModel> qm;
};

/// Samples of the measured loop.
struct Samples {
  std::vector<double> load_ms, scan_ms, cycle_ms;
  std::int64_t attempted = 0, failed = 0;
};

/// One measured phase: loads, clean scans and recover cycles until
/// `deadline`. Spans go to `tracer` when it is enabled.
Samples measure(const std::string& path, Model& m,
                const quant::ArenaSnapshot& clean, Rng& rng,
                Clock::time_point deadline, Tracer& tracer) {
  Samples s;
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::PackageLoadOptions load_opts;
  load_opts.threads = 1;
  load_opts.mmap_golden = true;
  core::DetectionReport report, confirm;
  const auto clean_bytes = clean.bytes();

  while (Clock::now() < deadline) {
    core::PackageLoadReport loaded;
    {
      Span span(tracer, "core.load_package");
      const auto t0 = Clock::now();
      loaded = core::load_package(path, *m.qm, scheme, load_opts);
      s.load_ms.push_back(ms_since(t0));
    }
    ++s.attempted;
    if (!loaded.verified() || !loaded.golden_mmapped) {
      std::printf("FAIL load: verified=%d mmapped=%d\n", loaded.verified(),
                  loaded.golden_mmapped);
      ++s.failed;
      continue;
    }
    core::ScanSession session(*scheme, 1);
    // The first scans after a load run up to 1.5x slower while the
    // session plans and the caches refill; they are set-up, not the
    // steady cost of a check.
    for (int k = 0; k < kSettleScans; ++k) session.scan_into(*m.qm, report);

    for (int k = 0; k < kScansPerLoad; ++k) {
      {
        Span span(tracer, "core.scan.t1");
        const auto t0 = Clock::now();
        session.scan_into(*m.qm, report);
        s.scan_ms.push_back(ms_since(t0));
      }
      ++s.attempted;
      if (report.attack_detected()) {
        std::printf("FAIL clean scan flagged %lld groups\n",
                    static_cast<long long>(report.num_flagged_groups()));
        ++s.failed;
      }
    }

    for (int c = 0; c < kCyclesPerLoad; ++c) {
      // Distinct (layer, group) targets, drawn before the clock starts.
      std::set<std::pair<std::size_t, std::int64_t>> groups;
      std::vector<std::pair<std::size_t, std::int64_t>> flips;
      while (static_cast<int>(flips.size()) < kFlipsPerCycle) {
        const auto [layer, idx] =
            m.qm->locate(rng.uniform_int(0, m.qm->total_weights() - 1));
        if (groups.insert({layer, scheme->layout(layer).group_of(idx)}).second)
          flips.emplace_back(layer, idx);
      }

      const auto t0 = Clock::now();
      {
        Span cycle(tracer, "verify.cycle");
        {
          Span span(tracer, "quant.flip_bit", cycle.id());
          for (const auto& [layer, idx] : flips) m.qm->flip_bit(layer, idx, 7);
        }
        {
          Span span(tracer, "core.scan.detect", cycle.id());
          session.scan_into(*m.qm, report);
        }
        {
          Span span(tracer, "core.recover", cycle.id());
          scheme->recover(*m.qm, report, core::RecoveryPolicy::kReloadClean);
        }
        {
          Span span(tracer, "core.scan.confirm", cycle.id());
          session.scan_into(*m.qm, confirm);
        }
      }
      s.cycle_ms.push_back(ms_since(t0));

      std::set<std::pair<std::size_t, std::int64_t>> flagged;
      for (std::size_t l = 0; l < report.flagged.size(); ++l)
        for (const std::int64_t g : report.flagged[l]) flagged.insert({l, g});
      const auto live = m.qm->arena().bytes();
      const bool restored =
          live.size() == clean_bytes.size() &&
          std::memcmp(live.data(), clean_bytes.data(), live.size()) == 0;
      ++s.attempted;
      if (flagged != groups || confirm.attack_detected() || !restored) {
        std::printf(
            "FAIL recover cycle: flagged %zu of %zu injected groups, "
            "confirm flagged %lld, arena restored=%d\n",
            flagged.size(), groups.size(),
            static_cast<long long>(confirm.num_flagged_groups()), restored);
        ++s.failed;
        m.qm->restore(clean);  // start the next cycle clean
      }
    }
  }
  return s;
}

}  // namespace

void run_verify(const Args& args, Result& result) {
  const nn::ResNetSpec spec = nn::ResNetSpec::resnet18(1000, 64);
  core::SchemeParams params;  // radar2 default: G=512, interleaved
  params.group_size = 512;
  params.interleave = true;
  const std::string path = args.work_dir + "/verify_resnet18.rpkg";

  // ---- set-up: build, quantise, sign and save, kSetups times ----
  Model m;
  std::vector<double> setup_s, attach_ms;
  for (int k = 0; k < kSetups; ++k) {
    m = Model{};  // release the previous copy before building the next
    const auto t0 = Clock::now();
    Rng init(args.seed);
    m.net = std::make_unique<nn::ResNet>(spec, init);
    m.qm = std::make_unique<quant::QuantizedModel>(*m.net);
    auto scheme = core::SchemeRegistry::instance().create("radar2", params);
    const auto ta = Clock::now();
    scheme->attach(*m.qm);
    attach_ms.push_back(ms_since(ta));
    core::save_package(path, *m.qm, *scheme, "resnet18-1000-w64");
    setup_s.push_back(ms_since(t0) * 1e-3);
  }
  const std::int64_t weights = m.qm->total_weights();
  const std::int64_t arena_bytes = m.qm->arena().size_bytes();
  std::printf("verify: resnet18(1000, 64) %lld weights, arena %lld bytes, "
              "radar2 G=512 interleaved; threads: 1 (scan, load), %u (tN probe)\n",
              static_cast<long long>(weights), static_cast<long long>(arena_bytes),
              std::thread::hardware_concurrency());
  print_quantiles("setup_s", "s", setup_s, {0.5});
  const quant::ArenaSnapshot clean = m.qm->snapshot();
  Rng rng(args.seed ^ 0x5EEDF11B5ULL);

  Tracer tracer(false);
  const auto start = Clock::now();
  const auto total = std::chrono::duration<double>(args.seconds);
  Samples untraced, traced;
  if (!args.trace) {
    untraced = measure(path, m, clean, rng,
                       start + std::chrono::duration_cast<Clock::duration>(total),
                       tracer);
  } else {
    // First half untraced, second half traced: the tracing overhead.
    untraced = measure(path, m, clean, rng,
                       start + std::chrono::duration_cast<Clock::duration>(total / 2),
                       tracer);
    tracer.set_enabled(true);
    traced = measure(path, m, clean, rng,
                     start + std::chrono::duration_cast<Clock::duration>(total),
                     tracer);
    tracer.set_enabled(false);
  }
  const Samples& all = args.trace ? traced : untraced;
  result.ops(untraced.attempted + traced.attempted,
             untraced.failed + traced.failed);
  result.gate("every load verified, every clean scan clean, every cycle "
              "flagged exactly its groups and restored the arena byte for byte",
              untraced.failed + traced.failed == 0);

  print_quantiles("latency_ms (t1 scan)", "ms", all.scan_ms, {0.0, 0.1, 0.5, 0.9});
  print_quantiles("verify.recover_ms (cycle)", "ms", all.cycle_ms, {0.0, 0.1, 0.5, 0.9});
  print_quantiles("core.load_package_ms", "ms", all.load_ms, {0.0, 0.1, 0.5, 0.9});

  if (!args.trace) {
    result.metric("latency_ms", quantile(untraced.scan_ms, kQuantile), "ms");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run: per-layer metrics ----
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::load_package(path, *m.qm, scheme, 1);
  core::ScanSession session_n(*scheme, 0);
  core::DetectionReport report;
  session_n.scan_into(*m.qm, report);  // spawn the pool, plan the shards
  std::vector<double> scan_tn;
  for (int k = 0; k < kThreadedScans; ++k) {
    const auto t0 = Clock::now();
    session_n.scan_into(*m.qm, report);
    scan_tn.push_back(ms_since(t0));
  }
  print_quantiles("core.scan_ms.tN", "ms", scan_tn, {0.5, 0.9});

  const double scan_t1 = quantile(tracer.durations_ms("core.scan.t1"), kQuantile);
  const double memcpy = memcpy_gbps(kRooflineBytes, 15);
  const double dot = dot_i8_gops();
  const double scan_gbps = static_cast<double>(arena_bytes) / scan_t1 * 1e-6;
  std::printf("roofline: memcpy %.2f GB/s over %zu bytes, dot_i8 %.2f GMAC/s; "
              "t1 scan streams %.2f GB/s = %.1f%% of memcpy\n",
              memcpy, kRooflineBytes, dot, scan_gbps,
              100.0 * scan_gbps / memcpy);

  result.metric("core.scan_ms.t1", scan_t1, "ms");
  result.metric("core.scan_ms.tN", quantile(scan_tn, kQuantile), "ms");
  result.metric("verify.recover_ms", quantile(traced.cycle_ms, kQuantile), "ms");
  result.metric("core.recover_ms",
                quantile(tracer.durations_ms("core.recover"), kQuantile), "ms");
  result.metric("core.attach_ms", median(attach_ms), "ms");
  result.metric("core.load_package_ms",
                quantile(tracer.durations_ms("core.load_package"), kQuantile), "ms");
  result.metric("core.scan_roofline_pct", 100.0 * scan_gbps / memcpy, "%");
  result.metric("machine.memcpy_gbps", memcpy, "GB/s");
  result.metric("machine.dot_i8_gops", dot, "GMAC/s");
  result.metric("trace.overhead_pct",
                overhead_pct(quantile(untraced.scan_ms, kQuantile),
                             quantile(traced.scan_ms, kQuantile),
                             /*higher_is_better=*/false),
                "%");
  tracer.write(args.work_dir + "/trace_verify.jsonl");
}

}  // namespace perfbench

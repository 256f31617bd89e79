// `campaign`: the paper-reproduction loop — CampaignRunner in
// kIncremental mode over untrained resnet20 replicas, random-MSB
// attackers and radar2 / radar3 / crc13 at G=32, with accuracy evaluated
// on an eval subset. Batched int8 evaluation through the thread pool
// dominates, with attack writes and dirty-write undo beside it; there is
// no per-request batch-1 work and no serve queue. The spec's seed is the
// workload seed, so each seed draws different attacks.
#include <cstdio>

#include "campaign/campaign.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "exp/workspace.h"
#include "workloads.h"

namespace perfbench {

using namespace radar;

namespace {

constexpr int kSetups = 3;              ///< replica set-ups (setup_s median)
constexpr std::size_t kThreads = 2;     ///< campaign trial workers (NOTES.md)
constexpr int kTrials = 2;              ///< 12 units per campaign
constexpr std::int64_t kEvalSubset = 64;
constexpr int kForwardB64Reps = 12;

campaign::CampaignSpec make_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.name = "perfbench";
  spec.model = "resnet20";
  spec.train = false;
  spec.trials = kTrials;
  spec.seed = seed;
  spec.eval_subset = kEvalSubset;
  for (const int flips : {10, 40}) {
    campaign::AttackerSpec a;
    a.kind = "random_msb";
    a.flips = flips;
    spec.attackers.push_back(a);
  }
  for (const char* id : {"radar2", "radar3", "crc13"}) {
    campaign::SchemeSpec s;
    s.id = id;
    s.params.group_size = 32;
    s.params.interleave = true;
    spec.schemes.push_back(s);
  }
  return spec;
}

struct Runs {
  std::vector<double> units_per_s, profile_s, eval_s, eval_images_per_s;
  std::string cells;  ///< report JSON without timing, of the first run
  bool deterministic = true;
};

/// Campaigns back to back (at least one), starting another only while it
/// is expected to end before `deadline`.
void measure(const campaign::CampaignSpec& spec, Clock::time_point deadline,
             Tracer& tracer, Runs& out) {
  const campaign::CampaignRunner runner(kThreads, 1, campaign::ScanMode::kIncremental);
  const double units = static_cast<double>(spec.num_trials_total());
  Clock::duration last{};
  do {
    campaign::CampaignReport report;
    const auto t0 = Clock::now();
    {
      Span span(tracer, "campaign.run");
      report = runner.run(spec);
    }
    last = Clock::now() - t0;
    const double wall_s = std::chrono::duration<double>(last).count();
    out.units_per_s.push_back(units / wall_s);
    out.profile_s.push_back(report.profile_seconds);
    out.eval_s.push_back(report.eval_seconds);
    out.eval_images_per_s.push_back(static_cast<double>(report.eval_images) /
                                    report.eval_seconds);
    const std::string cells = report.to_json(false);
    if (out.cells.empty()) out.cells = cells;
    out.deterministic = out.deterministic && cells == out.cells;
  } while (Clock::now() + last < deadline);
}

}  // namespace

void run_campaign(const Args& args, Result& result) {
  // ---- set-up: one campaign replica (bundle + calibrated engine) ----
  std::vector<double> setup_s, make_bundle_s;
  exp::ModelBundle bundle;
  for (int k = 0; k < kSetups; ++k) {
    bundle = exp::ModelBundle{};
    const auto t0 = Clock::now();
    bundle = exp::make_bundle("resnet20", false, false);
    make_bundle_s.push_back(ms_since(t0) * 1e-3);
    exp::ensure_engine(bundle);
    setup_s.push_back(ms_since(t0) * 1e-3);
  }
  print_quantiles("setup_s (replica)", "s", setup_s, {0.5});

  const campaign::CampaignSpec spec = make_spec(args.seed);
  std::printf("campaign: %s, %zu units (%zu cells x %d trials), eval_subset %lld; "
              "threads: %zu trial workers, 1 scan thread, global pool %zu\n",
              spec.model.c_str(), spec.num_trials_total(), spec.num_cells(),
              spec.trials, static_cast<long long>(spec.eval_subset), kThreads,
              ThreadPool::global().size());

  Tracer tracer(false);
  const auto start = Clock::now();
  const auto total = std::chrono::duration<double>(args.seconds);
  Runs untraced, traced;
  if (!args.trace) {
    measure(spec, start + std::chrono::duration_cast<Clock::duration>(total), tracer,
            untraced);
  } else {
    measure(spec, start + std::chrono::duration_cast<Clock::duration>(total / 2), tracer,
            untraced);
    tracer.set_enabled(true);
    measure(spec, start + std::chrono::duration_cast<Clock::duration>(total), tracer,
            traced);
    tracer.set_enabled(false);
  }
  const Runs& runs = args.trace ? traced : untraced;

  // ---- correctness: the same spec in kFull mode, outside the timing ----
  const campaign::CampaignRunner full(kThreads, 1, campaign::ScanMode::kFull);
  const std::string reference = full.run(spec).to_json(false);
  result.gate("every kIncremental report equals the others",
              untraced.deterministic && traced.deterministic &&
                  (traced.cells.empty() || traced.cells == untraced.cells));
  result.gate("kIncremental report cells equal the kFull run's",
              untraced.cells == reference);
  result.ops(static_cast<std::int64_t>(untraced.units_per_s.size() + traced.units_per_s.size()), 0);

  print_quantiles("campaign.units_per_s", "1/s", runs.units_per_s, {0.5});
  print_quantiles("campaign.profile_s", "s", runs.profile_s, {0.5});
  print_quantiles("campaign.eval_s", "s", runs.eval_s, {0.5});

  if (!args.trace) {
    result.metric("latency_ms", 1e3 / median(untraced.units_per_s), "ms");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced run: per-layer metrics ----
  data::SyntheticSpec in_spec = data::synthetic_cifar_spec();
  in_spec.seed = args.seed;
  const nn::Tensor batch = data::SyntheticDataset(in_spec, 0, 64).test_batch(0, 64).images;
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  bundle.engine->set_pool(&ThreadPool::global());
  std::vector<double> b64;
  for (int k = 0; k < kForwardB64Reps; ++k) {
    const auto t0 = Clock::now();
    bundle.engine->forward_into(batch, scratch, logits);
    b64.push_back(ms_since(t0));
  }

  result.metric("campaign.units_per_s", median(traced.units_per_s), "1/s");
  result.metric("campaign.profile_s", median(traced.profile_s), "s");
  result.metric("campaign.eval_s", median(traced.eval_s), "s");
  result.metric("campaign.eval_images_per_s", median(traced.eval_images_per_s), "1/s");
  result.metric("qnn.forward_b64_ms", median(b64), "ms");
  result.metric("exp.make_bundle_s", median(make_bundle_s), "s");
  result.metric("machine.memcpy_gbps", memcpy_gbps(kRooflineBytes, 15), "GB/s");
  result.metric("machine.dot_i8_gops", dot_i8_gops(), "GMAC/s");
  result.metric("trace.overhead_pct",
                overhead_pct(median(untraced.units_per_s), median(traced.units_per_s),
                             /*higher_is_better=*/true),
                "%");
  tracer.write(args.work_dir + "/trace_campaign.jsonl");
}

}  // namespace perfbench

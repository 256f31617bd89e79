// The benchmark's metric rows, as BENCHMARK.json lists them, and the
// check that a run reported each of them.
#include <cstdio>
#include <set>
#include <string>

#include "workloads.h"

namespace perfbench {

const std::vector<Row> kEndToEndRows = {
    {"latency_ms", "ms", kEveryWorkload},
    {"setup_s", "s", kEveryWorkload},
    {"peak_rss_mb", "MiB", kEveryWorkload},
};

const std::vector<Row> kPerLayerRows = {
    {"serve.infer_ms", "ms", kServe},
    {"serve.infer_p99_ms", "ms", kServe},
    {"serve.queue_wait_ms", "ms", kServe},
    {"serve.shed", "count", kServe},
    {"serve.deadline_expired", "count", kServe},
    {"serve.quarantines", "count", kServe},
    {"serve.scanner_restarts", "count", kServe},
    {"serve.worker_flags", "count", kServe},
    {"serve.infer_fail_ratio", "ratio", kServe},
    {"serve.inject_ms", "ms", kServe},
    {"serve.ttd_p50_ms", "ms", kServe},
    {"serve.ttd_p90_ms", "ms", kServe},
    {"serve.coverage_ms", "ms", kServe},
    {"serve.detect_ratio", "ratio", kServe},
    {"serve.groups_recovered", "count", kServe},
    {"serve.coverage_alarms", "count", kServe},
    {"serve.sweep_ms.radar2", "ms", kServe},
    {"serve.sweep_ms.radar3", "ms", kServe},
    {"serve.sweep_ms.crc13", "ms", kServe},
    {"serve.sweep_ms.radar2_noilv", "ms", kServe},
    {"serve.scan_bytes_per_s.radar2", "B/s", kServe},
    {"serve.scan_bytes_per_s.radar3", "B/s", kServe},
    {"serve.scan_bytes_per_s.crc13", "B/s", kServe},
    {"serve.scan_bytes_per_s.radar2_noilv", "B/s", kServe},
    {"serve.epoch_retries", "count", kServe},
    {"serve.epoch_fallbacks", "count", kServe},
    {"loadgen.lag_ms", "ms", kServe},
    {"qnn.forward_b1_ms", "ms", kServe},
    {"qnn.forward_b1_roofline_pct", "%", kServe},
    {"qnn.forward_b64_ms", "ms", kServe | kCampaign},
    {"qnn.calibrate_ms", "ms", kServe},
    {"verify.recover_ms", "ms", kVerify},
    {"core.scan_ms.t1", "ms", kVerify},
    {"core.scan_ms.tN", "ms", kVerify},
    {"core.scan_roofline_pct", "%", kVerify},
    {"core.recover_ms", "ms", kVerify},
    {"core.attach_ms", "ms", kServe | kVerify},
    {"core.load_package_ms", "ms", kServe | kVerify},
    {"core.slice_us.radar2", "us", kServe},
    {"core.slice_us.radar3", "us", kServe},
    {"core.slice_us.crc13", "us", kServe},
    {"core.slice_us.radar2_noilv", "us", kServe},
    {"core.slice_bytes_per_s.radar2", "B/s", kServe},
    {"core.slice_bytes_per_s.radar3", "B/s", kServe},
    {"core.slice_bytes_per_s.crc13", "B/s", kServe},
    {"core.slice_bytes_per_s.radar2_noilv", "B/s", kServe},
    {"exp.make_bundle_s", "s", kServe | kCampaign},
    {"campaign.units_per_s", "1/s", kCampaign},
    {"campaign.profile_s", "s", kCampaign},
    {"campaign.eval_s", "s", kCampaign},
    {"campaign.eval_images_per_s", "1/s", kCampaign},
    {"machine.memcpy_gbps", "GB/s", kEveryWorkload},
    {"machine.dot_i8_gops", "GMAC/s", kEveryWorkload},
    {"trace.overhead_pct", "%", kEveryWorkload},
};

void complete_rows(const Args& args, Result& result) {
  const unsigned workload = args.workload == "serve"    ? kServe
                            : args.workload == "verify" ? kVerify
                                                        : kCampaign;
  const std::vector<Row>& rows = args.trace ? kPerLayerRows : kEndToEndRows;
  std::set<std::string> named;
  std::vector<std::string> missing, wrong_unit, absent;
  std::vector<const Row*> zero;
  for (const Row& row : rows) {
    named.insert(row.name);
    const std::string* unit = result.unit_of(row.name);
    if (unit == nullptr && (row.workloads & workload) != 0) {
      missing.push_back(row.name);
    } else if (unit == nullptr) {
      absent.push_back(row.name);
      zero.push_back(&row);
    } else if (*unit != row.unit) {
      wrong_unit.push_back(row.name);
    }
  }
  std::vector<std::string> unnamed;
  for (const std::string& name : result.names())
    if (named.count(name) == 0) unnamed.push_back(name);

  const auto join = [](const std::vector<std::string>& v) {
    std::string s;
    for (const std::string& x : v) s += (s.empty() ? "" : ", ") + x;
    return s.empty() ? std::string("none") : s;
  };
  std::printf("not exercised by %s (reported as 0): %s\n", args.workload.c_str(),
              join(absent).c_str());
  for (const Row* row : zero) result.metric(row->name, 0.0, row->unit);
  result.gate("every metric of the run is reported (missing: " + join(missing) +
                  "; wrong unit: " + join(wrong_unit) + "; unknown: " + join(unnamed) + ")",
              missing.empty() && wrong_unit.empty() && unnamed.empty());
}

}  // namespace perfbench

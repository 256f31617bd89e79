// The benchmark's workloads. Each runs its set-up, measures for
// `args.seconds`, checks the program's outputs and adds its metrics to
// `result`: the end-to-end metrics when `args.trace` is off, the
// per-layer metrics (from spans, counters and direct probes) when on.
#pragma once

#include <vector>

#include "bench_common.h"

namespace perfbench {

void run_serve(const Args& args, Result& result);
void run_verify(const Args& args, Result& result);
void run_campaign(const Args& args, Result& result);

/// Bits of a metric row's workload mask.
enum : unsigned { kServe = 1u, kVerify = 2u, kCampaign = 4u, kEveryWorkload = 7u };

/// One metric of the benchmark: its name, its unit and the workloads whose
/// runs measure it. Every run reports every row of its kind (end-to-end
/// untraced, per-layer traced); a per-layer row of a layer the workload
/// does not exercise reads 0 there.
struct Row {
  const char* name;
  const char* unit;
  unsigned workloads;
};
extern const std::vector<Row> kEndToEndRows;
extern const std::vector<Row> kPerLayerRows;

/// Holds `result` to the rows of this run: adds 0 for each per-layer row
/// the workload does not exercise, and fails a gate when a row the
/// workload measures is missing, a unit differs from its row's, or a
/// metric has no row.
void complete_rows(const Args& args, Result& result);

/// Tracing overhead of a traced run: how much worse the workload's
/// headline metric read with spans on than with spans off, in percent
/// (positive: tracing made it worse).
inline double overhead_pct(double untraced, double traced, bool higher_is_better) {
  return higher_is_better ? (untraced / traced - 1.0) * 100.0
                          : (traced / untraced - 1.0) * 100.0;
}

}  // namespace perfbench

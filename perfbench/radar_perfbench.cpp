// radar_perfbench — the RADAR benchmark program.
//
//   radar_perfbench --workload serve|verify|campaign --seed N
//                   --seconds S --trace 0|1 [--work-dir D]
//
// Runs one workload against the library's public entry points, checks
// its outputs, and prints a JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit code 0 only when every correctness gate passed.
#include <cstdio>
#include <exception>
#include <filesystem>

#include "common/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  radar::set_log_level(radar::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  perfbench::Result result;
  try {
    if (args.workload == "serve") {
      perfbench::run_serve(args, result);
    } else if (args.workload == "verify") {
      perfbench::run_verify(args, result);
    } else if (args.workload == "campaign") {
      perfbench::run_campaign(args, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::complete_rows(args, result);
  return result.finish();
}

#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "common/simd_ops.h"

namespace perfbench {

bool parse_args(int argc, char** argv, Args& out) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      out.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      out.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      out.seconds = std::atof(v);
    } else if (a == "--trace") {
      out.trace = std::atoi(v) != 0;
    } else if (a == "--work-dir") {
      out.work_dir = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    }
  }
  if (!have_workload || !(out.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: radar_perfbench --workload serve|verify|campaign "
                 "--seed N --seconds S --trace 0|1 [--work-dir D]\n");
    return false;
  }
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void print_quantiles(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples,
                     const std::vector<double>& qs) {
  std::printf("%-28s n=%zu", name.c_str(), samples.size());
  for (const double q : qs) {
    const double v = quantile(samples, q);
    const auto beyond = std::count_if(samples.begin(), samples.end(),
                                      [v](double s) { return s > v; });
    std::printf("  p%g %.4f %s (%td beyond)", q * 100.0, v, unit.c_str(), beyond);
  }
  std::printf("\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------
std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request, std::uint64_t id) {
  if (id == 0) id = reserve_id();
  if (id == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// Roofline
// ---------------------------------------------------------------------
double memcpy_gbps(std::size_t bytes, int reps) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::memcpy(dst.data(), src.data(), bytes);  // fault the pages in
  std::vector<double> gbps;
  for (int r = 0; r < reps; ++r) {
    src[static_cast<std::size_t>(r) % bytes] = static_cast<char>(r);
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), bytes);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    gbps.push_back(static_cast<double>(bytes) / s * 1e-9);
  }
  if (dst[bytes / 2] != src[bytes / 2]) return 0.0;  // keeps the copies live
  return median(gbps);
}

double dot_i8_gops() {
  constexpr std::int64_t kLen = 8192;  // 2 x 8 KiB operands: L1-resident
  constexpr int kCalls = 4096;
  radar::Rng rng(0xD07);
  std::vector<std::int8_t> a(kLen), b(kLen);
  for (std::int64_t i = 0; i < kLen; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    b[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  std::vector<double> rates;
  std::int64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    for (int c = 0; c < kCalls; ++c) {
      a[static_cast<std::size_t>(c) % kLen] ^= 1;  // defeat hoisting
      sink += radar::simd::dot_i8(a.data(), b.data(), kLen);
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    rates.push_back(static_cast<double>(kLen) * kCalls / s * 1e-9);
  }
  if (sink == 0x7FFFFFFFFFFFLL) std::printf("#\n");  // keeps `sink` live
  return median(rates);
}

// ---------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------
void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    std::printf("FAIL metric %s is not a finite number\n", name.c_str());
    correct_ = false;
    value = -1.0;
  }
  metrics_.push_back({name, unit, value});
}

void Result::gate(const std::string& what, bool ok) {
  std::printf("%s gate: %s\n", ok ? "PASS" : "FAIL", what.c_str());
  op(ok);
  if (!ok) correct_ = false;
}

const std::string* Result::unit_of(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m.unit;
  return nullptr;
}

std::vector<std::string> Result::names() const {
  std::vector<std::string> out;
  for (const auto& m : metrics_) out.push_back(m.name);
  return out;
}

int Result::finish() const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench

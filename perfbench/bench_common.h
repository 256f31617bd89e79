// Shared plumbing of the RADAR benchmark: command-line arguments, exact
// sample quantiles, in-memory span tracing, the machine roofline probes
// and the one-line JSON result the benchmark ends with.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  ///< packages and traces
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--work-dir D]`.
/// Returns false (after printing why) on a malformed command line.
bool parse_args(int argc, char** argv, Args& out);

/// Exact quantile of the samples (linear interpolation between order
/// statistics, the "type 7" rule). `q` in [0, 1]; NaN when empty.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Prints "name: p50 X unit (n=N) pQQ Y unit (M beyond)" for a sample set,
/// so every percentile appears beside the count that supports it.
void print_quantiles(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples,
                     const std::vector<double>& qs);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's calls into each library layer,
// kept in memory and written out when the run ends. Disabled tracers
// record nothing (one branch per call site).
// ---------------------------------------------------------------------
struct SpanRecord {
  const char* name;
  std::int64_t start_ns, end_ns;
  std::uint64_t id, parent;  ///< parent 0: root span
  std::uint64_t request;     ///< spans of one request share this (0: none)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Switch recording on or off (phase boundaries of a traced run).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// A fresh span id, so children can name a parent before it ends
  /// (0 when disabled).
  std::uint64_t reserve_id() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Record one finished span under `id` (0: a fresh one); returns the id
  /// (0 when disabled).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  /// Durations (ms) of every recorded span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Write every span as JSON lines to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span: records [construction, destruction) under `parent`.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer.reserve_id()),
        start_ns_(id_ != 0 ? now_ns() : 0) {}
  ~Span() {
    if (id_ != 0) tracer_.record(name_, start_ns_, now_ns(), parent_, request_, id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id, the parent of spans it causes (0 when disabled).
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t parent_, request_, id_;
  std::int64_t start_ns_;
};

// ---------------------------------------------------------------------
// Machine roofline.
// ---------------------------------------------------------------------
/// Buffer size of the memcpy roofline row on every workload: the arena
/// of the paper-scale `verify` model (ResNet-18, 11,671,232 weights).
constexpr std::size_t kRooflineBytes = 11671232;

/// memcpy bandwidth over a `bytes`-sized buffer, in GB/s of bytes copied
/// (each byte is read once and written once). Median of `reps` copies.
double memcpy_gbps(std::size_t bytes, int reps);
/// Peak int8 dot-product rate of the library's dispatched dot_i8 kernel
/// on L1-resident operands, in G multiply-accumulates per second.
double dot_i8_gops();

// ---------------------------------------------------------------------
// Result: the metrics of one run, printed as the final JSON line.
// ---------------------------------------------------------------------
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one operation; `ok == false` counts it failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A correctness gate: prints the verdict, counts one operation.
  void gate(const std::string& what, bool ok);

  /// Unit of the metric called `name`; nullptr when it was not added.
  const std::string* unit_of(const std::string& name) const;
  /// Names of every metric added, in order.
  std::vector<std::string> names() const;

  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }
  /// Prints the JSON line; returns the process exit code.
  int finish() const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

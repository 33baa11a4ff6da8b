// Shared plumbing of the wall-clock benchmark: clocks and order statistics,
// process resource usage, the in-memory span recorder of traced runs, and
// the result line every run ends with.
//
// Spans are recorded by the benchmark itself, around its calls into each
// layer of the system (a span per call; the system under test is never
// edited). Each span has a name, start, end, the span that caused it and
// the id of the unit of work it belongs to; the recorder keeps them in
// memory and writes them out when the run ends.

#ifndef MUSKETEER_PERFBENCH_BENCH_H_
#define MUSKETEER_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> values);

// The highest whole percentile that still has at least ten samples beyond
// it (nearest-rank). With fewer than 20 samples no percentile above the
// median qualifies and the maximum is reported, marked percentile 100.
struct Tail {
  double value = 0;
  int percentile = 100;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

// User+system CPU seconds of this process so far.
double CpuSeconds();
// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

class SpanRecorder {
 public:
  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;   // 0 = root
    uint64_t request = 0;  // the unit of work the span belongs to
    double start_us = 0;   // since the recorder was made
    double end_us = 0;
  };

  SpanRecorder() : epoch_(Clock::now()) {}

  // Counts a named quantity against `request` (summed per request when
  // folded, like span durations).
  void Count(uint64_t request, const std::string& name, double value);

  // Per-request sums of span durations (ms) and counts: name -> request ->
  // sum. Only requests that recorded the name appear under it.
  using Folded = std::map<std::string, std::map<uint64_t, double>>;
  Folded FoldByRequest() const;
  // Per-request maximum of one span name's durations (ms).
  std::vector<double> MaxByRequest(const std::string& name) const;

  // Writes every span as a JSON array of objects with the keys name, id,
  // parent, request, start_us and end_us. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  friend class ScopedSpan;
  uint64_t Begin();
  void End(Record record);

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;         // guarded by mu_
  std::vector<Record> spans_;    // guarded by mu_
  std::map<std::pair<uint64_t, std::string>, double> counts_;  // guarded by mu_
};

// Median over requests of `folded[name]`; 0 when no request recorded it.
double MedianPerRequest(const SpanRecorder::Folded& folded,
                        const std::string& name);

// Times one call into a layer. With a null recorder it only times (the
// untraced path), so traced and untraced runs execute the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, uint64_t request,
             uint64_t parent = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span early; returns its duration in ms. Idempotent.
  double End();
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::string name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_ = 0;
  Clock::time_point start_;
  double ms_ = -1;
};

// How fast the host ran, and when. The benchmark shares its cores with
// other machines' work, whose load moves every wall-clock and CPU figure by
// up to 2x, in phases of seconds to minutes: far more than a run can average
// out. So each run times a fixed calibration task, the benchmark's own code
// and never the system's (hashing, sorting and allocation over a few MB, as
// in the relational kernels), at points where the system under test is
// idle, and divides each timed unit of work by the factor measured around
// it. The raw figures go to the info line.
//
// The task runs on one thread of an otherwise idle process, so the factor
// follows the host, not contention among the process's own threads; the
// workloads keep few threads busy at once for that reason.
class HostSpeed {
 public:
  // The calibration time normalized figures are scaled to: they read as
  // milliseconds of a host on which the task takes this long. It only sets
  // the scale; the task takes 7 to 12 ms on the 4-core 2.1 GHz Xeon VM the
  // benchmark was tuned on.
  static constexpr double kReferenceMs = 10.0;
  // Samples a factor is the median of.
  static constexpr size_t kNearest = 10;

  // Times the calibration task once.
  void Sample();
  // Times it `count` times in a row.
  void Burst(int count) {
    for (int i = 0; i < count; ++i) Sample();
  }
  // Median calibration time over kReferenceMs of the kNearest samples taken
  // closest to `t`: above 1 where the host ran slower than the reference.
  // 1 before any sample.
  double FactorAt(Clock::time_point t) const;
  // The same over every sample.
  double Factor() const;
  size_t samples() const { return samples_.size(); }
  // Wall time spent sampling so far.
  double wall_ms() const { return wall_ms_; }

 private:
  struct Timed {
    Clock::time_point at;  // middle of the sample
    double ms;
  };
  std::vector<Timed> samples_;  // in time order
  double wall_ms_ = 0;
};

// Collects a run's outcome and prints it. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics;
// a preceding "# info" line carries the host descriptor and the context a
// metric needs to be read (percentiles used, sample counts, notes).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // A metric normalized to host speed (see HostSpeed); `raw` is the value as
  // timed, kept on the info line under "raw_metrics".
  void Normalized(const std::string& name, double value, double raw,
                  const std::string& unit);
  // `json` is a complete JSON value.
  void Info(const std::string& key, const std::string& json);
  void InfoNumber(const std::string& key, double value);
  void InfoString(const std::string& key, const std::string& value);

  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A failed check that is not one attempted unit of work (a reference that
  // disagrees with the interpreter, a relation-name clash in a mix).
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && problems_.empty(); }

  // Makes the metrics exactly `names`, in that order. A listed metric no
  // one reported is added as 0 and named under the info key `missing_key`;
  // an unlisted one moves to the info line under "other_metrics". Returns
  // how many were missing.
  int KeepExactly(std::span<const std::pair<const char*, const char*>> names,
                  const std::string& missing_key);

  HostSpeed& host() { return host_; }
  // Puts the run's host speed factor and the raw values of the normalized
  // metrics on the info line.
  void InfoHostSpeed();

  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> raw_;
  HostSpeed host_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> problems_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // MUSKETEER_PERFBENCH_BENCH_H_

#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "src/base/json.h"

namespace perfbench {
namespace {

// Nearest-rank percentile p (0 < p <= 100) of `values`.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const double n = static_cast<double>(values.size());
  // Highest whole p with n * (1 - p/100) >= 10.
  const int p = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n)));
  if (p <= 50) {
    tail.value = *std::max_element(values.begin(), values.end());
    tail.percentile = 100;
  } else {
    tail.value = Percentile(std::move(values), p);
    tail.percentile = p;
  }
  return tail;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- HostSpeed ----

namespace {

volatile uint64_t calibration_sink;

// The calibration task: 64K xorshift keys counted into a hash map of 40K
// slots, then sorted. Fixed work.
void CalibrationTask() {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::vector<uint64_t> keys(1 << 16);
  for (uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::unordered_map<uint64_t, uint64_t> counts;
  for (uint64_t k : keys) counts[k % 40000] += k;
  std::sort(keys.begin(), keys.end());
  uint64_t sum = keys[keys.size() / 2];
  for (const auto& [k, v] : counts) sum += k ^ v;
  calibration_sink = sum;
}

}  // namespace

void HostSpeed::Sample() {
  const Clock::time_point start = Clock::now();
  CalibrationTask();
  const Clock::time_point end = Clock::now();
  const double ms = MsBetween(start, end);
  samples_.push_back({start + (end - start) / 2, ms});
  wall_ms_ += ms;
}

double HostSpeed::FactorAt(Clock::time_point t) const {
  if (samples_.empty()) return 1.0;
  // Grow a window around t's place in time order, taking the nearer side.
  size_t hi = std::lower_bound(samples_.begin(), samples_.end(), t,
                               [](const Timed& s, Clock::time_point at) {
                                 return s.at < at;
                               }) -
              samples_.begin();
  size_t lo = hi;
  while (hi - lo < kNearest && (lo > 0 || hi < samples_.size())) {
    if (hi == samples_.size() ||
        (lo > 0 && t - samples_[lo - 1].at < samples_[hi].at - t)) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<double> ms;
  for (size_t i = lo; i < hi; ++i) ms.push_back(samples_[i].ms);
  return Median(std::move(ms)) / kReferenceMs;
}

double HostSpeed::Factor() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> ms;
  for (const Timed& s : samples_) ms.push_back(s.ms);
  return Median(std::move(ms)) / kReferenceMs;
}

// ---- SpanRecorder ----

uint64_t SpanRecorder::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::End(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

void SpanRecorder::Count(uint64_t request, const std::string& name,
                         double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[{request, name}] += value;
}

SpanRecorder::Folded SpanRecorder::FoldByRequest() const {
  std::lock_guard<std::mutex> lock(mu_);
  Folded out;
  for (const auto& [key, value] : counts_) {
    out[key.second][key.first] += value;
  }
  for (const Record& span : spans_) {
    out[span.name][span.request] += (span.end_us - span.start_us) / 1000.0;
  }
  return out;
}

double MedianPerRequest(const SpanRecorder::Folded& folded,
                        const std::string& name) {
  auto it = folded.find(name);
  if (it == folded.end()) return 0;
  std::vector<double> values;
  for (const auto& [request, value] : it->second) values.push_back(value);
  return Median(std::move(values));
}

std::vector<double> SpanRecorder::MaxByRequest(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> max_ms;
  for (const Record& span : spans_) {
    if (span.name != name) continue;
    double& slot = max_ms[span.request];
    slot = std::max(slot, (span.end_us - span.start_us) / 1000.0);
  }
  std::vector<double> out;
  for (const auto& [request, ms] : max_ms) out.push_back(ms);
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << musketeer::JsonQuote(s.name)
        << ", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request;
    std::snprintf(buf, sizeof(buf), ", \"start_us\": %.3f, \"end_us\": %.3f}",
                  s.start_us, s.end_us);
    out << buf;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

// ---- ScopedSpan ----

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       uint64_t request, uint64_t parent)
    : recorder_(recorder),
      name_(std::move(name)),
      request_(request),
      parent_(parent) {
  if (recorder_ != nullptr) id_ = recorder_->Begin();
  start_ = Clock::now();
}

double ScopedSpan::End() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (recorder_ != nullptr) {
    SpanRecorder::Record record;
    record.name = std::move(name_);
    record.id = id_;
    record.parent = parent_;
    record.request = request_;
    record.start_us = 1000.0 * MsBetween(recorder_->epoch_, start_);
    record.end_us = 1000.0 * MsBetween(recorder_->epoch_, end);
    recorder_->End(std::move(record));
  }
  return ms_;
}

// ---- Report ----

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Normalized(const std::string& name, double value, double raw,
                        const std::string& unit) {
  Metric(name, value, unit);
  raw_.push_back({name, raw});
}

void Report::Info(const std::string& key, const std::string& json) {
  info_.push_back({key, json});
}

void Report::InfoNumber(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Info(key, std::isfinite(value) ? buf : "null");
}

void Report::InfoString(const std::string& key, const std::string& value) {
  Info(key, musketeer::JsonQuote(value));
}

void Report::Fail(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
}

int Report::KeepExactly(
    std::span<const std::pair<const char*, const char*>> names,
    const std::string& missing_key) {
  auto reported = std::move(metrics_);
  metrics_.clear();
  std::string missing;
  int missing_count = 0;
  for (const auto& [name, unit] : names) {
    auto it = std::find_if(reported.begin(), reported.end(),
                           [&](const auto& m) { return m.first == name; });
    if (it == reported.end()) {
      metrics_.push_back({name, {0.0, unit}});
      missing += (missing.empty() ? "" : ", ") + musketeer::JsonQuote(name);
      ++missing_count;
    } else {
      metrics_.push_back(std::move(*it));
      reported.erase(it);
    }
  }
  if (!missing.empty()) Info(missing_key, "[" + missing + "]");
  std::string other;
  char buf[64];
  for (const auto& [name, value_unit] : reported) {
    std::snprintf(buf, sizeof(buf), "%.17g", value_unit.first);
    other += (other.empty() ? "" : ", ") + musketeer::JsonQuote(name) + ": " +
             (std::isfinite(value_unit.first) ? buf : "null");
  }
  if (!other.empty()) Info("other_metrics", "{" + other + "}");
  return missing_count;
}

void Report::InfoHostSpeed() {
  std::string raw;
  char buf[64];
  for (const auto& [name, value] : raw_) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    raw += (raw.empty() ? "" : ", ") + musketeer::JsonQuote(name) + ": " + buf;
  }
  InfoNumber("host_speed_factor", host_.Factor());
  InfoNumber("host_speed_samples", static_cast<double>(host_.samples()));
  InfoNumber("host_speed_reference_ms", HostSpeed::kReferenceMs);
  Info("raw_metrics", "{" + raw + "}");
}

void Report::Print() const {
  std::string info = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) info += ", ";
    info += musketeer::JsonQuote(info_[i].first) + ": " + info_[i].second;
  }
  if (!problems_.empty()) {
    info += info_.empty() ? "" : ", ";
    info += "\"problems\": [";
    for (size_t i = 0; i < problems_.size(); ++i) {
      if (i > 0) info += ", ";
      info += musketeer::JsonQuote(problems_[i]);
    }
    info += "]";
  }
  info += "}";
  std::printf("# info %s\n", info.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    const double value = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) line += ", ";
    line += musketeer::JsonQuote(name) + ": {\"value\": " + buf +
            ", \"unit\": " + musketeer::JsonQuote(value_unit.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/file_util.h"

namespace zerotune::obs {

namespace {

// Stable per-thread shard index. A global round-robin assignment keeps
// concurrent threads on distinct cache lines with high probability while
// staying deterministic enough for tests.
size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

std::string LabelsText(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

std::string LabelsJson(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"";
    out += JsonEscape(labels[i].first);
    out += "\": \"";
    out += JsonEscape(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

void Counter::Increment(uint64_t delta) {
  shards_[ThreadShard()].value.fetch_add(delta, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Set(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
}

void Gauge::Add(double delta) {
  uint64_t expected = bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current;
    std::memcpy(&current, &expected, sizeof(current));
    const double updated = current + delta;
    uint64_t desired;
    std::memcpy(&desired, &updated, sizeof(desired));
    if (bits_.compare_exchange_weak(expected, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

double Gauge::Value() const {
  const uint64_t bits = bits_.load(std::memory_order_relaxed);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

HistogramMetric::HistogramMetric(double min_value, double max_value,
                                 size_t buckets_per_decade)
    : min_value_(min_value),
      max_value_(max_value),
      buckets_per_decade_(buckets_per_decade) {
  const Histogram layout(min_value, max_value, buckets_per_decade);
  shards_.reserve(kMetricShards);
  for (size_t i = 0; i < kMetricShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(layout));
  }
}

void HistogramMetric::Record(double value) {
  Shard& shard = *shards_[ThreadShard()];
  MutexLock lock(shard.mu);
  shard.histogram.Record(value);
}

Histogram HistogramMetric::Snapshot() const {
  Histogram merged(min_value_, max_value_, buckets_per_decade_);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // All shards are stamped from one layout at construction, so a merge
    // failure would be a programming error, not an input error.
    ZT_CHECK_OK(merged.Merge(shard->histogram));
  }
  return merged;
}

uint64_t HistogramMetric::count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->histogram.count();
  }
  return total;
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

MetricsRegistry::Key MetricsRegistry::MakeKey(const std::string& name,
                                              Labels labels) {
  std::sort(labels.begin(), labels.end());
  return {name, std::move(labels)};
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_.emplace(std::move(key), std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::move(key), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return it->second.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const Labels& labels,
                                               double min_value,
                                               double max_value,
                                               size_t buckets_per_decade) {
  Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::move(key),
                      std::unique_ptr<HistogramMetric>(new HistogramMetric(
                          min_value, max_value, buckets_per_decade)))
             .first;
  }
  return it->second.get();
}

std::optional<uint64_t> MetricsRegistry::CounterValue(
    const std::string& name, const Labels& labels) const {
  const Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) return std::nullopt;
  return it->second->Value();
}

std::optional<double> MetricsRegistry::GaugeValue(const std::string& name,
                                                  const Labels& labels) const {
  const Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) return std::nullopt;
  return it->second->Value();
}

std::optional<Histogram> MetricsRegistry::HistogramSnapshot(
    const std::string& name, const Labels& labels) const {
  const Key key = MakeKey(name, labels);
  MutexLock lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) return std::nullopt;
  return it->second->Snapshot();
}

std::string MetricsRegistry::ToText() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [key, counter] : counters_) {
    os << key.first << LabelsText(key.second) << " " << counter->Value()
       << "\n";
  }
  for (const auto& [key, gauge] : gauges_) {
    os << key.first << LabelsText(key.second) << " " << JsonNum(gauge->Value())
       << "\n";
  }
  for (const auto& [key, histogram] : histograms_) {
    os << key.first << LabelsText(key.second) << " "
       << histogram->Snapshot().Summary() << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    os << (first ? "" : ",") << "\n    {\"name\": \"" << JsonEscape(key.first)
       << "\", \"labels\": " << LabelsJson(key.second)
       << ", \"value\": " << counter->Value() << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"gauges\": [";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    os << (first ? "" : ",") << "\n    {\"name\": \"" << JsonEscape(key.first)
       << "\", \"labels\": " << LabelsJson(key.second)
       << ", \"value\": " << JsonNum(gauge->Value()) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"histograms\": [";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    const Histogram snap = histogram->Snapshot();
    os << (first ? "" : ",") << "\n    {\"name\": \"" << JsonEscape(key.first)
       << "\", \"labels\": " << LabelsJson(key.second)
       << ", \"count\": " << snap.count()
       << ", \"mean\": " << JsonNum(snap.Mean())
       << ", \"min\": " << JsonNum(snap.min())
       << ", \"p50\": " << JsonNum(snap.Percentile(50))
       << ", \"p95\": " << JsonNum(snap.Percentile(95))
       << ", \"p99\": " << JsonNum(snap.Percentile(99))
       << ", \"max\": " << JsonNum(snap.max()) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return AtomicWriteFile(path, ToJson());
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace zerotune::obs

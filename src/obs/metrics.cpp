#include "obs/metrics.hpp"

#include <cstdio>
#include <ostream>

namespace pts::obs {

namespace {

/// Metric names are our own identifiers ([a-z0-9_]), but escape defensively
/// anyway — a bad name must not produce an unparseable export.
void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[40];
  // %.9g: enough digits that microsecond-scale latencies survive the trip
  // through a scrape, without the %.17g bloat.
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct HistogramRow {
  std::string name;
  LogHistogram hist;
};

}  // namespace

MetricCounter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<MetricCounter>())
             .first;
  }
  return *it->second;
}

MetricGauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<MetricGauge>())
             .first;
  }
  return *it->second;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<MetricHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    out << "# TYPE pts_" << name << " counter\n";
    out << "pts_" << name << ' ' << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    out << "# TYPE pts_" << name << " gauge\n";
    out << "pts_" << name << ' ' << fmt_double(gauge->value()) << '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    const auto hist = histogram->snapshot();
    out << "# TYPE pts_" << name << " summary\n";
    for (const auto& [label, q] :
         {std::pair{"0.5", 0.5}, std::pair{"0.9", 0.9}, std::pair{"0.99", 0.99}}) {
      out << "pts_" << name << "{quantile=\"" << label << "\"} "
          << fmt_double(hist.percentile(q)) << '\n';
    }
    out << "pts_" << name << "_sum " << fmt_double(hist.sum()) << '\n';
    out << "pts_" << name << "_count " << hist.count() << '\n';
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    std::string line = "{\"metric\":\"";
    append_escaped(line, name);
    line += "\",\"type\":\"counter\",\"value\":";
    line += std::to_string(counter->value());
    line += '}';
    out << line << '\n';
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string line = "{\"metric\":\"";
    append_escaped(line, name);
    line += "\",\"type\":\"gauge\",\"value\":";
    line += fmt_double(gauge->value());
    line += '}';
    out << line << '\n';
  }
  for (const auto& [name, histogram] : histograms_) {
    const auto hist = histogram->snapshot();
    std::string line = "{\"metric\":\"";
    append_escaped(line, name);
    line += "\",\"type\":\"histogram\",\"count\":";
    line += std::to_string(hist.count());
    line += ",\"sum\":" + fmt_double(hist.sum());
    line += ",\"min\":" + fmt_double(hist.min());
    line += ",\"max\":" + fmt_double(hist.max());
    line += ",\"p50\":" + fmt_double(hist.percentile(0.5));
    line += ",\"p90\":" + fmt_double(hist.percentile(0.9));
    line += ",\"p99\":" + fmt_double(hist.percentile(0.99));
    line += '}';
    out << line << '\n';
  }
}

void MetricsRegistry::write_histogram_csv(std::ostream& out) const {
  std::vector<HistogramRow> rows;
  {
    std::scoped_lock lock(mutex_);
    rows.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      rows.push_back({name, histogram->snapshot()});
    }
  }
  out << "name,count,sum,min,max,p50,p90,p99\n";
  for (const auto& row : rows) {
    out << row.name << ',' << row.hist.count() << ','
        << fmt_double(row.hist.sum()) << ',' << fmt_double(row.hist.min())
        << ',' << fmt_double(row.hist.max()) << ','
        << fmt_double(row.hist.percentile(0.5)) << ','
        << fmt_double(row.hist.percentile(0.9)) << ','
        << fmt_double(row.hist.percentile(0.99)) << '\n';
  }
}

std::vector<MetricsRegistry::CounterDelta> MetricsRegistry::drain_counter_deltas() {
  std::scoped_lock lock(mutex_);
  std::vector<CounterDelta> deltas;
  for (const auto& [name, counter] : counters_) {
    const auto total = counter->value();
    auto& drained = drained_totals_[name];
    if (total > drained) {
      deltas.push_back({name, total - drained});
      drained = total;
    }
  }
  return deltas;
}

void MetricsRegistry::apply_counter_delta(std::string_view name,
                                          std::uint64_t delta) {
  counter(name).add_raw(delta);
}

void MetricsRegistry::reset_values() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  drained_totals_.clear();
}

bool MetricsRegistry::has_histogram_samples() const {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, histogram] : histograms_) {
    if (histogram->snapshot().count() > 0) return true;
  }
  return false;
}

MetricsRegistry& metrics() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace pts::obs

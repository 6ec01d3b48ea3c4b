#include "obs/report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/trace.hpp"  // append_json_string, detail::append_json_number
#include "util/lock_order.hpp"
#include "util/sync.hpp"

namespace gaplan::obs {

namespace {

/// JSON number formatting shared with the trace layer: non-finite values
/// (a histogram fed an inf observation, say) render as null, never as the
/// invalid-JSON literals inf/nan.
void append_num(std::string& out, double v) {
  detail::append_json_number(out, v);
}

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; gaplan's dotted
/// names map dots (and any other stray byte) to underscores under a
/// "gaplan_" namespace prefix.
std::string prom_name(const std::string& name) {
  std::string out = "gaplan_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void prom_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";  // Prometheus sample-value tokens, not JSON
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

}  // namespace

std::string render_metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, c.name);
    out += ':';
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, g.name);
    out += ':';
    out += std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, h.name);
    out += ":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    append_num(out, h.sum);
    out += ",\"mean\":";
    append_num(out, h.mean());
    out += ",\"p50\":";
    append_num(out, h.percentile(0.5));
    out += ",\"p95\":";
    append_num(out, h.p95());
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ',';
      out += "{\"le\":";
      if (i < h.bounds.size()) {
        append_num(out, h.bounds[i]);
      } else {
        out += "null";  // overflow bucket
      }
      out += ",\"n\":";
      out += std::to_string(h.counts[i]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string render_metrics_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& c : snap.counters) {
    const std::string name = prom_name(c.name) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + ' ' + std::to_string(c.value) + '\n';
  }
  for (const auto& g : snap.gauges) {
    const std::string name = prom_name(g.name);
    out += "# TYPE " + name + " gauge\n";
    out += name + ' ';
    prom_number(out, g.value);
    out += '\n';
  }
  for (const auto& h : snap.histograms) {
    const std::string name = prom_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cum += h.counts[i];
      out += name + "_bucket{le=\"";
      if (i < h.bounds.size()) {
        prom_number(out, h.bounds[i]);
      } else {
        out += "+Inf";
      }
      out += "\"} " + std::to_string(cum) + '\n';
    }
    out += name + "_sum ";
    prom_number(out, h.sum);
    out += '\n';
    out += name + "_count " + std::to_string(h.count) + '\n';
  }
  if (out.empty()) out = "# (no metrics registered)\n";
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace

bool write_metrics_json(const std::string& path) {
  return write_file(path, render_metrics_json(snapshot_metrics()));
}

bool write_metrics_prometheus(const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, render_metrics_prometheus(snapshot_metrics()))) {
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

struct MetricsDumper::Impl {
  util::Mutex mu{"obs.dumper", util::lock_order::kRankMetricsDumper};
  util::CondVar cv;
  bool stopping GAPLAN_GUARDED_BY(mu) = false;
  std::thread thread;
};

MetricsDumper::MetricsDumper(std::string path, double interval_ms)
    : path_(std::move(path)), impl_(new Impl()) {
  if (interval_ms < 1.0) interval_ms = 1.0;
  impl_->thread = std::thread([this, interval_ms] {
    const auto interval =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(interval_ms));
    util::MutexLock lock(impl_->mu);
    while (!impl_->stopping) {
      const auto deadline = std::chrono::steady_clock::now() + interval;
      bool expired = false;
      while (!impl_->stopping && !expired) {
        expired = !impl_->cv.wait_until(lock, deadline);
      }
      if (impl_->stopping) break;  // final dump happens in stop(), post-join
      lock.unlock();
      write_metrics_prometheus(path_);
      lock.lock();
    }
  });
}

void MetricsDumper::stop() {
  {
    util::MutexLock lock(impl_->mu);
    if (impl_->stopping) return;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  write_metrics_prometheus(path_);
}

MetricsDumper::~MetricsDumper() {
  stop();
  delete impl_;
}

}  // namespace gaplan::obs

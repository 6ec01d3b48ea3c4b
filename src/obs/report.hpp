// Metrics exporters: render a MetricsSnapshot as a JSON document or as
// Prometheus text exposition, and dump the live registry to a file — once
// (write_metrics_json) or periodically (MetricsDumper, the live telemetry
// plane of gaplan-serve). The bench harnesses call write_metrics_json() next
// to their CSVs when GAPLAN_METRICS is set, so every table run leaves behind
// the counters/latency distributions that produced it.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace gaplan::obs {

/// JSON document: {"counters":{...},"gauges":{...},"histograms":{name:
/// {"count":…,"sum":…,"mean":…,"p50":…,"p95":…,"buckets":[{"le":…,"n":…}…]}}}.
/// Non-finite sums/means render as null (JSON has no inf/nan).
std::string render_metrics_json(const MetricsSnapshot& snap);

/// Prometheus text exposition (version 0.0.4): every metric name is
/// prefixed "gaplan_" and sanitized (dots become underscores); counters get
/// a "_total" suffix, histograms emit cumulative le-buckets (including the
/// terminal le="+Inf") plus _sum and _count series. Scrape-ready as served
/// by the gaplan_serve "metrics" verb or the MetricsDumper file.
std::string render_metrics_prometheus(const MetricsSnapshot& snap);

/// Snapshots the registry and writes the JSON report to `path`.
/// Returns false (and logs nothing) when the file cannot be opened.
bool write_metrics_json(const std::string& path);

/// Snapshots the registry and writes the Prometheus exposition to `path`
/// (atomically: temp file + rename, so scrapers never read a torn dump).
bool write_metrics_prometheus(const std::string& path);

/// Periodic metrics dump: a background thread rewriting `path` with the
/// Prometheus exposition every `interval_ms` (GAPLAN_METRICS_ADDR-style —
/// point a file scraper or `watch cat` at it for a live view). A final dump
/// is written on stop()/destruction, so short-lived processes still leave a
/// complete exposition behind.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, double interval_ms);
  ~MetricsDumper();
  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  /// Stops the thread and writes the final dump. Idempotent.
  void stop();

  const std::string& path() const noexcept { return path_; }

 private:
  struct Impl;
  std::string path_;
  Impl* impl_;
};

}  // namespace gaplan::obs

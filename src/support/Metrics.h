//===- Metrics.h - Prometheus text exposition -------------------*- C++-*-===//
///
/// \file
/// Renders the process's telemetry — every PerfCounter, the log2 latency
/// histograms (as native Prometheus histograms with cumulative buckets),
/// and whatever gauges/counters the caller adds (service queue depth,
/// per-verdict job totals) — in Prometheus text exposition format v0.0.4,
/// so a stock Prometheus can scrape `se2gis_served` and the fleet becomes
/// operable (ROADMAP, scale-out item).
///
/// Naming scheme (see DESIGN.md "Operability model"):
///  - counters:   se2gis_<perf_json_key>_total        (e.g. se2gis_smt_queries_total)
///  - timers:     se2gis_<key>_seconds_total          (e.g. se2gis_z3_time_seconds_total)
///  - histograms: se2gis_<key>_seconds                (native histogram; le bounds
///                are the log2 bucket upper bounds converted ns → s)
///  - gauges:     se2gis_<name>                       (e.g. se2gis_queue_depth)
///
/// \c PrometheusWriter is a dumb serializer: it emits `# HELP`/`# TYPE`
/// once per family (callers may emit several labeled samples of one
/// family back to back) and escapes label values per the spec. All values
/// come from snapshots, so one scrape is internally consistent per family.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_METRICS_H
#define SE2GIS_SUPPORT_METRICS_H

#include "support/Histogram.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace se2gis {

struct PerfSnapshot;

/// A label set: pairs of (name, value); values get escaped on emission.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string promEscapeLabel(const std::string &V);

/// Serializer for one scrape. Append families with the typed emitters,
/// then take \c str().
class PrometheusWriter {
public:
  /// Emits one counter sample. \p Name must already carry the `_total`
  /// suffix; HELP/TYPE headers are emitted on the family's first sample.
  void counter(const std::string &Name, const char *Help, double Value,
               const MetricLabels &Labels = {});

  /// Emits one gauge sample.
  void gauge(const std::string &Name, const char *Help, double Value,
             const MetricLabels &Labels = {});

  /// Emits \p H as a native Prometheus histogram family \p Name (unit:
  /// seconds): cumulative `_bucket{le="..."}` lines for every log2 bucket
  /// up to the highest non-empty one, the `+Inf` bucket, `_sum`, and
  /// `_count`. Empty histograms emit just `+Inf`/sum/count so the family
  /// is always present.
  void histogram(const std::string &Name, const char *Help,
                 const HistogramSnapshot &H, const MetricLabels &Labels = {});

  /// \returns the accumulated exposition text.
  const std::string &str() const { return Out; }

private:
  void header(const std::string &Name, const char *Help, const char *Type);
  void sample(const std::string &Name, const MetricLabels &Labels,
              double Value);

  std::string Out;
  std::vector<std::string> SeenFamilies;
};

/// Appends every process-wide telemetry family to \p W: each row of the
/// tables in support/PerfCounters.h with its HELP text (counters as
/// `se2gis_*_total`, timers as `se2gis_*_seconds_total`, latency histograms
/// as `se2gis_*_seconds`), and the flight-recorder counters.
/// \p Snap should be a fresh \c snapshotPerf().
void writeProcessMetrics(PrometheusWriter &W, const PerfSnapshot &Snap);

/// Formats \p V with enough precision for exposition (integers render
/// without a decimal point; everything else as shortest round-trip).
std::string promFormatValue(double V);

} // namespace se2gis

#endif // SE2GIS_SUPPORT_METRICS_H

//===- Trace.h - Structured span tracing (Chrome trace_event) ---*- C++-*-===//
///
/// \file
/// Span tracing for the SE²GIS loop. Instrumented scopes construct an RAII
/// \c TraceSpan (name + category + optional key/value args); each completed
/// span is one event in the always-on flight recorder
/// (support/FlightRecorder.h), the process's only event store. `--trace`
/// (\c traceConfigure) names a file that receives a dump of the recorder's
/// rings at flush and at exit — load it in Perfetto (ui.perfetto.dev) or
/// chrome://tracing to see suite workers, portfolio members,
/// refinement/coarsening rounds, and individual SMT queries on separate
/// thread tracks. The file holds each thread's *last*
/// \c kFlightRingCapacity events, with log, phase and mark events beside
/// the spans.
///
/// Cost: two steady_clock reads per span, each arg a bounded copy into a
/// buffer inside the span, and one ring-slot write on completion — no
/// locks, no allocation.
///
/// Categories emitted by the instrumented stack (see DESIGN.md
/// "Observability model"): "suite" (per-benchmark runs), "round"
/// (SE²GIS/SEGIS refinement & coarsening rounds), "sge" (CEGIS rounds),
/// "enum" (PBE searches), "smt" (checkSat + induction), "portfolio"
/// (racing members).
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_TRACE_H
#define SE2GIS_SUPPORT_TRACE_H

#include "support/FlightRecorder.h"

#include <cstdint>
#include <string>

namespace se2gis {

/// Remembers \p Path as the trace file (empty: none). The first call with
/// a non-empty path registers an atexit flush so a forgotten flush still
/// yields a file.
void traceConfigure(const std::string &Path);

/// Dumps the flight recorder to the configured path. \returns false when
/// no path is configured or the file cannot be written.
bool traceFlush();

namespace detail {
/// Nanoseconds since the process-wide trace epoch.
std::uint64_t traceNowNs();
} // namespace detail

/// RAII span: measures the enclosing scope and records it into the flight
/// recorder on destruction. Args are packed into a fixed buffer in the
/// span (see kFlightArgStr); one that does not fit is dropped, except that
/// a string value is cut to fit. \p Name and \p Category must be string
/// literals (or otherwise outlive every dump); the arg key "rid" is taken
/// (each event carries its request id).
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Category)
      : Name(Name), Category(Category), StartNs(detail::traceNowNs()) {
    Args[0] = '\0';
  }

  ~TraceSpan() {
    flightRecord(FlightKind::Span, Name, StartNs,
                 detail::traceNowNs() - StartNs, 0, Args, Category);
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  void arg(const char *Key, const char *Value);
  void arg(const char *Key, const std::string &Value) {
    arg(Key, Value.c_str());
  }
  void arg(const char *Key, std::int64_t Value);
  void arg(const char *Key, std::uint64_t Value);

private:
  /// Appends one `key TAG value END` record.
  void put(const char *Key, char Tag, const char *Value);

  const char *Name;
  const char *Category;
  std::uint64_t StartNs;
  std::size_t Len = 0;
  char Args[kFlightTextSize]; ///< NUL-terminated at Len
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_TRACE_H

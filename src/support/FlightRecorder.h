//===- FlightRecorder.h - The one span/log/phase event store ----*- C++-*-===//
///
/// \file
/// The always-on flight recorder: per-thread lock-free rings of the most
/// recent span / log / phase / mark events. It is the process's only event
/// store: every \c TraceSpan lands here, a `--trace` file is a dump of the
/// rings (support/Trace.h), and a crash, a `fatalError`, or a job that
/// ends in `Timeout` ships the same dump as its post-mortem.
///
/// Cost: a fixed-size struct copy into the thread's ring plus one index
/// store — no locks, no allocation, no branches on ring fullness (old
/// events are overwritten, which is the point: the ring always holds the
/// *latest* \c kFlightRingCapacity events). A thread takes a ring on its
/// first event and hands it back on exit; the next new thread reuses it,
/// so a daemon that starts a thread per connection keeps a bounded set.
///
/// Dump paths:
///  - \c flightWriteJson / \c flightDumpToFile — ordinary exporters
///    producing a Chrome trace_event JSON object (Perfetto-loadable), used
///    for `--trace`, on job timeout/cancellation, and from \c fatalError.
///  - \c flightDumpSignalSafe — an async-signal-safe exporter writing the
///    same JSON with nothing but write(2) and integer formatting, used by
///    the fatal-signal handler installed by \c flightInstallCrashHandler
///    (which also emits a backtrace to stderr before re-raising).
///
/// Rings are never freed: a dump (or the signal handler) may be reading a
/// ring while its thread exits, so rings are registered in a fixed
/// lock-free table and only ever move between threads.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_FLIGHTRECORDER_H
#define SE2GIS_SUPPORT_FLIGHTRECORDER_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace se2gis {

/// What one recorded event describes.
enum class FlightKind : unsigned char {
  Span,  ///< a completed TraceSpan (name + category + args + duration)
  Log,   ///< an admitted log record (component + message prefix)
  Phase, ///< a completed PhaseScope slice over the per-event threshold
  Mark   ///< an explicit instant marker (job admission, verdicts, ...)
};

/// Events each thread's ring holds before the oldest is overwritten.
constexpr std::size_t kFlightRingCapacity = 4096;

/// Bytes of free text a slot keeps (NUL included).
constexpr std::size_t kFlightTextSize = 139;

/// A span's args travel in its slot's Text as `key TAG value END` records,
/// TAG being \c kFlightArgStr or \c kFlightArgInt. The formatter escapes
/// keys and values and quotes an int that does not parse as one, so a
/// torn or truncated slot still renders as valid JSON.
constexpr char kFlightArgStr = '\x1f';
constexpr char kFlightArgInt = '\x1d';
constexpr char kFlightArgEnd = '\x1e';

/// One ring slot. Plain data, all-zero when empty, so the signal handler
/// can read slots while a writer races ahead: a torn slot renders as odd
/// text, never as a crash or a heap walk.
struct FlightEvent {
  std::uint64_t StartNs; ///< trace-epoch-relative (detail::traceNowNs)
  std::uint64_t DurNs;   ///< 0 for instant events
  const char *Name;      ///< static string (span name, component, ...)
  const char *Category;  ///< static span category; nullptr for other kinds
  std::uint64_t Rid;     ///< request id active on the recording thread
  std::uint64_t A0;      ///< small numeric payload (seq, level, ...)
  std::uint32_t Tid;     ///< compact thread id (support/Log.h)
  FlightKind Kind;
  char Text[kFlightTextSize]; ///< span args, or truncated free text
};
static_assert(sizeof(FlightEvent) == 192, "keep ring slots compact");

/// Remembers \p PathPrefix as the fatal-dump target: \c fatalError and the
/// crash handler write `<prefix>.<pid>.json`. Empty disables fatal dumps.
void flightSetDumpPrefix(const std::string &PathPrefix);

/// \returns the configured fatal-dump prefix ("" when none).
std::string flightDumpPrefix();

/// Records one event. \p Name and \p Category must be string literals or
/// otherwise outlive every dump; \p Text is copied (truncated to the
/// slot's capacity).
void flightRecord(FlightKind Kind, const char *Name, std::uint64_t StartNs,
                  std::uint64_t DurNs, std::uint64_t A0 = 0,
                  const char *Text = nullptr,
                  const char *Category = nullptr);

/// Total events ever recorded / overwritten (monotonic, process-wide).
std::uint64_t flightRecordedEvents();
std::uint64_t flightOverwrittenEvents();

/// Clears every ring (test support; not signal-safe).
void flightReset();

/// Writes everything currently buffered as one Chrome trace_event JSON
/// object to \p OS: a thread_name record per track, then each ring's
/// events oldest first. Safe against concurrent writers.
void flightWriteJson(std::ostream &OS);

/// Writes the JSON to \p Path. \returns false when the file cannot be
/// written.
bool flightDumpToFile(const std::string &Path);

/// Async-signal-safe dump of every ring to \p Fd (write(2) + integer
/// formatting only; no allocation, no locks, no sorting).
void flightDumpSignalSafe(int Fd);

/// Installs fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that dump the
/// rings to `<prefix>.<pid>.json`, write a backtrace to stderr, and
/// re-raise. Idempotent. Requires a dump prefix to produce a file.
void flightInstallCrashHandler();

/// Dumps to `<prefix>.<pid>.json` if a prefix is configured (the
/// fatalError hook; ordinary, not signal-context). \returns the path
/// written, or "" when disabled/failed.
std::string flightDumpOnFatal();

} // namespace se2gis

#endif // SE2GIS_SUPPORT_FLIGHTRECORDER_H

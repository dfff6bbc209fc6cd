//===- PerfCounters.cpp ---------------------------------------------------===//

#include "support/PerfCounters.h"

#include "support/FlightRecorder.h"
#include "support/Trace.h"

#include <atomic>
#include <ostream>

using namespace se2gis;

namespace {

std::atomic<std::uint64_t> &counterSlot(PerfCounter C) {
  static std::atomic<std::uint64_t>
      Slots[static_cast<size_t>(PerfCounter::NumPerfCounters)];
  return Slots[static_cast<size_t>(C)];
}

std::atomic<std::uint64_t> &timerSlot(PerfTimer T) {
  static std::atomic<std::uint64_t>
      Slots[static_cast<size_t>(PerfTimer::NumPerfTimers)];
  return Slots[static_cast<size_t>(T)];
}

LatencyHistogram &histogramSlot(PerfHistogram H) {
  static LatencyHistogram
      Slots[static_cast<size_t>(PerfHistogram::NumPerfHistograms)];
  return Slots[static_cast<size_t>(H)];
}

} // namespace

// The name and HELP lookups, one pair per table.
#define SE2GIS_TELEMETRY_KEY(Enumerator, Key, Help) Key,
#define SE2GIS_TELEMETRY_HELP(Enumerator, Key, Help) Help,
#define SE2GIS_TELEMETRY_LOOKUPS(Enum, Table, NameFn, HelpFn)                   \
  const char *se2gis::NameFn(Enum E) {                                         \
    static constexpr const char *Keys[] = {Table(SE2GIS_TELEMETRY_KEY)};       \
    return Keys[static_cast<size_t>(E)];                                       \
  }                                                                            \
  const char *se2gis::HelpFn(Enum E) {                                         \
    static constexpr const char *Helps[] = {Table(SE2GIS_TELEMETRY_HELP)};     \
    return Helps[static_cast<size_t>(E)];                                      \
  }
SE2GIS_TELEMETRY_LOOKUPS(PerfCounter, SE2GIS_PERF_COUNTERS, perfCounterName,
                         perfCounterHelp)
SE2GIS_TELEMETRY_LOOKUPS(PerfTimer, SE2GIS_PERF_TIMERS, perfTimerName,
                         perfTimerHelp)
SE2GIS_TELEMETRY_LOOKUPS(PerfHistogram, SE2GIS_PERF_HISTOGRAMS,
                         perfHistogramName, perfHistogramHelp)
SE2GIS_TELEMETRY_LOOKUPS(Phase, SE2GIS_PHASES, phaseName, phaseHelp)
#undef SE2GIS_TELEMETRY_LOOKUPS
#undef SE2GIS_TELEMETRY_HELP
#undef SE2GIS_TELEMETRY_KEY

void se2gis::perfAdd(PerfCounter C, std::uint64_t Delta) {
  counterSlot(C).fetch_add(Delta, std::memory_order_relaxed);
}

void se2gis::perfAddTimeNs(PerfTimer T, std::uint64_t Ns) {
  timerSlot(T).fetch_add(Ns, std::memory_order_relaxed);
}

void se2gis::perfRecordNs(PerfHistogram H, std::uint64_t Ns) {
  histogramSlot(H).recordNs(Ns);
}

PerfSnapshot se2gis::snapshotPerf() {
  PerfSnapshot S;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    S.Counters[I] =
        counterSlot(static_cast<PerfCounter>(I)).load(std::memory_order_relaxed);
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I)
    S.TimersNs[I] =
        timerSlot(static_cast<PerfTimer>(I)).load(std::memory_order_relaxed);
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    S.Hists[I] = histogramSlot(static_cast<PerfHistogram>(I)).snapshot();
  return S;
}

PerfSnapshot PerfSnapshot::since(const PerfSnapshot &Earlier) const {
  PerfSnapshot D;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    D.Counters[I] = Counters[I] - Earlier.Counters[I];
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I)
    D.TimersNs[I] = TimersNs[I] - Earlier.TimersNs[I];
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    D.Hists[I] = Hists[I].since(Earlier.Hists[I]);
  return D;
}

std::string PerfSnapshot::str() const {
  std::string Out;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    if (Counters[I])
      Out += (Out.empty() ? "" : " ") +
             std::string(perfCounterName(static_cast<PerfCounter>(I))) + "=" +
             std::to_string(Counters[I]);
  return Out;
}

namespace {

/// Appends the quantile keys for one histogram: <prefix>_count, _p50_ms,
/// _p90_ms, _p99_ms, _max_ms.
void writeHistJson(std::ostream &OS, const char *Prefix,
                   const HistogramSnapshot &H) {
  OS << ",\"" << Prefix << "_count\":" << H.Count << ",\"" << Prefix
     << "_p50_ms\":" << H.quantileMs(0.5) << ",\"" << Prefix
     << "_p90_ms\":" << H.quantileMs(0.9) << ",\"" << Prefix
     << "_p99_ms\":" << H.quantileMs(0.99) << ",\"" << Prefix
     << "_max_ms\":" << H.maxMs();
}

} // namespace

void se2gis::writePerfJson(std::ostream &OS, const PerfSnapshot &D) {
  OS << "{";
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    OS << (I ? ",\"" : "\"") << perfCounterName(static_cast<PerfCounter>(I))
       << "\":" << D.Counters[I];
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I) {
    auto T = static_cast<PerfTimer>(I);
    OS << ",\"" << perfTimerName(T) << "_ms\":" << D.getMs(T);
  }
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    writeHistJson(OS, perfHistogramName(static_cast<PerfHistogram>(I)),
                  D.Hists[I]);
  OS << "}";
}

//===----------------------------------------------------------------------===//
// Phase attribution
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t NumPhases = static_cast<size_t>(Phase::NumPhases);

/// Per-thread phase state: accumulated totals plus the stack of live scopes.
/// Exclusive attribution: pushing a scope first charges the elapsed slice to
/// the previous top, popping charges the closing scope and restamps the
/// parent — so one thread's phase times never double-count nested scopes.
struct PhaseState {
  std::uint64_t TotalsNs[NumPhases] = {};

  static constexpr unsigned MaxDepth = 32;
  Phase Stack[MaxDepth];
  std::chrono::steady_clock::time_point LastStamp;
  unsigned Depth = 0;

  void chargeTop(std::chrono::steady_clock::time_point Now) {
    if (!Depth)
      return;
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Now - LastStamp)
                  .count();
    if (Ns > 0)
      TotalsNs[static_cast<size_t>(Stack[Depth - 1])] +=
          static_cast<std::uint64_t>(Ns);
  }

  bool push(Phase P) {
    auto Now = std::chrono::steady_clock::now();
    chargeTop(Now);
    if (Depth >= MaxDepth)
      return false; // overflow: time keeps flowing to the innermost tracked
    Stack[Depth++] = P;
    LastStamp = Now;
    return true;
  }

  void pop() {
    auto Now = std::chrono::steady_clock::now();
    chargeTop(Now);
    --Depth;
    LastStamp = Now;
  }
};

PhaseState &phaseState() {
  thread_local PhaseState S;
  return S;
}

} // namespace

PhaseSnapshot PhaseSnapshot::since(const PhaseSnapshot &Earlier) const {
  PhaseSnapshot D;
  for (size_t I = 0; I < NumPhases; ++I)
    D.Ns[I] = Ns[I] - Earlier.Ns[I];
  return D;
}

PhaseSnapshot se2gis::phaseSnapshot() {
  PhaseState &S = phaseState();
  // Fold in the running slice of any live scope so a mid-scope snapshot
  // (e.g. a deadline-expired run) still sees up-to-date totals.
  S.chargeTop(std::chrono::steady_clock::now());
  S.LastStamp = std::chrono::steady_clock::now();
  PhaseSnapshot Out;
  for (size_t I = 0; I < NumPhases; ++I)
    Out.Ns[I] = S.TotalsNs[I];
  return Out;
}

PhaseScope::PhaseScope(Phase P)
    : Tracked(phaseState().push(P)), P(P),
      FlightStartNs(flightEnabled() ? detail::traceNowNs() : 0) {}

PhaseScope::~PhaseScope() {
  if (Tracked)
    phaseState().pop();
  if (FlightStartNs) {
    // Only slices a human would look at (≥1ms): micro eval/probe scopes
    // would otherwise evict the spans a post-mortem actually needs.
    std::uint64_t DurNs = detail::traceNowNs() - FlightStartNs;
    if (DurNs >= 1000000)
      flightRecord(FlightKind::Phase, phaseName(P), FlightStartNs, DurNs);
  }
}

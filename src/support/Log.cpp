//===- Log.cpp ------------------------------------------------------------===//

#include "support/Log.h"

#include "support/FlightRecorder.h"
#include "support/Trace.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace se2gis;

namespace {

std::atomic<unsigned char> GLevel{static_cast<unsigned char>(LogLevel::Info)};

/// Emission to stderr is serialized by one mutex so concurrent suite
/// workers never interleave characters within a line.
std::mutex &emitMutex() {
  static std::mutex M;
  return M;
}

std::atomic<unsigned> GNextThreadId{1};

/// Formats the current wall-clock time as ISO8601 UTC with milliseconds.
std::string timestampUtc() {
  using namespace std::chrono;
  auto Now = system_clock::now();
  std::time_t T = system_clock::to_time_t(Now);
  auto Ms = duration_cast<milliseconds>(Now.time_since_epoch()) % 1000;
  std::tm Tm{};
#if defined(_WIN32)
  gmtime_s(&Tm, &T);
#else
  gmtime_r(&T, &Tm);
#endif
  char Buf[80];
  std::snprintf(Buf, sizeof(Buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                Tm.tm_year + 1900, Tm.tm_mon + 1, Tm.tm_mday, Tm.tm_hour,
                Tm.tm_min, Tm.tm_sec, static_cast<int>(Ms.count()));
  return Buf;
}

} // namespace

const char *se2gis::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Error:
    return "error";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  }
  return "?";
}

std::optional<LogLevel> se2gis::parseLogLevel(const std::string &Name) {
  std::string S;
  for (char C : Name)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (S == "error")
    return LogLevel::Error;
  if (S == "warn" || S == "warning")
    return LogLevel::Warn;
  if (S == "info")
    return LogLevel::Info;
  if (S == "debug")
    return LogLevel::Debug;
  return std::nullopt;
}

void se2gis::configureLogging(const LogSettings &Settings) {
  GLevel.store(static_cast<unsigned char>(Settings.Level),
               std::memory_order_relaxed);
}

LogLevel se2gis::logLevel() {
  return static_cast<LogLevel>(GLevel.load(std::memory_order_relaxed));
}

bool se2gis::logEnabled(LogLevel L) {
  return static_cast<unsigned char>(L) <=
         GLevel.load(std::memory_order_relaxed);
}

unsigned se2gis::currentThreadId() {
  thread_local unsigned Id =
      GNextThreadId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

namespace {
thread_local std::uint64_t TLRequestId = 0;
} // namespace

void se2gis::setThreadRequestId(std::uint64_t Rid) { TLRequestId = Rid; }

std::uint64_t se2gis::threadRequestId() { return TLRequestId; }

void se2gis::logMessage(LogLevel L, const char *Component,
                        const std::string &Message) {
  if (!logEnabled(L))
    return;
  unsigned Tid = currentThreadId();
  std::uint64_t Rid = threadRequestId();
  // Feed the flight recorder before taking the emit lock: post-mortems
  // should see the record even if another thread holds stderr. Component
  // tags are string literals at every call site, which is what the
  // recorder's static-Name contract needs.
  flightRecord(FlightKind::Log, Component, detail::traceNowNs(), 0,
               static_cast<std::uint64_t>(L), Message.c_str());
  std::string Ts = timestampUtc();
  std::lock_guard<std::mutex> Lock(emitMutex());
  // The [r=N] bracket appears only when a request id is bound (service
  // worker threads); suite/CLI lines keep the four-bracket prefix, one
  // space-free field, so line-oriented tools read the message as fields.
  if (Rid)
    std::fprintf(stderr, "[%s][%s][%s][t=%u][r=%llu] %s\n", Component,
                 logLevelName(L), Ts.c_str(), Tid,
                 static_cast<unsigned long long>(Rid), Message.c_str());
  else
    std::fprintf(stderr, "[%s][%s][%s][t=%u] %s\n", Component, logLevelName(L),
                 Ts.c_str(), Tid, Message.c_str());
}

void se2gis::logf(LogLevel L, const char *Component, const char *Fmt, ...) {
  if (!logEnabled(L))
    return;
  char Buf[2048];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  logMessage(L, Component, Buf);
}

std::string se2gis::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

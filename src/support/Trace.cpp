//===- Trace.cpp ----------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Log.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace se2gis;

namespace {

std::mutex GPathMu;
std::string GPath;         // guarded by GPathMu
bool GAtExitFlush = false; // guarded by GPathMu

void atExitFlush() { traceFlush(); }

} // namespace

void se2gis::traceConfigure(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(GPathMu);
  GPath = Path;
  if (!Path.empty() && !GAtExitFlush) {
    GAtExitFlush = true;
    std::atexit(atExitFlush);
  }
}

bool se2gis::traceFlush() {
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(GPathMu);
    Path = GPath;
  }
  if (Path.empty())
    return false;
  if (!flightDumpToFile(Path)) {
    logf(LogLevel::Error, "trace", "cannot write trace to %s", Path.c_str());
    return false;
  }
  return true;
}

std::uint64_t se2gis::detail::traceNowNs() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void TraceSpan::put(const char *Key, char Tag, const char *Value) {
  std::size_t KeyLen = std::strlen(Key), ValLen = std::strlen(Value);
  // Room for key, tag, value, end marker and the NUL.
  std::size_t Room = sizeof(Args) - Len;
  if (KeyLen + ValLen + 3 > Room) {
    // Only a string value may be cut; a cut number would be a wrong one.
    if (Tag != kFlightArgStr || KeyLen + 3 >= Room)
      return;
    ValLen = Room - KeyLen - 3;
    while (ValLen && (Value[ValLen] & 0xC0) == 0x80) // keep UTF-8 whole
      --ValLen;
  }
  char *P = Args + Len;
  std::memcpy(P, Key, KeyLen);
  P += KeyLen;
  *P++ = Tag;
  // Copied raw: the formatter prints control bytes as spaces, and a value
  // holding a separator byte garbles only this span's args, never the JSON.
  std::memcpy(P, Value, ValLen);
  P += ValLen;
  *P++ = kFlightArgEnd;
  *P = '\0';
  Len = static_cast<std::size_t>(P - Args);
}

void TraceSpan::arg(const char *Key, const char *Value) {
  put(Key, kFlightArgStr, Value);
}

void TraceSpan::arg(const char *Key, std::int64_t Value) {
  char Buf[24];
  *std::to_chars(Buf, Buf + sizeof(Buf) - 1, Value).ptr = '\0';
  put(Key, kFlightArgInt, Buf);
}

void TraceSpan::arg(const char *Key, std::uint64_t Value) {
  char Buf[24];
  *std::to_chars(Buf, Buf + sizeof(Buf) - 1, Value).ptr = '\0';
  put(Key, kFlightArgInt, Buf);
}

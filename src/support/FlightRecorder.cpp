//===- FlightRecorder.cpp - The one span/log/phase event store ------------===//

#include "support/FlightRecorder.h"

#include "support/Log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <execinfo.h>
#define SE2GIS_HAVE_BACKTRACE 1
#endif

namespace se2gis {

namespace {

constexpr std::size_t kMaxRings = 256;
static_assert((kFlightRingCapacity & (kFlightRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

/// One single-writer ring. The thread holding it is the only writer;
/// dumpers (including the signal handler) read racily — a torn slot renders
/// as odd text, never as a fault, because every field is plain data and
/// Name/Category only ever hold nullptr or a static string.
struct Ring {
  /// kFlightRingCapacity zero-filled slots from calloc: pages no event has
  /// reached yet cost no RSS.
  FlightEvent *Slots = nullptr;
  std::atomic<std::uint64_t> WriteIdx{0};
  Ring *NextFree = nullptr; ///< guarded by GRingMu
};

/// Fixed registration table the signal handler can walk without locks.
std::atomic<Ring *> GRings[kMaxRings] = {};
std::atomic<unsigned> GRingCount{0};

/// Rings handed back by exited threads, waiting for the next new thread.
std::mutex GRingMu;
Ring *GFreeRings = nullptr; // guarded by GRingMu

std::mutex GPrefixMu;
std::string GDumpPrefix; // guarded by GPrefixMu

/// Snapshot of the dump path for the signal handler: computed eagerly on
/// every flightSetDumpPrefix so the handler only read()s/write()s.
char GSignalDumpPath[512] = {};
std::atomic<bool> GHandlerInstalled{false};

Ring *acquireRing() {
  std::lock_guard<std::mutex> Lock(GRingMu);
  if (Ring *R = GFreeRings) {
    GFreeRings = R->NextFree;
    return R;
  }
  unsigned N = GRingCount.load(std::memory_order_relaxed);
  if (N == kMaxRings)
    return nullptr; // 256 threads recording at once: the newest drop events
  void *Slots = std::calloc(kFlightRingCapacity, sizeof(FlightEvent));
  if (!Slots)
    return nullptr;
  auto *R = new Ring();
  R->Slots = static_cast<FlightEvent *>(Slots);
  GRings[N].store(R, std::memory_order_release);
  GRingCount.store(N + 1, std::memory_order_release);
  return R;
}

thread_local Ring *TLRing = nullptr;
thread_local bool TLRingReturned = false;

/// Hands the thread's ring to the free list when the thread exits. Events
/// recorded after that (from later thread-exit destructors) are dropped.
struct RingReturn {
  ~RingReturn() {
    if (TLRing) {
      std::lock_guard<std::mutex> Lock(GRingMu);
      TLRing->NextFree = GFreeRings;
      GFreeRings = TLRing;
    }
    TLRing = nullptr;
    TLRingReturned = true;
  }
};

Ring *threadRing() {
  if (TLRing || TLRingReturned)
    return TLRing;
  thread_local RingReturn Hook;
  (void)Hook;
  TLRing = acquireRing();
  return TLRing;
}

/// Calls \p Fn on every registered ring.
template <typename RingFn> void forEachRing(RingFn &&Fn) {
  unsigned Count = GRingCount.load(std::memory_order_acquire);
  for (unsigned I = 0; I < Count; ++I)
    if (Ring *R = GRings[I].load(std::memory_order_acquire))
      Fn(*R);
}

/// A bounded text builder over a caller's buffer: appends past the end are
/// dropped. Integer formatting only, so the signal handler can use it.
struct Out {
  char *Buf;
  std::size_t Cap;
  std::size_t Pos = 0;

  void put(char C) {
    if (Pos + 1 < Cap)
      Buf[Pos++] = C;
  }
  void str(const char *S) {
    while (*S)
      put(*S++);
  }
  void num(unsigned long long V) {
    char Digits[20];
    int N = 0;
    do
      Digits[N++] = static_cast<char>('0' + V % 10);
    while (V /= 10);
    while (N)
      put(Digits[--N]);
  }
  /// Nanoseconds as Chrome's fractional microseconds.
  void micros(std::uint64_t Ns) {
    num(Ns / 1000);
    put('.');
    put(static_cast<char>('0' + Ns / 100 % 10));
    put(static_cast<char>('0' + Ns / 10 % 10));
    put(static_cast<char>('0' + Ns % 10));
  }
  /// Copies at most \p Len bytes of \p S (stopping at a NUL) JSON-escaped;
  /// control characters become spaces.
  void escaped(const char *S, std::size_t Len) {
    for (std::size_t I = 0; I < Len && S[I]; ++I) {
      char C = S[I];
      if (C == '"' || C == '\\')
        put('\\');
      put(static_cast<unsigned char>(C) < 0x20 ? ' ' : C);
    }
  }
};

const char *kindName(FlightKind K) {
  switch (K) {
  case FlightKind::Span:
    return "span";
  case FlightKind::Log:
    return "log";
  case FlightKind::Phase:
    return "phase";
  case FlightKind::Mark:
    return "mark";
  }
  return "?";
}

/// \returns true when \p S[0..Len) is a JSON integer.
bool isJsonInt(const char *S, std::size_t Len) {
  std::size_t I = (Len && S[0] == '-') ? 1 : 0;
  if (I == Len || (S[I] == '0' && Len - I > 1))
    return false;
  for (; I < Len; ++I)
    if (S[I] < '0' || S[I] > '9')
      return false;
  return true;
}

/// Emits a span's packed args (see kFlightArgStr) as `,"key":value` pairs.
/// A record cut short by truncation or a torn read is dropped.
void putSpanArgs(Out &O, const char *T) {
  std::size_t I = 0;
  while (I < kFlightTextSize && T[I]) {
    std::size_t Key = I;
    while (I < kFlightTextSize && T[I] && T[I] != kFlightArgStr &&
           T[I] != kFlightArgInt)
      ++I;
    if (I == kFlightTextSize || !T[I])
      return;
    bool Int = T[I++] == kFlightArgInt;
    std::size_t Val = I;
    while (I < kFlightTextSize && T[I] && T[I] != kFlightArgEnd)
      ++I;
    std::size_t ValLen = I - Val;
    if (I < kFlightTextSize && T[I] == kFlightArgEnd)
      ++I;
    O.str(",\"");
    O.escaped(T + Key, Val - 1 - Key);
    O.str("\":");
    if (Int && isJsonInt(T + Val, ValLen)) {
      O.escaped(T + Val, ValLen);
    } else {
      O.put('"');
      O.escaped(T + Val, ValLen);
      O.put('"');
    }
  }
}

/// Formats one event as a Chrome trace_event JSON object — the one
/// formatter behind every dump.
void formatEvent(Out &O, const FlightEvent &E) {
  bool IsSpan = E.Kind == FlightKind::Span;
  O.str("{\"name\":\"");
  O.escaped(E.Name ? E.Name : "?", 128);
  O.str("\",\"cat\":\"");
  if (IsSpan && E.Category)
    O.escaped(E.Category, 64);
  else
    O.str(kindName(E.Kind));
  if (IsSpan || E.Kind == FlightKind::Phase) {
    O.str("\",\"ph\":\"X\",\"ts\":");
    O.micros(E.StartNs);
    O.str(",\"dur\":");
    O.micros(E.DurNs);
  } else {
    O.str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
    O.micros(E.StartNs);
  }
  O.str(",\"pid\":1,\"tid\":");
  O.num(E.Tid);
  O.str(",\"args\":{\"rid\":");
  O.num(E.Rid);
  if (IsSpan) {
    putSpanArgs(O, E.Text);
  } else {
    O.str(",\"a0\":");
    O.num(E.A0);
    O.str(",\"detail\":\"");
    O.escaped(E.Text, kFlightTextSize);
    O.put('"');
  }
  O.str("}}");
}

/// Writes the whole dump through \p Write(const char *, std::size_t):
/// shared by the ostream and the signal-safe exporters.
template <typename WriteFn> void writeDump(WriteFn &&Write) {
  static const char Head[] =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"se2gis\"}}";
  Write(Head, sizeof(Head) - 1);
  char Buf[2048];
  forEachRing([&](Ring &R) {
    std::uint64_t End = R.WriteIdx.load(std::memory_order_acquire);
    std::uint64_t Begin =
        End > kFlightRingCapacity ? End - kFlightRingCapacity : 0;
    std::uint32_t LastTid = 0; // compact thread ids start at 1
    for (std::uint64_t Idx = Begin; Idx < End; ++Idx) {
      // Copy first so a racing writer cannot change fields mid-format.
      FlightEvent E = R.Slots[Idx & (kFlightRingCapacity - 1)];
      if (!E.Name && !E.StartNs)
        continue;
      Out O{Buf, sizeof(Buf)};
      // A ring passes from thread to thread, so name each track as its
      // events begin.
      if (E.Tid != LastTid) {
        LastTid = E.Tid;
        O.str(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
        O.num(E.Tid);
        O.str(",\"args\":{\"name\":\"se2gis-t");
        O.num(E.Tid);
        O.str("\"}}");
      }
      O.put(',');
      formatEvent(O, E);
      Write(Buf, O.Pos);
    }
  });
  Out O{Buf, sizeof(Buf)};
  O.str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"overwritten_events\":");
  O.num(flightOverwrittenEvents());
  O.str("}}\n");
  Write(Buf, O.Pos);
}

void writeFull(int Fd, const char *Buf, std::size_t Len) {
  std::size_t Off = 0;
  while (Off < Len) {
    ssize_t W = ::write(Fd, Buf + Off, Len - Off);
    if (W <= 0)
      return;
    Off += static_cast<std::size_t>(W);
  }
}

extern "C" void se2gisFlightSignalHandler(int Sig) {
  char Banner[128];
  int N = snprintf(Banner, sizeof(Banner),
                   "\n[se2gis] fatal signal %d — dumping flight recorder\n",
                   Sig);
  if (N > 0)
    writeFull(2, Banner, static_cast<std::size_t>(N));
#if SE2GIS_HAVE_BACKTRACE
  void *Frames[64];
  int Depth = backtrace(Frames, 64);
  backtrace_symbols_fd(Frames, Depth, 2);
#endif
  if (GSignalDumpPath[0]) {
    int Fd = ::open(GSignalDumpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      flightDumpSignalSafe(Fd);
      ::close(Fd);
      N = snprintf(Banner, sizeof(Banner), "[se2gis] flight dump: %s\n",
                   GSignalDumpPath);
      if (N > 0)
        writeFull(2, Banner, static_cast<std::size_t>(N));
    }
  }
  signal(Sig, SIG_DFL);
  raise(Sig);
}

} // namespace

void flightSetDumpPrefix(const std::string &PathPrefix) {
  std::lock_guard<std::mutex> Lock(GPrefixMu);
  GDumpPrefix = PathPrefix;
  if (PathPrefix.empty()) {
    GSignalDumpPath[0] = '\0';
    return;
  }
  snprintf(GSignalDumpPath, sizeof(GSignalDumpPath), "%s.%d.json",
           PathPrefix.c_str(), static_cast<int>(getpid()));
}

std::string flightDumpPrefix() {
  std::lock_guard<std::mutex> Lock(GPrefixMu);
  return GDumpPrefix;
}

void flightRecord(FlightKind Kind, const char *Name, std::uint64_t StartNs,
                  std::uint64_t DurNs, std::uint64_t A0, const char *Text,
                  const char *Category) {
  Ring *R = threadRing();
  if (!R)
    return;
  std::uint64_t Idx = R->WriteIdx.load(std::memory_order_relaxed);
  FlightEvent &E = R->Slots[Idx & (kFlightRingCapacity - 1)];
  E.StartNs = StartNs;
  E.DurNs = DurNs;
  E.Name = Name;
  E.Category = Category;
  E.Rid = threadRequestId();
  E.A0 = A0;
  E.Tid = currentThreadId();
  E.Kind = Kind;
  std::size_t L = 0;
  if (Text) {
    L = strnlen(Text, kFlightTextSize - 1);
    // A cut text ends before a split UTF-8 sequence, so dumps stay UTF-8.
    while (L && Text[L] && (Text[L] & 0xC0) == 0x80)
      --L;
    memcpy(E.Text, Text, L);
  }
  E.Text[L] = '\0';
  R->WriteIdx.store(Idx + 1, std::memory_order_release);
}

std::uint64_t flightRecordedEvents() {
  std::uint64_t Total = 0;
  forEachRing(
      [&](Ring &R) { Total += R.WriteIdx.load(std::memory_order_relaxed); });
  return Total;
}

std::uint64_t flightOverwrittenEvents() {
  std::uint64_t Total = 0;
  forEachRing([&](Ring &R) {
    std::uint64_t W = R.WriteIdx.load(std::memory_order_relaxed);
    if (W > kFlightRingCapacity)
      Total += W - kFlightRingCapacity;
  });
  return Total;
}

void flightReset() {
  forEachRing([](Ring &R) {
    memset(static_cast<void *>(R.Slots), 0,
           kFlightRingCapacity * sizeof(FlightEvent));
    R.WriteIdx.store(0, std::memory_order_release);
  });
}

void flightWriteJson(std::ostream &OS) {
  writeDump([&](const char *S, std::size_t N) {
    OS.write(S, static_cast<std::streamsize>(N));
  });
}

bool flightDumpToFile(const std::string &Path) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  flightWriteJson(OS);
  OS.flush();
  return static_cast<bool>(OS);
}

void flightDumpSignalSafe(int Fd) {
  writeDump([Fd](const char *S, std::size_t N) { writeFull(Fd, S, N); });
}

void flightInstallCrashHandler() {
  bool Expected = false;
  if (!GHandlerInstalled.compare_exchange_strong(Expected, true))
    return;
#if SE2GIS_HAVE_BACKTRACE
  // Prime libgcc's unwinder state so the handler itself never mallocs.
  void *Frames[4];
  (void)backtrace(Frames, 4);
#endif
  struct sigaction SA;
  memset(&SA, 0, sizeof(SA));
  SA.sa_handler = se2gisFlightSignalHandler;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESETHAND;
  for (int Sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
    sigaction(Sig, &SA, nullptr);
}

std::string flightDumpOnFatal() {
  std::string Prefix = flightDumpPrefix();
  if (Prefix.empty())
    return "";
  std::string Path =
      Prefix + "." + std::to_string(static_cast<int>(getpid())) + ".json";
  if (!flightDumpToFile(Path))
    return "";
  return Path;
}

} // namespace se2gis

//===- CacheDaemon.cpp ----------------------------------------------------===//

#include "cachenet/CacheDaemon.h"

#include "support/Metrics.h"

#include <unistd.h>

using namespace se2gis;

bool se2gis::validCacheSegmentName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '_' ||
              C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

CacheDaemon::CacheDaemon(CacheDaemonConfig C)
    : Config(std::move(C)),
      Frames("cached",
             {[this](const JsonValue &Req) { return handleRequest(Req); },
              [this] { return renderMetrics(); }, [this] { syncStore(); }}) {}

CacheDaemon::~CacheDaemon() = default;

bool CacheDaemon::start(std::string &Error) {
  configureLogging(Config.Log);

  Store = DiskStore::open(Config.Dir, Error);
  if (!Store)
    return false;
  {
    // Preload the hot segments so a restart is warm immediately and the
    // (possibly compacting) load happens before the first client.
    std::lock_guard<std::mutex> Lock(StoreM);
    for (const char *Name : {"smt", "suite"})
      segmentLocked(Name);
  }

  if (!Frames.listen(Config.Listen, Config.MetricsAddr, Error))
    return false;

  StartAt = std::chrono::steady_clock::now();
  std::uint64_t Entries = 0;
  {
    std::lock_guard<std::mutex> Lock(StoreM);
    for (const auto &[Name, Seg] : Segments)
      Entries += Seg.Map.size();
  }
  logf(LogLevel::Info, "cached",
       "listening on %s (store %s, %llu entries warm)",
       addr().str().c_str(), Config.Dir.c_str(),
       static_cast<unsigned long long>(Entries));
  Frames.start();
  return true;
}

CacheDaemon::SegmentState &CacheDaemon::segmentLocked(const std::string &Name) {
  auto It = Segments.find(Name);
  if (It != Segments.end())
    return It->second;
  SegmentState S;
  S.Map = Store->loadSegment(Name, Config.CompactBytes);
  for (const auto &[K, Payload] : S.Map) {
    (void)K;
    S.Bytes += Payload.size();
  }
  return Segments.emplace(Name, std::move(S)).first->second;
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

JsonValue CacheDaemon::handleRequest(const JsonValue &Req) {
  std::string Method = Req.getString("method");
  if (Method == "cache.get")
    return handleGet(Req);
  if (Method == "cache.put")
    return handlePut(Req);
  if (Method == "cache.stats")
    return handleStats();
  if (Method == "cache.drain")
    return handleDrain();
  if (Method == "ping") {
    JsonValue Resp = makeOkResponse();
    Resp.set("pong", JsonValue::boolean(true));
    Resp.set("proto", JsonValue::number(std::int64_t(1)));
    Resp.set("role", JsonValue::str("cached"));
    return Resp;
  }
  if (Method.empty())
    return makeErrorResponse(ErrorCode::BadRequest,
                             "request carries no method field");
  return makeErrorResponse(ErrorCode::UnknownMethod,
                           "unknown method '" + Method + "'");
}

namespace {

/// Validates the segment/key fields shared by get and put. \returns false
/// with the typed error response filled in.
bool parseEntryRef(const JsonValue &Req, std::string &Segment, Hash128 &Key,
                   JsonValue &ErrorResp) {
  Segment = Req.getString("segment");
  if (!validCacheSegmentName(Segment)) {
    ErrorResp = makeErrorResponse(
        ErrorCode::BadRequest,
        "bad segment name (want 1-64 chars of [a-z0-9_-])");
    return false;
  }
  std::string KeyHex = Req.getString("key");
  if (!Hash128::fromHex(KeyHex, Key)) {
    ErrorResp = makeErrorResponse(ErrorCode::BadRequest,
                                  "bad key (want 32 lowercase hex chars)");
    return false;
  }
  return true;
}

} // namespace

JsonValue CacheDaemon::handleGet(const JsonValue &Req) {
  std::string Segment;
  Hash128 Key;
  JsonValue ErrorResp;
  if (!parseEntryRef(Req, Segment, Key, ErrorResp)) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    return ErrorResp;
  }
  std::lock_guard<std::mutex> Lock(StoreM);
  if (Frames.draining())
    return makeErrorResponse(ErrorCode::Draining, "daemon is draining");
  Gets.fetch_add(1, std::memory_order_relaxed);
  JsonValue Resp = makeOkResponse();
  SegmentState &Seg = segmentLocked(Segment);
  auto It = Seg.Map.find(Key);
  if (It == Seg.Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    Resp.set("found", JsonValue::boolean(false));
    return Resp;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  Resp.set("found", JsonValue::boolean(true));
  Resp.set("payload", JsonValue::str(It->second));
  return Resp;
}

JsonValue CacheDaemon::handlePut(const JsonValue &Req) {
  std::string Segment;
  Hash128 Key;
  JsonValue ErrorResp;
  if (!parseEntryRef(Req, Segment, Key, ErrorResp)) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    return ErrorResp;
  }
  const JsonValue *Payload = Req.get("payload");
  if (!Payload || !Payload->isString()) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    return makeErrorResponse(ErrorCode::BadRequest,
                             "put needs a string 'payload'");
  }
  if (Payload->asString().size() > Config.MaxPayloadBytes) {
    Rejected.fetch_add(1, std::memory_order_relaxed);
    return makeErrorResponse(ErrorCode::BadRequest,
                             "payload exceeds the admission bound (" +
                                 std::to_string(Config.MaxPayloadBytes) +
                                 " bytes)");
  }
  // Checked under the store lock, which the drain body's sync also takes:
  // a put is either refused or appended before that sync.
  std::lock_guard<std::mutex> Lock(StoreM);
  if (Frames.draining())
    return makeErrorResponse(ErrorCode::Draining, "daemon is draining");
  Puts.fetch_add(1, std::memory_order_relaxed);
  JsonValue Resp = makeOkResponse();
  SegmentState &Seg = segmentLocked(Segment);
  auto [It, Fresh] = Seg.Map.emplace(Key, Payload->asString());
  (void)It;
  if (Fresh) {
    // Content-addressed: a duplicate key is the same payload, so only
    // first insertion reaches the store (same rule as persistentInsert).
    Store->append(Segment, Key, Payload->asString());
    Seg.Bytes += Payload->asString().size();
    PutsStored.fetch_add(1, std::memory_order_relaxed);
  }
  Resp.set("stored", JsonValue::boolean(Fresh));
  return Resp;
}

JsonValue CacheDaemon::handleStats() {
  JsonValue Resp = makeOkResponse();
  Resp.set("role", JsonValue::str("cached"));
  Resp.set("listen", JsonValue::str(addr().str()));
  Resp.set("dir", JsonValue::str(Config.Dir));
  Resp.set("pid", JsonValue::number(std::int64_t(::getpid())));
  Resp.set("uptime_s",
           JsonValue::number(
               std::chrono::duration_cast<std::chrono::duration<double>>(
                   std::chrono::steady_clock::now() - StartAt)
                   .count()));
  Resp.set("gets", JsonValue::number(std::int64_t(Gets.load())));
  Resp.set("hits", JsonValue::number(std::int64_t(Hits.load())));
  Resp.set("misses", JsonValue::number(std::int64_t(Misses.load())));
  Resp.set("puts", JsonValue::number(std::int64_t(Puts.load())));
  Resp.set("puts_stored", JsonValue::number(std::int64_t(PutsStored.load())));
  Resp.set("rejected", JsonValue::number(std::int64_t(Rejected.load())));
  Resp.set("draining", JsonValue::boolean(Frames.draining()));
  JsonValue Segs = JsonValue::object();
  std::uint64_t Entries = 0;
  {
    std::lock_guard<std::mutex> Lock(StoreM);
    for (const auto &[Name, Seg] : Segments) {
      JsonValue S = JsonValue::object();
      S.set("entries", JsonValue::number(std::int64_t(Seg.Map.size())));
      S.set("bytes", JsonValue::number(std::int64_t(Seg.Bytes)));
      Segs.set(Name, std::move(S));
      Entries += Seg.Map.size();
    }
    Resp.set("bytes_written", JsonValue::number(
                                  std::int64_t(Store->bytesWritten())));
    Resp.set("bytes_loaded",
             JsonValue::number(std::int64_t(Store->bytesLoaded())));
    Resp.set("corrupt_lines_skipped",
             JsonValue::number(std::int64_t(Store->corruptLinesSkipped())));
  }
  Resp.set("entries", JsonValue::number(std::int64_t(Entries)));
  Resp.set("segments", std::move(Segs));
  return Resp;
}

JsonValue CacheDaemon::handleDrain() {
  std::uint64_t Entries = drain();
  JsonValue Resp = makeOkResponse();
  Resp.set("drained", JsonValue::boolean(true));
  Resp.set("entries", JsonValue::number(std::int64_t(Entries)));
  return Resp;
}

std::uint64_t CacheDaemon::drain() {
  Frames.drain([this] { syncStore(); });
  return DrainEntries;
}

void CacheDaemon::syncStore() {
  std::lock_guard<std::mutex> Lock(StoreM);
  for (const auto &[Name, Seg] : Segments)
    DrainEntries += Seg.Map.size();
  // fsync before reporting drained: a drain-then-restart must replay
  // every acknowledged put (same discipline as the service drain).
  Store->sync();
  logf(LogLevel::Info, "cached", "drain: store synced (%llu entries)",
       static_cast<unsigned long long>(DrainEntries));
}

std::string CacheDaemon::renderMetrics() {
  PrometheusWriter W;
  W.gauge("se2gis_cached_uptime_seconds", "daemon uptime",
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - StartAt)
              .count());
  W.gauge("se2gis_cached_draining", "1 while the daemon is draining",
          Frames.draining() ? 1 : 0);
  W.counter("se2gis_cached_gets_total", "cache.get requests admitted",
            static_cast<double>(Gets.load()));
  W.counter("se2gis_cached_hits_total", "cache.get requests that found a key",
            static_cast<double>(Hits.load()));
  W.counter("se2gis_cached_misses_total", "cache.get requests with no entry",
            static_cast<double>(Misses.load()));
  W.counter("se2gis_cached_puts_total", "cache.put requests admitted",
            static_cast<double>(Puts.load()));
  W.counter("se2gis_cached_puts_stored_total",
            "cache.put requests that appended a fresh entry",
            static_cast<double>(PutsStored.load()));
  W.counter("se2gis_cached_rejected_total",
            "requests refused by admission control",
            static_cast<double>(Rejected.load()));
  std::lock_guard<std::mutex> Lock(StoreM);
  for (const auto &[Name, Seg] : Segments) {
    W.gauge("se2gis_cached_entries", "entries held per segment",
            static_cast<double>(Seg.Map.size()), {{"segment", Name}});
    W.gauge("se2gis_cached_segment_bytes", "payload bytes held per segment",
            static_cast<double>(Seg.Bytes), {{"segment", Name}});
  }
  W.counter("se2gis_cached_store_bytes_written_total",
            "bytes appended to the backing store",
            static_cast<double>(Store->bytesWritten()));
  W.counter("se2gis_cached_store_bytes_loaded_total",
            "bytes loaded from the backing store",
            static_cast<double>(Store->bytesLoaded()));
  return W.str();
}

void CacheDaemon::run() { Frames.run(); }

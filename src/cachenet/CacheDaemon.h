//===- CacheDaemon.h - Shared cache tier daemon -----------------*- C++-*-===//
///
/// \file
/// The server half of the shared cache tier: a standalone daemon
/// (tools/se2gis_cached.cpp) that owns one DiskStore directory and serves
/// it to a fleet of solver nodes over the service frame protocol. One
/// solve on any node warms every node (ROADMAP "Distributed/shared cache
/// tier").
///
/// Methods (all share the length-prefixed JSON framing, typed ErrorCode
/// failures, and per-frame request ids of src/service/Protocol.h):
///
///   cache.get   {"segment","key"}            → {"ok","found","payload"?}
///   cache.put   {"segment","key","payload"}  → {"ok","stored"}
///   cache.stats {}                           → {"ok",segments,counters,...}
///   cache.drain {}                           → {"ok","drained","entries"}
///   ping        {}                           → {"ok","pong","role":"cached"}
///
/// Admission control: segment names are validated against a strict
/// charset (they become file names — path traversal through a hostile
/// segment is refused as bad_request), keys must be 32-hex, payloads are
/// bounded by MaxPayloadBytes, and oversized frames get the typed
/// oversized_frame hangup.
///
/// Storage is the exact DiskStore of the local tiers (same JSONL+CRC
/// lines, last-wins dedup, fsync discipline), so a daemon directory and a
/// node cache directory are interchangeable on disk. All segment state —
/// including lazy segment loading, whose `loadSegment` may *compact* the
/// file — is serialized behind one store mutex: DiskStore compaction
/// assumes a single writer and no concurrent reader mid-rename (DESIGN.md
/// "Memoization model"), and the daemon upholds that by construction.
///
/// The sockets — listeners, connection threads, request ids, the
/// plain-HTTP metrics listener (families se2gis_cached_*), drain-once —
/// are the FrameServer (service/FrameServer.h) that se2gis_served uses
/// too.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CACHENET_CACHEDAEMON_H
#define SE2GIS_CACHENET_CACHEDAEMON_H

#include "cache/DiskStore.h"
#include "service/FrameServer.h"
#include "support/Log.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace se2gis {

struct CacheDaemonConfig {
  std::string Listen = "unix:.se2gis-cached.sock";
  /// Store directory (same format as a node's --cache-dir).
  std::string Dir = ".se2gis-cached";
  /// Prometheus exposition address; empty disables the listener.
  std::string MetricsAddr;
  /// Admission bound on one entry's payload. Well under the frame bound,
  /// so a hostile put is refused as bad_request, not an oversized hangup.
  std::size_t MaxPayloadBytes = 4u << 20;
  /// Segment compaction threshold, forwarded to DiskStore::loadSegment.
  std::uint64_t CompactBytes = 64ull << 20;
  LogSettings Log;
};

class CacheDaemon {
public:
  explicit CacheDaemon(CacheDaemonConfig C);
  ~CacheDaemon();

  /// Binds the listener(s), opens the store, and preloads the hot
  /// segments. \returns false with a diagnostic on any failure.
  bool start(std::string &Error);

  /// Blocks until drained (runs the accept loop to completion and joins
  /// every thread).
  void run();

  /// Async-signal-safe drain trigger (SIGINT/SIGTERM handlers).
  void requestDrainAsync() { Frames.requestDrainAsync(); }

  /// Syncs the store and stops the daemon; idempotent. A concurrent call
  /// blocks until the store is synced. \returns the total entry count at
  /// drain time.
  std::uint64_t drain();

  const ServiceAddr &addr() const { return Frames.addr(); }
  const ServiceAddr &metricsAddr() const { return Frames.metricsAddr(); }

  /// Prometheus text exposition of the daemon's own families (exposed for
  /// tests; the HTTP listener serves exactly this).
  std::string renderMetrics();

  CacheDaemon(const CacheDaemon &) = delete;
  CacheDaemon &operator=(const CacheDaemon &) = delete;

private:
  struct SegmentState {
    DiskStore::SegmentMap Map;
    std::uint64_t Bytes = 0; ///< sum of payload sizes (gauge fodder)
  };

  JsonValue handleRequest(const JsonValue &Req);
  JsonValue handleGet(const JsonValue &Req);
  JsonValue handlePut(const JsonValue &Req);
  JsonValue handleStats();
  JsonValue handleDrain();
  /// The drain body: fsync the store and record DrainEntries.
  void syncStore();

  /// Loads \p Name on first touch. Caller must hold StoreM — loadSegment
  /// may compact, and compaction requires exclusive store access.
  SegmentState &segmentLocked(const std::string &Name);

  CacheDaemonConfig Config;

  std::mutex StoreM; ///< serializes gets, puts, loads, and compaction
  std::unique_ptr<DiskStore> Store;
  std::map<std::string, SegmentState> Segments;

  std::atomic<std::uint64_t> Gets{0}, Hits{0}, Misses{0};
  std::atomic<std::uint64_t> Puts{0}, PutsStored{0}, Rejected{0};
  std::chrono::steady_clock::time_point StartAt;
  /// Written by the drain body, read after Frames.drain returned.
  std::uint64_t DrainEntries = 0;

  /// Declared last: destroyed first, while the hooks' targets still exist.
  FrameServer Frames;
};

/// \returns true when \p Name is an acceptable segment name: 1–64 chars of
/// [a-z0-9_-]. Segment names become file names under the store directory,
/// so anything else — separators, dots, uppercase — is refused.
bool validCacheSegmentName(const std::string &Name);

} // namespace se2gis

#endif // SE2GIS_CACHENET_CACHEDAEMON_H

//===- CacheConfig.h - Memoization subsystem configuration ------*- C++-*-===//
///
/// \file
/// Process-wide configuration of the content-addressed memoization
/// subsystem (see DESIGN.md "Memoization model"). Three modes:
///
///  - \c Off  — every consult is a miss, every insert a no-op (default).
///  - \c Mem  — sharded in-memory caches only; state dies with the process.
///  - \c Disk — in-memory caches backed by a persistent store in the cache
///    directory; verdict-relevant reuse is re-validated by the consumers
///    (see SmtQueryCache's type checks and the suite runner's solution
///    re-verification), so a stale or corrupted store can never change a
///    verdict — only waste a re-validation.
///  - \c Remote — Disk plus a shared cache daemon (se2gis_cached, see
///    src/cachenet/): persistent lookups that miss locally probe the
///    daemon (read-through, populated downward on hit), persistent
///    inserts fan out to it write-behind, and a dead or slow daemon
///    degrades the node to local-only via a circuit breaker — never a
///    stalled or failed solve. Remote entries go through the exact same
///    consumer re-validation as Disk entries.
///
/// \c configureCache is idempotent for identical settings and thread-safe;
/// the solver entry points call it with the run's \c SolverConfig, so the
/// first run in a process pays the (lazy) store load and later runs — e.g.
/// every task of a suite sweep — share the warm state.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CACHE_CACHECONFIG_H
#define SE2GIS_CACHE_CACHECONFIG_H

#include "cache/Hash128.h"

#include <optional>
#include <string>

namespace se2gis {

/// How much memoization is in effect.
enum class CacheMode : unsigned char { Off, Mem, Disk, Remote };

/// \returns "off" / "mem" / "disk" / "remote".
const char *cacheModeName(CacheMode M);

/// Parses "off" / "mem" / "disk" / "remote" (case-insensitively).
std::optional<CacheMode> parseCacheMode(const std::string &Name);

/// The cache knobs of a solver run (part of SolverConfig).
struct CacheSettings {
  CacheMode Mode = CacheMode::Off;
  /// Store directory for Disk/Remote mode (default: ./.se2gis-cache,
  /// which is .gitignore'd).
  std::string Dir = ".se2gis-cache";
  /// se2gis_cached address for Remote mode (SE2GIS_CACHE_ADDR /
  /// --cache-addr): unix:/path or tcp:host:port.
  std::string Addr;
};

/// Checks that \p Dir is usable as a cache directory: it must be absent
/// (creatable) or an existing writable directory. \returns an empty string
/// when usable, otherwise a diagnostic suitable for a UserError.
std::string validateCacheDir(const std::string &Dir);

/// Throws UserError when \p S cannot work: Disk or Remote mode on an
/// unusable directory (the \c validateCacheDir diagnostic), or Remote mode
/// without a daemon address.
void checkCacheSettings(const CacheSettings &S);

/// Applies \p S process-wide, after \c checkCacheSettings. Re-configuring
/// with identical settings is a cheap no-op; changing settings flushes and
/// resets the caches.
void configureCache(const CacheSettings &S);

/// Resets to Off and drops all in-memory state (persistent segments stay on
/// disk). Primarily for tests.
void shutdownCache();

/// Durability barrier for Disk/Remote mode: drains the remote write-behind
/// queue (bounded), then fsyncs the persistent store's segment files and
/// directory entry. No-op outside persistent modes. The service drain
/// calls this after the last job so a reported-flushed store survives an
/// immediate crash.
void flushCache();

CacheMode cacheMode();
inline bool cacheEnabled() { return cacheMode() != CacheMode::Off; }
inline bool cachePersistent() {
  CacheMode M = cacheMode();
  return M == CacheMode::Disk || M == CacheMode::Remote;
}

/// Looks \p K up in persistent segment \p Segment ("smt", "suite", ...):
/// the loaded local segment first, then — in Remote mode — one bounded
/// daemon probe, whose hit is populated downward into the local segment
/// map and DiskStore before being returned. Returns nullopt unless a
/// persistent mode is active and some tier held the key.
std::optional<std::string> persistentLookup(const char *Segment,
                                            const Hash128 &K);

/// Appends (\p K, \p Payload) to persistent segment \p Segment (and, in
/// Remote mode, enqueues a write-behind put to the daemon); a no-op
/// outside persistent modes. Last record wins on reload.
void persistentInsert(const char *Segment, const Hash128 &K,
                      const std::string &Payload);

} // namespace se2gis

#endif // SE2GIS_CACHE_CACHECONFIG_H

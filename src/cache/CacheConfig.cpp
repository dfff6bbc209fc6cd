//===- CacheConfig.cpp ----------------------------------------------------===//

#include "cache/CacheConfig.h"

#include "cache/DiskStore.h"
#include "cache/SgeSolutionCache.h"
#include "cache/SmtQueryCache.h"
#include "cachenet/RemoteStore.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <atomic>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace se2gis;

namespace fs = std::filesystem;

const char *se2gis::cacheModeName(CacheMode M) {
  switch (M) {
  case CacheMode::Off:
    return "off";
  case CacheMode::Mem:
    return "mem";
  case CacheMode::Disk:
    return "disk";
  case CacheMode::Remote:
    return "remote";
  }
  return "off";
}

std::optional<CacheMode> se2gis::parseCacheMode(const std::string &Name) {
  std::string L;
  for (char C : Name)
    L += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (L == "off" || L == "none" || L == "0")
    return CacheMode::Off;
  if (L == "mem" || L == "memory")
    return CacheMode::Mem;
  if (L == "disk" || L == "persist")
    return CacheMode::Disk;
  if (L == "remote" || L == "net")
    return CacheMode::Remote;
  return std::nullopt;
}

std::string se2gis::validateCacheDir(const std::string &Dir) {
  if (Dir.empty())
    return "cache dir is empty";
  std::error_code EC;
  fs::path P(Dir);
  if (fs::exists(P, EC)) {
    if (!fs::is_directory(P, EC))
      return "cache dir '" + Dir +
             "' exists but is not a directory; delete it or choose another "
             "cache dir";
    // Writability probe: actually create a file. Permission bits alone lie
    // for privileged users and exotic filesystems.
    fs::path Probe = P / ".se2gis-probe";
    std::ofstream Out(Probe);
    bool Ok = static_cast<bool>(Out) && static_cast<bool>(Out << 'x');
    Out.close();
    fs::remove(Probe, EC);
    if (!Ok)
      return "cache dir '" + Dir +
             "' exists but is not writable; fix its permissions or choose "
             "another cache dir";
    return "";
  }
  fs::path Parent = P.parent_path();
  if (!Parent.empty() && !fs::exists(Parent, EC))
    return "cache dir '" + Dir + "' cannot be created (missing parent '" +
           Parent.string() + "')";
  return "";
}

void se2gis::checkCacheSettings(const CacheSettings &S) {
  if (S.Mode == CacheMode::Disk || S.Mode == CacheMode::Remote) {
    std::string Problem = validateCacheDir(S.Dir);
    if (!Problem.empty())
      userError(Problem);
  }
  if (S.Mode == CacheMode::Remote && S.Addr.empty())
    userError("remote cache mode needs a daemon address");
}

namespace {

/// All mutable global state of the subsystem, behind one mutex. The hot
/// paths (lookup/insert on the sharded caches) do not take this lock; it
/// guards only (re)configuration and persistent-segment access.
struct CacheRuntime {
  std::mutex M;
  CacheSettings Settings;
  std::unique_ptr<DiskStore> Store;
  std::unordered_map<std::string, DiskStore::SegmentMap> Segments;
  /// Remote tier client (Remote mode only). shared_ptr so the slow network
  /// probe and the flush barrier can run *outside* the runtime lock while a
  /// concurrent reconfigure stays safe.
  std::shared_ptr<RemoteStore> Remote;
  /// Mode mirror for the lock-free cacheMode() fast path.
  std::atomic<CacheMode> Mode{CacheMode::Off};
};

CacheRuntime &runtime() {
  static CacheRuntime R;
  return R;
}

void resetLocked(CacheRuntime &R) {
  R.Store.reset();
  R.Segments.clear();
  R.Remote.reset();
  smtQueryCache().clear();
  sgeSolutionCache().clear();
  pbeMemo().clear();
}

} // namespace

void se2gis::configureCache(const CacheSettings &S) {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  bool Persistent = S.Mode == CacheMode::Disk || S.Mode == CacheMode::Remote;
  if (S.Mode == R.Settings.Mode && (!Persistent || S.Dir == R.Settings.Dir) &&
      (S.Mode != CacheMode::Remote || S.Addr == R.Settings.Addr))
    return; // idempotent re-configure (every SynthesisTask::run calls this)

  checkCacheSettings(S);

  resetLocked(R);
  R.Settings = S;
  R.Mode.store(S.Mode, std::memory_order_release);
  if (!Persistent)
    return;

  std::string Error;
  R.Store = DiskStore::open(S.Dir, Error);
  if (!R.Store) {
    R.Settings.Mode = CacheMode::Off;
    R.Mode.store(CacheMode::Off, std::memory_order_release);
    userError(Error);
  }
  for (const char *Segment : {"smt", "suite"}) {
    R.Segments[Segment] = R.Store->loadSegment(Segment);
    for (const auto &[K, Payload] : R.Segments[Segment]) {
      (void)K;
      perfAdd(PerfCounter::CacheBytesLoaded, Payload.size());
    }
  }

  if (S.Mode == CacheMode::Remote) {
    RemoteStoreOptions Opts;
    Opts.Addr = S.Addr;
    R.Remote = RemoteStore::create(Opts, Error);
    if (!R.Remote) {
      // Only a malformed address fails construction; an unreachable daemon
      // is a degraded (local-only) store, never a failed configure.
      resetLocked(R);
      R.Settings = CacheSettings{};
      R.Mode.store(CacheMode::Off, std::memory_order_release);
      userError("cache addr: " + Error);
    }
  }
}

void se2gis::flushCache() {
  CacheRuntime &R = runtime();
  std::shared_ptr<RemoteStore> Remote;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    Remote = R.Remote;
  }
  // Drain the write-behind queue before the fsync barrier, outside the
  // runtime lock (the drainer's puts are network-bounded).
  if (Remote)
    Remote->flush();
  std::lock_guard<std::mutex> Lock(R.M);
  if (R.Store)
    R.Store->sync();
}

void se2gis::shutdownCache() {
  CacheRuntime &R = runtime();
  std::lock_guard<std::mutex> Lock(R.M);
  resetLocked(R);
  R.Settings = CacheSettings{};
  R.Settings.Mode = CacheMode::Off;
  R.Mode.store(CacheMode::Off, std::memory_order_release);
}

CacheMode se2gis::cacheMode() {
  return runtime().Mode.load(std::memory_order_acquire);
}

std::optional<std::string> se2gis::persistentLookup(const char *Segment,
                                                    const Hash128 &K) {
  CacheRuntime &R = runtime();
  std::shared_ptr<RemoteStore> Remote;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    auto SegIt = R.Segments.find(Segment);
    if (SegIt != R.Segments.end()) {
      auto It = SegIt->second.find(K);
      if (It != SegIt->second.end())
        return It->second;
    }
    Remote = R.Remote;
  }
  if (!Remote)
    return std::nullopt;
  // Remote probe outside the lock: it is bounded (timeouts + breaker) but
  // still orders of magnitude slower than the map lookups above, and must
  // not serialize other threads' local probes.
  std::optional<std::string> Payload = Remote->get(Segment, K);
  if (!Payload)
    return std::nullopt;
  // Populate downward (read-through): the local segment map and DiskStore
  // absorb the hit, so the next probe — and the next process on this node —
  // never pays the network again. Consumers still re-validate the payload;
  // a poisoned remote entry lands locally at worst as dead weight that
  // re-validation keeps rejecting.
  std::lock_guard<std::mutex> Lock(R.M);
  if (R.Remote != Remote)
    return Payload; // reconfigured mid-probe; don't touch the new store
  auto [It, Fresh] = R.Segments[Segment].emplace(K, *Payload);
  (void)It;
  if (Fresh && R.Store) {
    R.Store->append(Segment, K, *Payload);
    perfAdd(PerfCounter::CacheBytesWritten, Payload->size());
  }
  return Payload;
}

void se2gis::persistentInsert(const char *Segment, const Hash128 &K,
                              const std::string &Payload) {
  CacheRuntime &R = runtime();
  std::shared_ptr<RemoteStore> Remote;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    if (!R.Store)
      return;
    auto [It, Fresh] = R.Segments[Segment].emplace(K, Payload);
    (void)It;
    if (!Fresh)
      return; // already persisted (content-addressed: same key, same payload)
    R.Store->append(Segment, K, Payload);
    perfAdd(PerfCounter::CacheBytesWritten, Payload.size());
    Remote = R.Remote;
  }
  // Write-behind fan-out: enqueue only (bounded queue, background drainer);
  // a slow daemon never backpressures the solver thread.
  if (Remote)
    Remote->putAsync(Segment, K, Payload);
}

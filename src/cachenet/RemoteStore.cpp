//===- RemoteStore.cpp ----------------------------------------------------===//

#include "cachenet/RemoteStore.h"

#include "support/Log.h"
#include "support/PerfCounters.h"
#include "support/Trace.h"

#include <unistd.h>

using namespace se2gis;

std::unique_ptr<RemoteStore> RemoteStore::create(const RemoteStoreOptions &O,
                                                 std::string &Error) {
  ServiceAddr A;
  if (!parseServiceAddr(O.Addr, A, Error))
    return nullptr;
  return std::unique_ptr<RemoteStore>(new RemoteStore(O, std::move(A)));
}

RemoteStore::RemoteStore(RemoteStoreOptions O, ServiceAddr A)
    : Opts(std::move(O)), Remote(std::move(A)) {
  Writer = std::thread([this] { writerLoop(); });
}

RemoteStore::~RemoteStore() {
  // Give queued puts one bounded chance to land; a dead daemon makes the
  // writer burn through them fast (breaker-gated fast fails).
  flush(Opts.RequestTimeoutMs);
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    StopWriter = true;
  }
  QueueCv.notify_all();
  if (Writer.joinable())
    Writer.join();
  std::lock_guard<std::mutex> Lock(PoolM);
  for (int Fd : IdleFds)
    closeFd(Fd);
  IdleFds.clear();
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

bool RemoteStore::admit(bool &IsProbe) {
  std::lock_guard<std::mutex> Lock(BreakerM);
  switch (State) {
  case Breaker::Closed:
    return true;
  case Breaker::Open: {
    auto Now = std::chrono::steady_clock::now();
    if (Now - OpenedAt <  std::chrono::milliseconds(Opts.BreakerCooldownMs))
      return false;
    // Cooldown elapsed: this caller becomes the single half-open probe.
    State = Breaker::HalfOpen;
    ProbeInFlight = true;
    IsProbe = true;
    return true;
  }
  case Breaker::HalfOpen:
    if (ProbeInFlight)
      return false; // someone's probe is in flight; keep failing fast
    ProbeInFlight = true;
    IsProbe = true;
    return true;
  }
  return false;
}

void RemoteStore::settle(bool Ok, bool WasProbe) {
  std::lock_guard<std::mutex> Lock(BreakerM);
  if (WasProbe)
    ProbeInFlight = false;
  if (Ok) {
    if (State != Breaker::Closed)
      logf(LogLevel::Info, "cachenet", "circuit closed: %s is healthy again",
           Remote.str().c_str());
    Failures = 0;
    State = Breaker::Closed;
    return;
  }
  if (State == Breaker::HalfOpen) {
    // The probe failed: back to open, restart the cooldown.
    State = Breaker::Open;
    OpenedAt = std::chrono::steady_clock::now();
    return;
  }
  if (State == Breaker::Closed && ++Failures >= Opts.BreakerThreshold) {
    logf(LogLevel::Warn, "cachenet",
         "circuit open after %u consecutive failures: degrading to "
         "local-only cache (%s)",
         Failures, Remote.str().c_str());
    State = Breaker::Open;
    OpenedAt = std::chrono::steady_clock::now();
    Failures = 0;
  }
}

RemoteStore::Breaker RemoteStore::breakerState() const {
  std::lock_guard<std::mutex> Lock(BreakerM);
  return State;
}

//===----------------------------------------------------------------------===//
// Connection pool
//===----------------------------------------------------------------------===//

int RemoteStore::acquireFd(bool AllowPooled) {
  if (AllowPooled) {
    std::lock_guard<std::mutex> Lock(PoolM);
    if (!IdleFds.empty()) {
      int Fd = IdleFds.back();
      IdleFds.pop_back();
      return Fd;
    }
  }
  std::string Error;
  int Fd = connectTo(Remote, Error, Opts.ConnectTimeoutMs);
  if (Fd < 0) {
    logf(LogLevel::Debug, "cachenet", "%s", Error.c_str());
    return -1;
  }
  setFdIoTimeout(Fd, Opts.RequestTimeoutMs);
  return Fd;
}

void RemoteStore::releaseFd(int Fd) {
  std::lock_guard<std::mutex> Lock(PoolM);
  if (IdleFds.size() < Opts.PoolSize) {
    IdleFds.push_back(Fd);
    return;
  }
  closeFd(Fd);
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::optional<JsonValue> RemoteStore::call(const JsonValue &Request) {
  bool IsProbe = false;
  if (!admit(IsProbe)) {
    perfAdd(PerfCounter::CacheRemoteDegraded);
    return std::nullopt;
  }
  const std::string Wire = Request.dump();
  for (unsigned Attempt = 0; Attempt < Opts.MaxAttempts; ++Attempt) {
    if (Attempt)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Attempt * Opts.BackoffBaseMs));
    // A pooled fd may be stale (daemon restarted since it was parked), so
    // only the first attempt trusts the pool; retries always reconnect.
    int Fd = acquireFd(/*AllowPooled=*/Attempt == 0);
    if (Fd < 0)
      continue;
    std::string Payload;
    bool Ok = writeFrame(Fd, Wire) && readFrame(Fd, Payload) == FrameStatus::Ok;
    JsonValue Resp;
    std::string ParseError;
    if (Ok)
      Ok = JsonValue::parse(Payload, Resp, ParseError) && Resp.isObject();
    if (Ok) {
      releaseFd(Fd);
      settle(true, IsProbe);
      return Resp;
    }
    closeFd(Fd); // never pool a connection in an unknown protocol state
  }
  settle(false, IsProbe);
  perfAdd(PerfCounter::CacheRemoteErrors);
  return std::nullopt;
}

std::optional<std::string> RemoteStore::get(const char *Segment,
                                            const Hash128 &K) {
  auto Start = std::chrono::steady_clock::now();
  TraceSpan Span("cache.remote", "cache");
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("cache.get"));
  Req.set("segment", JsonValue::str(Segment));
  Req.set("key", JsonValue::str(K.hex()));
  std::optional<JsonValue> Resp = call(Req);
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  perfRecordNs(PerfHistogram::CacheRemoteProbeNs,
               static_cast<std::uint64_t>(Ns > 0 ? Ns : 0));
  Span.arg("segment", Segment);
  if (!Resp)
    return std::nullopt; // degraded / errored, already counted
  if (!Resp->getBool("ok", false)) {
    // The daemon is alive but refused (draining, bad request): a protocol-
    // level error, not a miss.
    perfAdd(PerfCounter::CacheRemoteErrors);
    return std::nullopt;
  }
  if (!Resp->getBool("found", false)) {
    perfAdd(PerfCounter::CacheRemoteMisses);
    return std::nullopt;
  }
  const JsonValue *P = Resp->get("payload");
  if (!P || !P->isString()) {
    perfAdd(PerfCounter::CacheRemoteErrors);
    return std::nullopt;
  }
  perfAdd(PerfCounter::CacheRemoteHits);
  Span.arg("hit", "true");
  logf(LogLevel::Debug, "cachenet", "remote hit %s/%s (%zu bytes)", Segment,
       K.hex().c_str(), P->asString().size());
  return P->asString();
}

bool RemoteStore::putSync(const std::string &Segment, const Hash128 &K,
                          const std::string &Payload) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("cache.put"));
  Req.set("segment", JsonValue::str(Segment));
  Req.set("key", JsonValue::str(K.hex()));
  Req.set("payload", JsonValue::str(Payload));
  std::optional<JsonValue> Resp = call(Req);
  if (!Resp)
    return false;
  if (!Resp->getBool("ok", false)) {
    perfAdd(PerfCounter::CacheRemoteErrors);
    return false;
  }
  return true;
}

void RemoteStore::putAsync(const char *Segment, const Hash128 &K,
                           std::string Payload) {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (StopWriter)
      return;
    if (Queue.size() >= Opts.PutQueueBound) {
      // Dropping is the design: the local tiers already hold the entry,
      // and a backlogged daemon must not become backpressure on solving.
      perfAdd(PerfCounter::CacheRemoteErrors);
      logf(LogLevel::Debug, "cachenet",
           "write-behind queue full (%zu); dropping put %s/%s",
           Queue.size(), Segment, K.hex().c_str());
      return;
    }
    Queue.push_back(PutOp{Segment, K, std::move(Payload)});
  }
  QueueCv.notify_one();
}

bool RemoteStore::flush(int TimeoutMs) {
  std::unique_lock<std::mutex> Lock(QueueM);
  return DrainedCv.wait_for(Lock, std::chrono::milliseconds(TimeoutMs),
                            [&] { return Queue.empty() && !WriterBusy; });
}

void RemoteStore::writerLoop() {
  std::unique_lock<std::mutex> Lock(QueueM);
  while (true) {
    QueueCv.wait(Lock, [&] { return StopWriter || !Queue.empty(); });
    if (Queue.empty()) {
      if (StopWriter)
        return;
      continue;
    }
    PutOp Op = std::move(Queue.front());
    Queue.pop_front();
    WriterBusy = true;
    Lock.unlock();
    putSync(Op.Segment, Op.Key, Op.Payload);
    Lock.lock();
    WriterBusy = false;
    if (Queue.empty())
      DrainedCv.notify_all();
  }
}

//===- SynthesisTask.cpp --------------------------------------------------===//

#include "core/SynthesisTask.h"

#include "support/Diagnostics.h"
#include "support/Trace.h"

#include <cstdlib>

using namespace se2gis;

SolverConfig SolverConfig::fromEnv(std::int64_t DefaultTimeoutMs) {
  SolverConfig C;
  C.Algo.TimeoutMs = DefaultTimeoutMs;
  if (const char *T = std::getenv("SE2GIS_TIMEOUT_MS")) {
    long long V = std::atoll(T);
    if (V > 0)
      C.Algo.TimeoutMs = V;
  } else if (const char *T = std::getenv("SE2GIS_TIMEOUT")) {
    long long V = std::atoll(T);
    if (V > 0)
      C.Algo.TimeoutMs = V * 1000;
  }
  if (const char *S = std::getenv("SE2GIS_SEED")) {
    long long V = std::atoll(S);
    if (V > 0)
      C.Algo.Seed = static_cast<unsigned>(V);
  }
  if (const char *S = std::getenv("SE2GIS_GEN_SEED")) {
    long long V = std::atoll(S);
    if (V > 0)
      C.GenSeed = static_cast<std::uint64_t>(V);
  }
  if (const char *I = std::getenv("SE2GIS_SMT_INCREMENTAL")) {
    std::string V = I;
    if (V == "on")
      C.Algo.SmtIncremental = true;
    else if (V == "off")
      C.Algo.SmtIncremental = false;
    else
      userError("SE2GIS_SMT_INCREMENTAL: expected on or off, got '" + V +
                "'");
  }
  if (const char *U = std::getenv("SE2GIS_UNREAL")) {
    auto Mode = parseUnrealMode(U);
    if (!Mode)
      userError(std::string("SE2GIS_UNREAL: unknown unrealizability mode '") +
                U + "' (expected witness, chc, or race)");
    C.Algo.Unreal = *Mode;
  }
  if (const char *F = std::getenv("SE2GIS_FILTER"))
    C.Filter = F;
  if (const char *J = std::getenv("SE2GIS_JOBS")) {
    long V = std::atol(J);
    if (V > 0)
      C.Jobs = static_cast<unsigned>(V);
  }
  if (const char *P = std::getenv("SE2GIS_PERF_JSON"))
    C.PerfJsonPath = P;
  if (const char *M = std::getenv("SE2GIS_CACHE")) {
    auto Mode = parseCacheMode(M);
    if (!Mode)
      userError(std::string("SE2GIS_CACHE: unknown cache mode '") + M +
                "' (expected off, mem, disk, or remote)");
    C.Cache.Mode = *Mode;
  }
  if (const char *D = std::getenv("SE2GIS_CACHE_DIR"))
    C.Cache.Dir = D;
  if (const char *A = std::getenv("SE2GIS_CACHE_ADDR"))
    C.Cache.Addr = A;
  if (C.Cache.Mode == CacheMode::Disk ||
      C.Cache.Mode == CacheMode::Remote) {
    std::string Err = validateCacheDir(C.Cache.Dir);
    if (!Err.empty())
      userError("SE2GIS_CACHE_DIR: " + Err);
  }
  if (C.Cache.Mode == CacheMode::Remote && C.Cache.Addr.empty())
    userError("SE2GIS_CACHE=remote needs a daemon address "
              "(SE2GIS_CACHE_ADDR or --cache-addr)");
  if (const char *L = std::getenv("SE2GIS_LOG")) {
    auto Level = parseLogLevel(L);
    if (!Level)
      userError(std::string("SE2GIS_LOG: unknown log level '") + L +
                "' (expected error, warn, info, or debug)");
    C.Log.Level = *Level;
  } else if (std::getenv("SE2GIS_DEBUG")) {
    C.Log.Level = LogLevel::Debug;
  }
  if (const char *J = std::getenv("SE2GIS_LOG_JSON"))
    C.Log.JsonPath = J;
  if (const char *T = std::getenv("SE2GIS_TRACE"))
    C.TracePath = T;
  return C;
}

Outcome SynthesisTask::run(const SolverConfig &Config) const {
  Outcome R;
  if (!Prob) {
    R.Detail = "task has no problem attached";
    return R;
  }
  try {
    configureCache(Config.Cache);
    configureLogging(Config.Log);
    if (!Config.TracePath.empty())
      traceConfigure(Config.TracePath);
    R = runAlgorithm(Algorithm, *Prob, Config.Algo);
  } catch (const UserError &E) {
    R.V = Verdict::Failed;
    R.Detail = E.what();
  }
  return R;
}

//===- SynthesisTask.cpp --------------------------------------------------===//

#include "core/SynthesisTask.h"

#include "support/Diagnostics.h"
#include "support/Trace.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

using namespace se2gis;

namespace {

/// Reads a whole decimal integer; throws UserError on anything else.
long long parseInteger(const std::string &V) {
  long long N = 0;
  const char *End = V.data() + V.size();
  auto [Stop, Err] = std::from_chars(V.data(), End, N);
  if (V.empty() || Err != std::errc() || Stop != End)
    userError("expected an integer, got '" + V + "'");
  return N;
}

/// The value an enum parser found in \p V; throws UserError if none.
template <typename T> T known(std::optional<T> Parsed, const std::string &V) {
  if (!Parsed)
    userError("unknown value '" + V + "'");
  return *Parsed;
}

/// The settings table: one row per SE2GIS_* variable.
const SolverSetting Settings[] = {
    {"SE2GIS_TIMEOUT_MS", "--timeout-ms", "N",
     "budget per run in milliseconds; <= 0 means no deadline",
     [](SolverConfig &C, const std::string &V) {
       C.Algo.TimeoutMs = parseInteger(V);
     }},
    {"SE2GIS_SEED", "--seed", "N", "Z3 random seed (0 = Z3's default)",
     [](SolverConfig &C, const std::string &V) {
       long long N = parseInteger(V);
       if (N < 0 || N > std::numeric_limits<unsigned>::max())
         userError("'" + V + "' is out of range");
       C.Algo.Seed = static_cast<unsigned>(N);
     }},
    {"SE2GIS_UNREAL", "--unreal", "witness|chc|race|auto",
     "unrealizability channels (auto: race under portfolio, witness "
     "elsewhere)",
     [](SolverConfig &C, const std::string &V) {
       C.Algo.Unreal = known(parseUnrealMode(V), V);
     }},
    {"SE2GIS_CACHE", "--cache", "off|mem|disk|remote",
     "memoization mode (default off)",
     [](SolverConfig &C, const std::string &V) {
       C.Cache.Mode = known(parseCacheMode(V), V);
     }},
    {"SE2GIS_CACHE_DIR", "--cache-dir", "DIR",
     "store directory of a disk or remote cache (default ./.se2gis-cache)",
     [](SolverConfig &C, const std::string &V) { C.Cache.Dir = V; }},
    {"SE2GIS_CACHE_ADDR", "--cache-addr", "ADDR",
     "se2gis_cached address of a remote cache (unix:PATH or "
     "tcp:HOST:PORT)",
     [](SolverConfig &C, const std::string &V) { C.Cache.Addr = V; }},
    {"SE2GIS_LOG", "--log-level", "error|warn|info|debug",
     "logger verbosity (default info)",
     [](SolverConfig &C, const std::string &V) {
       C.Log.Level = known(parseLogLevel(V), V);
     }},
    {"SE2GIS_TRACE", "--trace", "PATH",
     "write the flight recorder here as Chrome trace_event JSON",
     [](SolverConfig &C, const std::string &V) { C.TracePath = V; }},
    {"SE2GIS_FILTER", nullptr, "TEXT",
     "suite sweeps run only the benchmarks whose name contains TEXT",
     [](SolverConfig &C, const std::string &V) { C.Filter = V; }},
    {"SE2GIS_JOBS", nullptr, "N",
     "concurrent suite workers; anything but a positive integer means "
     "hardware concurrency",
     [](SolverConfig &C, const std::string &V) {
       long N = std::atol(V.c_str());
       C.Jobs = N > 0 ? static_cast<unsigned>(N) : 0;
     }},
    {"SE2GIS_PERF_JSON", nullptr, "PATH",
     "suite sweeps write their perf-counter JSON summary here",
     [](SolverConfig &C, const std::string &V) { C.PerfJsonPath = V; }},
};

/// Parses \p Value through \p S, prefixing any error with \p Source (the
/// variable or flag the value came from) and the values it takes.
void apply(const SolverSetting &S, const char *Source, SolverConfig &C,
           const std::string &Value) {
  try {
    S.Parse(C, Value);
  } catch (const UserError &E) {
    userError(std::string(Source) + " " + S.Arg + ": " + E.what());
  }
}

} // namespace

std::span<const SolverSetting> se2gis::solverSettings() { return Settings; }

std::string se2gis::solverFlagUsage() {
  std::string Out;
  for (const SolverSetting &S : Settings) {
    if (!S.Flag)
      continue;
    Out += std::string("  ") + S.Flag + " " + S.Arg + "  [" + S.Env + "]\n" +
           "      " + S.Help + "\n";
  }
  return Out;
}

SolverConfig SolverConfig::fromEnv(std::int64_t DefaultTimeoutMs) {
  SolverConfig C;
  C.Algo.TimeoutMs = DefaultTimeoutMs;
  for (const SolverSetting &S : Settings)
    if (const char *V = std::getenv(S.Env))
      apply(S, S.Env, C, V);
  C.check();
  return C;
}

bool SolverConfig::parseFlag(int Argc, char **Argv, int &I) {
  for (const SolverSetting &S : Settings) {
    if (!S.Flag || std::strcmp(Argv[I], S.Flag) != 0)
      continue;
    if (I + 1 >= Argc)
      userError(std::string(S.Flag) + ": missing " + S.Arg);
    apply(S, S.Flag, *this, Argv[++I]);
    return true;
  }
  return false;
}

void SolverConfig::check() const { checkCacheSettings(Cache); }

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

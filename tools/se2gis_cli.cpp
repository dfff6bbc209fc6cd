//===- se2gis_cli.cpp - Command-line driver ---------------------*- C++-*-===//
///
/// \file
/// The `se2gis` command-line tool. Two faces:
///
/// **Direct mode** (no subcommand): reads a problem in the DSL — from a
/// file or the benchmark registry — and runs one algorithm on it in
/// process through the SynthesisTask API.
///
///   se2gis [options] <problem-file>
///   se2gis [options] --benchmark <name>
///     --algo se2gis|segis|segis-uc|portfolio   (default: se2gis)
///     --timeout N                              overall budget in seconds
///                                              (0 = unlimited)
///     --timeout-ms N                           the same in milliseconds
///     --jobs N                                 worker threads for sweeps /
///                                              portfolio bookkeeping
///     --seed N                                 Z3 random seed
///     --cache off|mem|disk|remote              memoization mode
///     --cache-dir DIR                          persistent store directory
///                                              (default: ./.se2gis-cache)
///     --cache-addr ADDR                        se2gis_cached address for
///                                              --cache remote (unix:/path
///                                              or tcp:host:port)
///     --log-level error|warn|info|debug        logger verbosity
///     --trace PATH                             write a Chrome trace_event
///                                              JSON file (Perfetto-viewable)
///     --print-problem                          echo the parsed components
///     --quiet                                  result line only
///
/// Exit code: 0 realizable, 1 unrealizable, 2 timeout, 3 failure, 64 usage.
///
/// **Client mode** (first argument is a subcommand): talks to a running
/// `se2gis_served` daemon over the framed JSON protocol.
///
///   se2gis submit --connect ADDR (--benchmark NAME | --source FILE)
///                 [--algo A] [--timeout-ms N] [--priority N] [--wait]
///   se2gis status --connect ADDR <job-id>
///   se2gis result --connect ADDR <job-id>
///   se2gis cancel --connect ADDR <job-id>
///   se2gis stats  --connect ADDR
///   se2gis metrics --connect ADDR
///   se2gis drain  --connect ADDR [--deadline-ms N]
///   se2gis list   [--json]
///
/// Client exit codes: 0 success, 4 typed server error (code on stderr),
/// 70 transport failure, 64 usage — except `submit --wait`, which maps the
/// final verdict onto the direct-mode codes 0/1/2/3 so scripts can compare
/// service and in-process runs 1:1. `list` is local (no daemon needed) and
/// dumps the benchmark registry; with --json one machine-readable array of
/// {"name","family","realizable"}.
///
/// Flags override the SE2GIS_* environment (read via SolverConfig::fromEnv).
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "frontend/Elaborate.h"
#include "service/Client.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

using namespace se2gis;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: se2gis [--algo se2gis|segis|segis-uc|chc|portfolio]\n"
      "              [--timeout N] [--timeout-ms N] [--jobs N] [--seed N]\n"
      "              [--unreal witness|chc|race] [--smt-incremental on|off]\n"
      "              [--cache off|mem|disk|remote] [--cache-dir DIR]\n"
      "              [--cache-addr ADDR]\n"
      "              [--log-level error|warn|info|debug] [--trace PATH]\n"
      "              [--print-problem] [--quiet]\n"
      "              (<problem-file> | --benchmark <name>)\n"
      "       se2gis submit --connect ADDR (--benchmark NAME | --source "
      "FILE)\n"
      "              [--algo A] [--timeout-ms N] [--priority N] [--wait]\n"
      "       se2gis status|result|cancel --connect ADDR <job-id>\n"
      "       se2gis stats --connect ADDR\n"
      "       se2gis metrics --connect ADDR\n"
      "       se2gis drain --connect ADDR [--deadline-ms N]\n"
      "       se2gis list [--json]\n");
}

int verdictExitCode(const std::string &Verdict) {
  if (Verdict == "realizable")
    return 0;
  if (Verdict == "unrealizable")
    return 1;
  if (Verdict == "timeout")
    return 2;
  return 3;
}

//===----------------------------------------------------------------------===//
// `se2gis list` — the registry dump (local, no daemon)
//===----------------------------------------------------------------------===//

int listMain(int argc, char **argv) {
  bool AsJson = false;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json") {
      AsJson = true;
    } else {
      logf(LogLevel::Error, "cli", "unknown option '%s'", Arg.c_str());
      return 64;
    }
  }
  const std::vector<BenchmarkDef> &All = allBenchmarks();
  if (AsJson) {
    JsonValue Arr = JsonValue::array();
    for (const BenchmarkDef &B : All) {
      JsonValue E = JsonValue::object();
      E.set("name", JsonValue::str(B.Name));
      E.set("family", JsonValue::str(B.Category));
      E.set("realizable", JsonValue::boolean(B.ExpectRealizable));
      Arr.push(std::move(E));
    }
    std::printf("%s\n", Arr.dump().c_str());
    return 0;
  }
  for (const BenchmarkDef &B : All)
    std::printf("%-28s %-26s %s\n", B.Name.c_str(), B.Category.c_str(),
                B.ExpectRealizable ? "realizable" : "unrealizable");
  std::printf("%zu benchmarks\n", All.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// Client mode — subcommands against a running daemon
//===----------------------------------------------------------------------===//

/// Prints the typed error of an `"ok": false` response and returns the
/// client-mode exit code for it.
int reportTypedError(const JsonValue &Resp) {
  std::string Code = "internal", Message;
  if (const JsonValue *E = Resp.get("error")) {
    Code = E->getString("code", Code);
    Message = E->getString("message", "");
  }
  logf(LogLevel::Error, "cli", "%s: %s", Code.c_str(), Message.c_str());
  return 4;
}

/// One request/response against \p Addr; handles transport and typed
/// errors uniformly. \returns 0 and fills \p Resp on `"ok": true`.
int callDaemon(const std::string &Addr, const JsonValue &Req,
               JsonValue &Resp) {
  std::string Error;
  auto Client = ServiceClient::connect(Addr, Error);
  if (!Client) {
    logf(LogLevel::Error, "cli", "cannot connect to %s: %s", Addr.c_str(),
         Error.c_str());
    return 70;
  }
  if (!Client->call(Req, Resp, Error)) {
    logf(LogLevel::Error, "cli", "%s", Error.c_str());
    return 70;
  }
  if (!Resp.getBool("ok", false))
    return reportTypedError(Resp);
  return 0;
}

/// Polls `status` until the job is terminal, then fetches the result.
/// Maps the verdict onto the direct-mode exit codes for script parity.
int waitForJob(const std::string &Addr, const std::string &JobId,
               bool Quiet) {
  for (;;) {
    JsonValue Req = JsonValue::object();
    Req.set("method", JsonValue::str("status"));
    Req.set("job", JsonValue::str(JobId));
    JsonValue Resp;
    if (int Rc = callDaemon(Addr, Req, Resp))
      return Rc;
    std::string State = Resp.getString("state", "");
    if (State == "done" || State == "cancelled") {
      JsonValue RReq = JsonValue::object();
      RReq.set("method", JsonValue::str("result"));
      RReq.set("job", JsonValue::str(JobId));
      JsonValue RResp;
      if (int Rc = callDaemon(Addr, RReq, RResp))
        return Rc;
      if (State == "cancelled") {
        std::printf("%s: cancelled\n", JobId.c_str());
        return 3;
      }
      std::string Verdict = RResp.getString("verdict", "failed");
      std::printf("%s: %s (%.1f ms)\n", JobId.c_str(), Verdict.c_str(),
                  RResp.getNumber("elapsed_ms", 0.0));
      if (!Quiet) {
        std::string Solution = RResp.getString("solution", "");
        std::string Detail = RResp.getString("detail", "");
        if (!Solution.empty())
          std::printf("%s", Solution.c_str());
        else if (!Detail.empty())
          std::printf("%s\n", Detail.c_str());
      }
      return verdictExitCode(Verdict);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

int clientMain(int argc, char **argv) {
  std::string Sub = argv[1];
  std::string Addr = "unix:./se2gis.sock";
  std::string Benchmark, SourcePath, Algo, JobId;
  std::int64_t TimeoutMs = -1, DeadlineMs = -1;
  int Priority = 0;
  bool Wait = false, Quiet = false;

  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--connect" && I + 1 < argc) {
      Addr = argv[++I];
    } else if (Arg == "--benchmark" && I + 1 < argc) {
      Benchmark = argv[++I];
    } else if (Arg == "--source" && I + 1 < argc) {
      SourcePath = argv[++I];
    } else if (Arg == "--algo" && I + 1 < argc) {
      Algo = argv[++I];
    } else if (Arg == "--timeout-ms" && I + 1 < argc) {
      TimeoutMs = std::atoll(argv[++I]);
    } else if (Arg == "--deadline-ms" && I + 1 < argc) {
      DeadlineMs = std::atoll(argv[++I]);
    } else if (Arg == "--priority" && I + 1 < argc) {
      Priority = std::atoi(argv[++I]);
    } else if (Arg == "--wait") {
      Wait = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      logf(LogLevel::Error, "cli", "unknown option '%s'", Arg.c_str());
      return 64;
    } else {
      JobId = Arg;
    }
  }

  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str(Sub));

  if (Sub == "submit") {
    if (Benchmark.empty() == SourcePath.empty()) {
      logf(LogLevel::Error, "cli",
           "submit needs exactly one of --benchmark/--source");
      return 64;
    }
    if (!Benchmark.empty()) {
      Req.set("benchmark", JsonValue::str(Benchmark));
    } else {
      std::ifstream In(SourcePath);
      if (!In) {
        logf(LogLevel::Error, "cli", "cannot open '%s'", SourcePath.c_str());
        return 64;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Req.set("source", JsonValue::str(Buf.str()));
      Req.set("label", JsonValue::str(SourcePath));
    }
    if (!Algo.empty())
      Req.set("algo", JsonValue::str(Algo));
    if (TimeoutMs >= 0)
      Req.set("timeout_ms", JsonValue::number(TimeoutMs));
    if (Priority != 0)
      Req.set("priority", JsonValue::number(static_cast<std::int64_t>(Priority)));
  } else if (Sub == "status" || Sub == "result" || Sub == "cancel") {
    if (JobId.empty()) {
      logf(LogLevel::Error, "cli", "%s needs a job id", Sub.c_str());
      return 64;
    }
    Req.set("job", JsonValue::str(JobId));
  } else if (Sub == "drain") {
    if (DeadlineMs >= 0)
      Req.set("deadline_ms", JsonValue::number(DeadlineMs));
  } else if (Sub != "stats" && Sub != "ping" && Sub != "metrics") {
    logf(LogLevel::Error, "cli", "unknown subcommand '%s'", Sub.c_str());
    usage();
    return 64;
  }

  JsonValue Resp;
  if (int Rc = callDaemon(Addr, Req, Resp))
    return Rc;

  if (Sub == "submit") {
    std::string Id = Resp.getString("job", "");
    if (Wait)
      return waitForJob(Addr, Id, Quiet);
    std::printf("%s\n", Id.c_str());
    return 0;
  }
  if (Sub == "metrics") {
    // The exposition is line-oriented text, not JSON: print the body raw so
    // `se2gis metrics | promtool check metrics` just works.
    std::printf("%s", Resp.getString("body", "").c_str());
    return 0;
  }
  std::printf("%s\n", Resp.dump().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1) {
    std::string First = argv[1];
    if (First == "list")
      return listMain(argc, argv);
    if (First == "submit" || First == "status" || First == "result" ||
        First == "cancel" || First == "stats" || First == "metrics" ||
        First == "drain" || First == "ping")
      return clientMain(argc, argv);
  }

  SolverConfig Config;
  try {
    Config = SolverConfig::fromEnv(/*DefaultTimeoutMs=*/60000);
  } catch (const UserError &E) {
    logf(LogLevel::Error, "cli", "%s", E.what());
    return 64;
  }
  AlgorithmKind Algo = AlgorithmKind::SE2GIS;
  bool PrintProblem = false;
  bool Quiet = false;
  std::string Path;
  std::string Benchmark;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--algo" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto K = parseAlgorithmName(Name);
      if (!K) {
        logf(LogLevel::Error, "cli", "unknown algorithm '%s'", Name.c_str());
        return 64;
      }
      Algo = *K;
    } else if (Arg == "--timeout" && I + 1 < argc) {
      // Seconds; 0 disables the deadline (Deadline::afterMs(<=0) is
      // unlimited).
      Config.Algo.TimeoutMs = std::atoll(argv[++I]) * 1000;
    } else if (Arg == "--timeout-ms" && I + 1 < argc) {
      Config.Algo.TimeoutMs = std::atoll(argv[++I]);
    } else if (Arg == "--jobs" && I + 1 < argc) {
      long V = std::atol(argv[++I]);
      Config.Jobs = V > 0 ? static_cast<unsigned>(V) : 0;
    } else if (Arg == "--seed" && I + 1 < argc) {
      long long V = std::atoll(argv[++I]);
      Config.Algo.Seed = V > 0 ? static_cast<unsigned>(V) : 0;
    } else if (Arg == "--unreal" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Mode = parseUnrealMode(Name);
      if (!Mode) {
        logf(LogLevel::Error, "cli",
             "--unreal expects witness, chc, or race, got '%s'",
             Name.c_str());
        return 64;
      }
      Config.Algo.Unreal = *Mode;
    } else if (Arg == "--smt-incremental" && I + 1 < argc) {
      std::string Mode = argv[++I];
      if (Mode == "on")
        Config.Algo.SmtIncremental = true;
      else if (Mode == "off")
        Config.Algo.SmtIncremental = false;
      else {
        logf(LogLevel::Error, "cli",
             "--smt-incremental expects on or off, got '%s'", Mode.c_str());
        return 64;
      }
    } else if (Arg == "--cache" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Mode = parseCacheMode(Name);
      if (!Mode) {
        logf(LogLevel::Error, "cli", "unknown cache mode '%s'", Name.c_str());
        return 64;
      }
      Config.Cache.Mode = *Mode;
    } else if (Arg == "--cache-dir" && I + 1 < argc) {
      Config.Cache.Dir = argv[++I];
    } else if (Arg == "--cache-addr" && I + 1 < argc) {
      Config.Cache.Addr = argv[++I];
    } else if (Arg == "--log-level" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Level = parseLogLevel(Name);
      if (!Level) {
        logf(LogLevel::Error, "cli", "unknown log level '%s'", Name.c_str());
        return 64;
      }
      Config.Log.Level = *Level;
    } else if (Arg == "--trace" && I + 1 < argc) {
      Config.TracePath = argv[++I];
    } else if (Arg == "--benchmark" && I + 1 < argc) {
      Benchmark = argv[++I];
    } else if (Arg == "--print-problem") {
      PrintProblem = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      logf(LogLevel::Error, "cli", "unknown option '%s'", Arg.c_str());
      usage();
      return 64;
    } else {
      Path = Arg;
    }
  }
  if (Path.empty() == Benchmark.empty()) {
    // Neither or both: direct mode wants exactly one problem source.
    usage();
    return 64;
  }
  if (Config.Cache.Mode == CacheMode::Disk ||
      Config.Cache.Mode == CacheMode::Remote) {
    std::string Err = validateCacheDir(Config.Cache.Dir);
    if (!Err.empty()) {
      logf(LogLevel::Error, "cli", "--cache-dir: %s", Err.c_str());
      return 64;
    }
  }
  if (Config.Cache.Mode == CacheMode::Remote && Config.Cache.Addr.empty()) {
    logf(LogLevel::Error, "cli",
         "--cache remote needs --cache-addr (or SE2GIS_CACHE_ADDR)");
    return 64;
  }

  std::shared_ptr<const Problem> P;
  std::string DisplayName;
  if (!Benchmark.empty()) {
    const BenchmarkDef *Def = findBenchmark(Benchmark);
    if (!Def) {
      logf(LogLevel::Error, "cli",
           "unknown benchmark '%s' (see `se2gis list`)", Benchmark.c_str());
      return 64;
    }
    DisplayName = Def->Name;
    try {
      P = std::make_shared<const Problem>(loadBenchmark(*Def));
    } catch (const UserError &E) {
      logf(LogLevel::Error, "cli", "%s", E.what());
      return 64;
    }
  } else {
    std::ifstream In(Path);
    if (!In) {
      logf(LogLevel::Error, "cli", "cannot open '%s'", Path.c_str());
      return 64;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    DisplayName = Path;
    try {
      P = std::make_shared<const Problem>(loadProblem(Buf.str()));
    } catch (const UserError &E) {
      logf(LogLevel::Error, "cli", "%s", E.what());
      return 64;
    }
  }

  if (PrintProblem) {
    std::printf("reference:      %s\n", P->Reference.c_str());
    std::printf("target:         %s\n", P->Target.c_str());
    std::printf("representation: %s%s\n", P->Repr.c_str(),
                P->ReprIdentity ? " (identity)" : "");
    std::printf("invariant:      %s\n",
                P->Invariant.empty() ? "(true)" : P->Invariant.c_str());
    std::printf("unknowns:      ");
    for (const UnknownSig &U : P->Unknowns)
      std::printf(" $%s/%zu", U.Name.c_str(), U.ArgTypes.size());
    std::printf("\n");
  }

  SynthesisTask Task(P, Algo);
  Outcome R = Task.run(Config);

  if (!Config.TracePath.empty())
    traceFlush();

  std::string Via;
  if (R.Ev.Source != VerdictSource::None)
    Via = " [via " + R.Ev.str() + "]";
  std::printf("%s: %s%s (%.1f ms, steps %s)\n", DisplayName.c_str(),
              verdictName(R.V), Via.c_str(), R.Stats.ElapsedMs,
              R.Stats.Steps.c_str());
  if (!Quiet) {
    std::printf("telemetry: %s\n", R.Stats.Perf.str().c_str());
    std::printf("phases:");
    for (size_t I = 0; I < static_cast<size_t>(Phase::NumPhases); ++I)
      std::printf(" %s=%.1f ms", phaseName(static_cast<Phase>(I)),
                  R.Stats.Phases.getMs(static_cast<Phase>(I)));
    std::printf("\n");
  }
  if (!Quiet) {
    if (R.V == Verdict::Realizable) {
      std::printf("%s", solutionToString(*P, R.Solution).c_str());
      if (R.Stats.SolutionProvedInductive)
        std::printf("(solution proved correct by induction)\n");
      else
        std::printf("(solution passed the bounded check)\n");
    } else if (!R.Detail.empty()) {
      std::printf("%s\n", R.Detail.c_str());
    }
    if (R.V == Verdict::Timeout && !R.Stats.LastCandidate.empty())
      std::printf("partial progress (%d refinements, %d coarsenings); "
                  "last candidate:\n%s",
                  R.Stats.Refinements, R.Stats.Coarsenings,
                  R.Stats.LastCandidate.c_str());
  }
  switch (R.V) {
  case Verdict::Realizable:
    return 0;
  case Verdict::Unrealizable:
    return 1;
  case Verdict::Timeout:
    return 2;
  case Verdict::Failed:
    return 3;
  }
  return 3;
}

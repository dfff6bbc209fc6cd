//===- harness.cpp - Fork-isolated serial benchmark harness --------------===//
///
/// \file
/// Runs one benchmark workload (README.md) through the solver's public API:
/// the parent loads or generates every input, then forks one child per
/// problem, strictly one at a time. The child runs SynthesisTask::run under
/// a SolverConfig filled in code (every SE2GIS_* variable is removed from
/// the environment first), times a host-speed probe, re-verifies a
/// Realizable solution outside the timed region, and writes one JSON record
/// back over a pipe. The parent adds the child's exit status and peak RSS
/// (from wait4) and appends the record to the records file. records.py
/// turns the records into metrics, scaling each time by its child's probe.
///
/// Forking after set-up makes every verdict and count a function of the
/// problem and its budget only: no Z3 state, variable ids or caches leak
/// from one solve into the next.
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "core/Verify.h"
#include "gen/Generator.h"
#include "service/Json.h"
#include "suite/Benchmarks.h"
#include "support/PerfCounters.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <poll.h>
#include <random>
#include <sched.h>
#include <signal.h>
#include <string>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace se2gis;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Microseconds on the steady clock, which parent and forked children share,
/// so child span timestamps line up with the parent's.
double nowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Source : unsigned char { Registry, Unrealizable, Generated };

/// One workload: which inputs, which algorithm and cache mode, and the
/// per-problem budget. The budget is part of the definition so that no run
/// can change it.
struct Workload {
  const char *Name;
  Source Src;
  AlgorithmKind Algo;
  CacheMode Cache;
  /// Solve each problem once to fill the caches, then time WarmSolves more
  /// solves.
  bool Warm;
  std::int64_t BudgetMs;
  /// Registry sources: take every Stride-th problem in registry order,
  /// starting with the first.
  unsigned Stride;
  /// Generated cases per pass (Source::Generated only).
  unsigned GenCases;
  /// Generator seed of the cases; 0 means the run's --seed.
  std::uint64_t GenSeed;
};

// registry-half, warm-sample and gen-fixed are sized so that a pass takes
// seconds, not minutes: the benchmark's runs of every listed workload must
// fit in an hour, and one pass of registry-cold takes over a minute. They
// use inputs that do not change with --seed, which then only reorders them.
const Workload Workloads[] = {
    {"registry-cold", Source::Registry, AlgorithmKind::SE2GIS, CacheMode::Off,
     false, 10000, 1, 0, 0},
    {"registry-half", Source::Registry, AlgorithmKind::SE2GIS, CacheMode::Off,
     false, 10000, 2, 0, 0},
    {"registry-warm", Source::Registry, AlgorithmKind::SE2GIS, CacheMode::Mem,
     true, 10000, 1, 0, 0},
    {"warm-sample", Source::Registry, AlgorithmKind::SE2GIS, CacheMode::Mem,
     true, 10000, 8, 0, 0},
    {"gen-fixed", Source::Generated, AlgorithmKind::SE2GIS, CacheMode::Off,
     false, 10000, 1, 60, 1},
    {"gen-small", Source::Generated, AlgorithmKind::SE2GIS, CacheMode::Off,
     false, 10000, 1, 300, 0},
    {"unreal-chc", Source::Unrealizable, AlgorithmKind::CHC, CacheMode::Off,
     false, 10000, 1, 0, 0},
};

/// A warm child times this many solves after the fill and reports their
/// median as the problem's time: one warm solve takes 15-60 ms, short
/// enough for the host's jitter to dominate a single reading.
constexpr unsigned WarmSolves = 5;

/// Set-up is timed in this many samples per run; records.py reports their
/// median.
constexpr unsigned SetupSamples = 15;

/// One sample is the mean set-up time of this many fresh children. A child
/// sets up at one of two speeds about 1.5x apart on a shared host,
/// depending on where it runs, so the median of single-child samples jumps
/// between the two as their mix shifts; the mean over a few children moves
/// smoothly with it.
constexpr unsigned SetupChildren = 5;

/// A child repeats loading the whole input set until this much time has
/// passed and reports the time per load (one registry load takes ~10 ms).
constexpr double SetupChildMinMs = 15;

/// The host probe before and after the whole run: this many xorshift
/// steps (~0.25 s).
constexpr unsigned RunProbeIterations = 100000000;

/// The speed probe each child runs right after its timed work (README.md,
/// "Host-speed scaling"): this many xorshift steps (~5.5 ms) followed by
/// this many dependent loads from an 8 MB table (~7.5 ms). records.py
/// scales each child's times by its probe.
constexpr unsigned SpeedProbeSteps = 2000000;
constexpr unsigned SpeedProbeLoads = 40000;
constexpr std::size_t SpeedTableCells = std::size_t(1) << 19; // 16 B each

/// Budget for re-verifying a Realizable solution (outside the timed solve).
constexpr std::int64_t VerifyBudgetMs = 60000;

struct Input {
  std::string Name;
  std::shared_ptr<const Problem> Prob;
  /// 1 = expected realizable, 0 = expected unrealizable, -1 = unknown.
  int Expect = -1;
  double GenStartUs = 0, GenMs = 0;
  double LoadStartUs = 0, LoadMs = 0;
};

struct Span {
  std::string Name;
  double StartUs = 0;
  double DurUs = 0;
  int Id = -1;
  std::string Args; ///< JSON object text, "" for none
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "se2gis_perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

std::string quoted(const std::string &S) { return "\"" + jsonEscape(S) + "\""; }

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.6g", V);
  return Buf;
}

/// Steady-clock microseconds are ~1e11 and need more digits than num().
std::string us(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.1f", V);
  return Buf;
}

/// A fixed CPU loop of \p Iterations xorshift steps; its time in ms tells
/// how fast the host runs right now.
double hostProbeMs(unsigned Iterations) {
  auto T0 = Clock::now();
  volatile std::uint64_t Sink = 0;
  std::uint64_t X = 88172645463325252ULL;
  for (unsigned I = 0; I < Iterations; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  Sink = X;
  (void)Sink;
  return msSince(T0);
}

/// The table the speed probe walks: SpeedTableCells cells of two words,
/// linked into one cycle that jumps across the whole table. The parent
/// builds it in a shared mapping before forking, so children neither copy
/// it nor count its pages in their RSS until the probe touches them.
const std::uint64_t *speedTable() {
  static std::uint64_t *Cells = [] {
    void *M = mmap(nullptr, SpeedTableCells * 16, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (M == MAP_FAILED)
      die("mmap: " + std::string(std::strerror(errno)));
    auto *C = static_cast<std::uint64_t *>(M);
    // i -> i * A mod 2^k is a bijection for odd A, so the links
    // (I * A) -> ((I + 1) * A) form a single cycle.
    const std::uint64_t A = 0x9E3779B97F4A7C15ULL, Mask = SpeedTableCells - 1;
    for (std::uint64_t I = 0; I < SpeedTableCells; ++I) {
      C[2 * ((I * A) & Mask)] = ((I + 1) * A) & Mask;
      C[2 * ((I * A) & Mask) + 1] = I;
    }
    return C;
  }();
  return Cells;
}

/// The speed probe: arithmetic, then pointer chasing through speedTable().
/// Its pages are mapped first, outside the timed part.
double speedProbeMs() {
  const std::uint64_t *C = speedTable();
  volatile std::uint64_t Sink = 0;
  for (std::size_t I = 0; I < SpeedTableCells * 2; I += 512)
    Sink = Sink + C[I];
  auto T0 = Clock::now();
  hostProbeMs(SpeedProbeSteps);
  std::uint64_t J = 0, Acc = 0;
  for (unsigned I = 0; I < SpeedProbeLoads; ++I) {
    Acc += C[2 * J + 1];
    J = C[2 * J];
  }
  Sink = Acc;
  return msSince(T0);
}

/// This process's peak RSS so far, in KiB.
long peakRssKb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss;
}

unsigned threadCount() {
  unsigned N = 0;
  if (DIR *D = opendir("/proc/self/task")) {
    while (dirent *E = readdir(D))
      if (E->d_name[0] != '.')
        ++N;
    closedir(D);
  }
  return N;
}

std::vector<Input> loadRegistry(bool UnrealizableOnly, unsigned Stride) {
  std::vector<Input> Out;
  const std::vector<BenchmarkDef> &All = allBenchmarks();
  for (size_t I = 0; I < All.size(); I += Stride) {
    const BenchmarkDef &D = All[I];
    if (UnrealizableOnly && D.ExpectRealizable)
      continue;
    Input In;
    In.Name = D.Name;
    In.Expect = D.ExpectRealizable ? 1 : 0;
    In.LoadStartUs = nowUs();
    auto T0 = Clock::now();
    In.Prob = std::make_shared<const Problem>(loadBenchmark(D));
    In.LoadMs = msSince(T0);
    Out.push_back(std::move(In));
  }
  return Out;
}

std::vector<Input> generateInputs(std::uint64_t Seed, unsigned N) {
  std::vector<Input> Out;
  for (unsigned I = 0; I < N; ++I) {
    Input In;
    In.Name = "gen/" + std::to_string(Seed) + "/" + std::to_string(I);
    In.GenStartUs = nowUs();
    auto T0 = Clock::now();
    std::optional<GenCase> C = generateCase(Seed, I);
    In.GenMs = msSince(T0);
    if (!C)
      continue;
    In.LoadStartUs = nowUs();
    auto T1 = Clock::now();
    In.Prob = std::make_shared<const Problem>(loadCase(*C));
    In.LoadMs = msSince(T1);
    Out.push_back(std::move(In));
  }
  return Out;
}

std::vector<Input> loadInputs(const Workload &W, std::uint64_t Seed) {
  if (W.Src == Source::Generated)
    return generateInputs(W.GenSeed ? W.GenSeed : Seed, W.GenCases);
  return loadRegistry(W.Src == Source::Unrealizable, W.Stride);
}

SolverConfig makeConfig(const Workload &W) {
  SolverConfig C;
  C.Algo.TimeoutMs = W.BudgetMs;
  C.Jobs = 1;
  C.Verbose = false;
  C.Cache.Mode = W.Cache;
  C.Log.Level = LogLevel::Error;
  return C;
}

void writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      _exit(3);
    Off += static_cast<size_t>(N);
  }
}

std::string histJson(const HistogramSnapshot &H) {
  std::string S = "{\"count\":" + std::to_string(H.Count) +
                  ",\"sum_ns\":" + std::to_string(H.SumNs) +
                  ",\"max_ns\":" + std::to_string(H.MaxNs) + ",\"buckets\":{";
  bool First = true;
  for (unsigned B = 0; B < HistogramSnapshot::NumBuckets; ++B) {
    if (!H.Buckets[B])
      continue;
    S += (First ? "\"" : ",\"") + std::to_string(B) +
         "\":" + std::to_string(H.Buckets[B]);
    First = false;
  }
  return S + "}}";
}

/// The child's half: solve (on a warm workload, fill the caches and then
/// solve WarmSolves times), re-verify, report. Writes one JSON object to
/// \p Fd and never returns.
[[noreturn]] void runChild(const Workload &W, const Input &In, int Fd) {
  double StartUs = nowUs();
  SolverConfig Config = makeConfig(W);
  SynthesisTask Task(In.Prob, W.Algo);

  double FillMs = 0, FillStartUs = 0;
  std::string FillVerdict;
  if (W.Warm) {
    FillStartUs = nowUs();
    auto T0 = Clock::now();
    Outcome Fill = Task.run(Config);
    FillMs = msSince(T0);
    FillVerdict = verdictName(Fill.V);
  }

  PerfSnapshot PerfBefore = snapshotPerf();
  PhaseSnapshot PhaseBefore = phaseSnapshot();
  double SolveStartUs = nowUs();
  auto T0 = Clock::now();
  Outcome R = Task.run(Config);
  double SolveMs = msSince(T0);
  PerfSnapshot P = snapshotPerf().since(PerfBefore);
  PhaseSnapshot Ph = phaseSnapshot().since(PhaseBefore);

  // The counters above cover the first warm solve; the repeats do the same
  // work again and are only timed. A solve that hit the budget is not
  // repeated: its time is the budget.
  std::string RepeatMs, RepeatVerdicts;
  for (unsigned K = 1; W.Warm && R.V != Verdict::Timeout && K < WarmSolves;
       ++K) {
    auto T1 = Clock::now();
    Outcome Again = Task.run(Config);
    RepeatMs += (K > 1 ? "," : "") + num(msSince(T1));
    RepeatVerdicts += (K > 1 ? "," : "") + quoted(verdictName(Again.V));
  }
  // Peak RSS of the solves, read before the probe maps its table.
  long SolveRssKb = peakRssKb();
  double ProbeMs = speedProbeMs();

  std::string VerifyStatusName = "none";
  double VerifyMs = 0, VerifyStartUs = 0;
  if (R.V == Verdict::Realizable) {
    VerifyOptions VOpts;
    VOpts.Bounded = Config.Algo.Bounded;
    VOpts.Induction = Config.Algo.Induction;
    Deadline Budget = Deadline::afterMs(VerifyBudgetMs);
    VerifyStartUs = nowUs();
    auto T1 = Clock::now();
    VerifyResult VR = verifySolution(*In.Prob, R.Solution, VOpts, Budget);
    VerifyMs = msSince(T1);
    if (Budget.expired())
      VerifyStatusName = "budget";
    else if (VR.Status == VerifyStatus::Counterexample)
      VerifyStatusName = "counterexample";
    else if (VR.Status == VerifyStatus::ProvedInductive)
      VerifyStatusName = "inductive";
    else
      VerifyStatusName = "bounded";
  }

  std::string S = "{";
  S += "\"verdict\":" + quoted(verdictName(R.V));
  S += ",\"detail\":" + quoted(R.Detail);
  S += ",\"evidence\":" + quoted(verdictSourceName(R.Ev.Source));
  S += ",\"steps\":" + quoted(R.Stats.Steps);
  S += ",\"solve_ms\":" + num(SolveMs);
  S += ",\"fill_ms\":" + num(FillMs);
  S += ",\"probe_ms\":" + num(ProbeMs);
  S += ",\"solve_rss_kb\":" + std::to_string(SolveRssKb);
  S += ",\"fill_verdict\":" + quoted(FillVerdict);
  S += ",\"repeat_ms\":[" + RepeatMs + "]";
  S += ",\"repeat_verdicts\":[" + RepeatVerdicts + "]";
  S += ",\"verify\":" + quoted(VerifyStatusName);
  S += ",\"verify_ms\":" + num(VerifyMs);
  S += ",\"refinements\":" + std::to_string(R.Stats.Refinements);
  S += ",\"coarsenings\":" + std::to_string(R.Stats.Coarsenings);
  S += ",\"phase_ms\":{";
  for (unsigned I = 0; I < static_cast<unsigned>(Phase::NumPhases); ++I)
    S += std::string(I ? "," : "") + quoted(phaseName(Phase(I))) + ":" +
         num(Ph.getMs(Phase(I)));
  S += "},\"counters\":{";
  for (unsigned I = 0; I < static_cast<unsigned>(PerfCounter::NumPerfCounters);
       ++I)
    S += std::string(I ? "," : "") + quoted(perfCounterName(PerfCounter(I))) +
         ":" + std::to_string(P.get(PerfCounter(I)));
  S += "},\"z3_ms\":" + num(P.getMs(PerfTimer::Z3SolveNs));
  S += ",\"hists\":{";
  for (unsigned I = 0;
       I < static_cast<unsigned>(PerfHistogram::NumPerfHistograms); ++I)
    S += std::string(I ? "," : "") +
         quoted(perfHistogramName(PerfHistogram(I))) + ":" +
         histJson(P.hist(PerfHistogram(I)));
  S += "},\"t_us\":{\"start\":" + us(StartUs) +
       ",\"fill\":" + us(FillStartUs) + ",\"solve\":" + us(SolveStartUs) +
       ",\"verify\":" + us(VerifyStartUs) + ",\"end\":" + us(nowUs()) + "}";
  S += "}";
  writeAll(Fd, S);
  // Skip static destructors (Z3 teardown): the child's work is done.
  _exit(0);
}

struct ChildResult {
  std::string Payload;
  int Status = 0;
  bool Killed = false;
  long PeakRssKb = 0;
};

/// Forks a child that runs \p Body (which writes its report to the given
/// fd and must not return) and collects the report. A child that overruns
/// \p HardLimitMs is killed (a failed operation).
template <typename Fn> ChildResult forkChild(Fn Body, double HardLimitMs) {
  int Fds[2];
  if (pipe(Fds) != 0)
    die("pipe: " + std::string(std::strerror(errno)));
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    die("fork: " + std::string(std::strerror(errno)));
  if (Pid == 0) {
    close(Fds[0]);
    Body(Fds[1]);
  }
  close(Fds[1]);
  ChildResult R;
  auto T0 = Clock::now();
  char Buf[1 << 16];
  for (;;) {
    int Left = static_cast<int>(HardLimitMs - msSince(T0));
    if (Left <= 0) {
      kill(Pid, SIGKILL);
      R.Killed = true;
      break;
    }
    pollfd P{Fds[0], POLLIN, 0};
    int N = poll(&P, 1, Left);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      continue;
    ssize_t Got = ::read(Fds[0], Buf, sizeof Buf);
    if (Got < 0 && errno == EINTR)
      continue;
    if (Got <= 0)
      break;
    R.Payload.append(Buf, static_cast<size_t>(Got));
  }
  close(Fds[0]);
  rusage Usage{};
  while (wait4(Pid, &R.Status, 0, &Usage) < 0 && errno == EINTR)
    ;
  R.PeakRssKb = Usage.ru_maxrss;
  return R;
}

/// Pins this process, and so every child it forks, to the CPU it runs on
/// now. A child left free lands on any of the host's CPUs, which can run
/// at different speeds; pinned, the speed probe measures the CPU that ran
/// the solves. Returns the CPU, or -1 if pinning failed.
int pinToCurrentCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return -1;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof Set, &Set) == 0 ? Cpu : -1;
}

/// Removes every SE2GIS_* variable, so that no setting the solver reads from
/// the environment outside SolverConfig (such as SE2GIS_CHECK_SIGNATURES in
/// the enumerator) can change a run.
void unsetSolverEnv() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SE2GIS_", 7) == 0)
      Names.emplace_back(*E, std::strcspn(*E, "="));
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  std::string RecordsPath;
  std::string TracePath;
};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Next().c_str());
    else if (A == "--records")
      O.RecordsPath = Next();
    else if (A == "--trace-out")
      O.TracePath = Next();
    else
      die("unknown argument " + A);
  }
  if (O.Workload.empty() || O.RecordsPath.empty())
    die("usage: se2gis_perfbench --workload NAME --seed N --seconds S "
        "--records PATH [--trace-out PATH]");
  return O;
}

void writeTrace(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream OS(Path);
  OS << "{\"traceEvents\":[";
  bool First = true;
  for (const Span &S : Spans) {
    OS << (First ? "" : ",\n") << "{\"name\":" << quoted(S.Name)
       << ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << us(S.StartUs) << ",\"dur\":" << us(S.DurUs) << ",\"args\":{";
    OS << "\"id\":" << S.Id;
    if (!S.Args.empty())
      OS << ",\"detail\":" << S.Args;
    OS << "}}";
    First = false;
  }
  OS << "]}\n";
  if (!OS)
    die("cannot write trace " + Path);
}

} // namespace

int main(int Argc, char **Argv) {
  unsetSolverEnv();
  Options Opt = parseArgs(Argc, Argv);
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (Opt.Workload == Cand.Name)
      W = &Cand;
  if (!W)
    die("unknown workload " + Opt.Workload);
  bool Tracing = !Opt.TracePath.empty();
  std::vector<Span> Spans;

  std::ofstream Records(Opt.RecordsPath);
  if (!Records)
    die("cannot open " + Opt.RecordsPath);

  int Cpu = pinToCurrentCpu();
  double ProbeBefore = hostProbeMs(RunProbeIterations) / 1000;
  speedTable();

  // Set-up: time loading or generating every input in forked children, then
  // load the set that is solved in the parent.
  // One entry per set-up child, SetupChildren per sample.
  std::vector<double> SetupMs, SetupProbeMs;
  for (unsigned Sample = 0; Sample < SetupSamples; ++Sample) {
    for (unsigned Child = 0; Child < SetupChildren; ++Child) {
      ChildResult C = forkChild(
          [&](int Fd) {
            unsigned Loads = 0;
            auto T0 = Clock::now();
            do {
              loadInputs(*W, Opt.Seed);
              ++Loads;
            } while (msSince(T0) < SetupChildMinMs);
            double PerLoadMs = msSince(T0) / Loads;
            writeAll(Fd, num(PerLoadMs) + " " + num(speedProbeMs()));
            _exit(0);
          },
          120000);
      double PerLoadMs = 0, ProbeMs = 0;
      if (!WIFEXITED(C.Status) || WEXITSTATUS(C.Status) ||
          std::sscanf(C.Payload.c_str(), "%lf %lf", &PerLoadMs, &ProbeMs) != 2)
        die("set-up child failed");
      SetupMs.push_back(PerLoadMs);
      SetupProbeMs.push_back(ProbeMs);
    }
  }
  PerfSnapshot GenBefore = snapshotPerf();
  std::vector<Input> Inputs = loadInputs(*W, Opt.Seed);
  PerfSnapshot GenDelta = snapshotPerf().since(GenBefore);
  if (Inputs.empty())
    die("workload has no inputs");
  if (Tracing)
    for (size_t I = 0; I < Inputs.size(); ++I) {
      const Input &In = Inputs[I];
      std::string Args = "{\"problem\":" + quoted(In.Name) + "}";
      if (In.GenStartUs > 0)
        Spans.push_back({"bench.generate", In.GenStartUs, In.GenMs * 1000,
                         static_cast<int>(I), Args});
      Spans.push_back({"bench.load", In.LoadStartUs, In.LoadMs * 1000,
                       static_cast<int>(I), Args});
    }

  // Isolation self-check: the parent must not own Z3 state or threads
  // that a forked child would inherit.
  PerfSnapshot Now = snapshotPerf();
  unsigned Threads = threadCount();
  if (Now.get(PerfCounter::SmtQueries) || Now.get(PerfCounter::SmtSessionFresh) ||
      Now.get(PerfCounter::ChcQueries))
    die("isolation: the parent ran SMT or CHC queries before forking");
  if (Threads != 1)
    die("isolation: the parent runs " + std::to_string(Threads) +
        " threads before forking");

  // Hard per-child limit: the fill and every timed solve at their budgets,
  // plus verification.
  double HardLimitMs =
      (W->Warm ? 1 + WarmSolves : 1) * (W->BudgetMs + 5000) + VerifyBudgetMs +
      10000;

  std::vector<double> PassWallS;
  double SpanBookkeepingMs = 0;
  auto RunStart = Clock::now();
  for (unsigned Pass = 0;; ++Pass) {
    // The seed only reorders the problems (and, on gen-small, chose them);
    // verdicts and counts must not depend on the order.
    std::vector<size_t> Order(Inputs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::mt19937_64 Rng(Opt.Seed * 1000003u + Pass);
    std::shuffle(Order.begin(), Order.end(), Rng);

    auto PassStart = Clock::now();
    for (size_t Idx : Order) {
      const Input &In = Inputs[Idx];
      double ForkUs = nowUs();
      auto T0 = Clock::now();
      ChildResult C = forkChild([&](int Fd) { runChild(*W, In, Fd); },
                                HardLimitMs);
      double ParentMs = msSince(T0);

      // A child that died mid-write leaves a truncated report; it is
      // recorded as no report (a failed operation), keeping the file valid.
      JsonValue V;
      std::string Err;
      bool Reported = !C.Payload.empty() && JsonValue::parse(C.Payload, V, Err);
      std::string Rec = "{\"name\":" + quoted(In.Name) +
                        ",\"pass\":" + std::to_string(Pass) +
                        ",\"expect\":" + std::to_string(In.Expect) +
                        ",\"budget_ms\":" + std::to_string(W->BudgetMs) +
                        ",\"parent_ms\":" + num(ParentMs) +
                        ",\"peak_rss_kb\":" + std::to_string(C.PeakRssKb) +
                        ",\"killed\":" + (C.Killed ? "true" : "false");
      if (WIFEXITED(C.Status))
        Rec += ",\"exit_code\":" + std::to_string(WEXITSTATUS(C.Status));
      else if (WIFSIGNALED(C.Status))
        Rec += ",\"signal\":" + std::to_string(WTERMSIG(C.Status));
      Rec += ",\"child\":" + (Reported ? C.Payload : std::string("null")) + "}";
      Records << Rec << "\n";

      if (Tracing) {
        auto TB = Clock::now();
        int Id = static_cast<int>(Idx);
        std::string Args = "{\"problem\":" + quoted(In.Name) + "}";
        Spans.push_back({"bench.isolate", ForkUs, ParentMs * 1000, Id, Args});
        if (Reported) {
          const JsonValue *T = V.get("t_us");
          auto At = [&](const char *K) { return T ? T->getNumber(K) : 0.0; };
          if (At("fill") > 0)
            Spans.push_back(
                {"bench.fill", At("fill"), At("solve") - At("fill"), Id, Args});
          double SolveEnd = At("verify") > 0 ? At("verify") : At("end");
          // The solve span carries the child's whole report: its verdict and
          // its phase and counter deltas.
          Spans.push_back({"bench.solve", At("solve"), SolveEnd - At("solve"),
                           Id, C.Payload});
          if (At("verify") > 0)
            Spans.push_back({"bench.verify", At("verify"),
                             At("end") - At("verify"), Id, Args});
        }
        SpanBookkeepingMs += msSince(TB);
      }
    }
    double PassMs = msSince(PassStart);
    PassWallS.push_back(PassMs / 1000.0);
    // Stop before a pass that would overrun --seconds: the benchmark's runs
    // must fit a fixed time budget.
    if (msSince(RunStart) + PassMs > Opt.Seconds * 1000)
      break;
  }

  double ProbeAfter = hostProbeMs(RunProbeIterations) / 1000;

  std::string Run = "{\"run\":true,\"workload\":" + quoted(W->Name) +
                    ",\"seed\":" + std::to_string(Opt.Seed) +
                    ",\"algorithm\":" + quoted(algorithmName(W->Algo)) +
                    ",\"cache\":" + quoted(cacheModeName(W->Cache)) +
                    ",\"warm\":" + (W->Warm ? "true" : "false") +
                    ",\"budget_ms\":" + std::to_string(W->BudgetMs) +
                    ",\"inputs\":" + std::to_string(Inputs.size()) +
                    ",\"setup_children\":" + std::to_string(SetupChildren) +
                    ",\"setup_ms\":[";
  for (size_t I = 0; I < SetupMs.size(); ++I)
    Run += (I ? "," : "") + num(SetupMs[I]);
  Run += "],\"setup_probe_ms\":[";
  for (size_t I = 0; I < SetupProbeMs.size(); ++I)
    Run += (I ? "," : "") + num(SetupProbeMs[I]);
  Run += "],\"load_ms\":[";
  for (size_t I = 0; I < Inputs.size(); ++I)
    Run += (I ? "," : "") + num(Inputs[I].LoadMs);
  Run += "],\"gen_ms\":[";
  for (size_t I = 0; I < Inputs.size(); ++I)
    Run += (I ? "," : "") + num(Inputs[I].GenMs);
  Run += "],\"gen_cases\":" +
         std::to_string(GenDelta.get(PerfCounter::GenCases)) +
         ",\"gen_rejected\":" +
         std::to_string(GenDelta.get(PerfCounter::GenRejected)) +
         ",\"pass_wall_s\":[";
  for (size_t I = 0; I < PassWallS.size(); ++I)
    Run += (I ? "," : "") + num(PassWallS[I]);
  Run += "],\"host_probe_s\":[" + num(ProbeBefore) + "," + num(ProbeAfter) +
         "],\"cpu\":" + std::to_string(Cpu) +
         ",\"parent_threads\":" + std::to_string(Threads) +
         ",\"span_bookkeeping_ms\":" + num(SpanBookkeepingMs) + "}";
  Records << Run << "\n";
  Records.close();
  if (!Records)
    die("cannot write " + Opt.RecordsPath);

  if (Tracing)
    writeTrace(Opt.TracePath, Spans);
  return 0;
}

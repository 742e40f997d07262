//===- perfbench/harness.cpp - Repo benchmark workloads --------------------===//
//
// Part of the Bamboo reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload (synth62, cli_exec or serve_warm), checks
/// every output against an independent reference outside the timed
/// region, and prints one JSON object with the metrics. run.py builds
/// this harness and turns the object into the benchmark's result line;
/// README.md describes the workloads and metrics.
///
/// Layers are measured from outside: a traced run (--trace 1) replays
/// each job by calling the layers' public functions in the order
/// driver::runPipeline and the CLI call them, with a span around each
/// call. Untraced runs (--trace 0) time whole jobs only.
///
//===----------------------------------------------------------------------===//

#include "analysis/Cstg.h"
#include "analysis/Disjoint.h"
#include "apps/App.h"
#include "driver/Pipeline.h"
#include "frontend/Frontend.h"
#include "optimize/CriticalPath.h"
#include "optimize/Dsa.h"
#include "schedsim/SchedSim.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "synthesis/CoreGroups.h"
#include "vm/Vm.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

extern char **environ;

using namespace bamboo;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

Clock::time_point secondsAfter(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

//===----------------------------------------------------------------------===//
// Options and seed-derived inputs
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Root of the checkout (holds examples/dsl).
  std::string Root = ".";
  /// The `bamboo` binary under test.
  std::string Bamboo;
  /// Scratch directory for the trace file and server port file.
  std::string OutDir = ".";
  /// Threads the Jobs=nproc determinism replay uses.
  int Nproc = 1;
};

/// splitmix64. Inputs come from this generator, not the library's Rng, so
/// a change to the program under test can never move the inputs.
struct SeedStream {
  uint64_t State;
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  /// \p K values, the i-th uniform over the i-th of K equal slices of
  /// [Lo, Hi]. Stratifying keeps the total work of a workload nearly the
  /// same from seed to seed while every value still depends on the seed.
  std::vector<int> stratified(int Lo, int Hi, int K) {
    std::vector<int> Out;
    double Width = static_cast<double>(Hi - Lo + 1) / K;
    for (int I = 0; I < K; ++I) {
      int SliceLo = Lo + static_cast<int>(std::floor(I * Width));
      int SliceHi = Lo + static_cast<int>(std::floor((I + 1) * Width)) - 1;
      SliceHi = std::max(SliceLo, SliceHi);
      Out.push_back(SliceLo + static_cast<int>(below(SliceHi - SliceLo + 1)));
    }
    return Out;
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log, written once at the end as Chrome-trace JSON.
class SpanLog {
public:
  struct Span {
    std::string Name;
    int64_t BeginNs = 0;
    int64_t EndNs = 0;
    int Parent = -1;
    int64_t Job = -1;
    int Track = 0;
  };

  int begin(const std::string &Name, int Parent, int64_t Job, int Track = 0) {
    Spans.push_back({Name, nowNs(), 0, Parent, Job, Track});
    return static_cast<int>(Spans.size()) - 1;
  }
  void end(int Id) { Spans[Id].EndNs = nowNs(); }
  /// Records a span whose bounds were measured elsewhere.
  int add(const std::string &Name, Clock::time_point Begin,
          Clock::time_point End, int Parent, int64_t Job, int Track) {
    Spans.push_back({Name, toNs(Begin), toNs(End), Parent, Job, Track});
    return static_cast<int>(Spans.size()) - 1;
  }

  const std::vector<Span> &spans() const { return Spans; }
  static double ms(const Span &S) { return (S.EndNs - S.BeginNs) / 1e6; }

  /// Duration minus the part covered by direct children (children of one
  /// span never overlap: every replay is sequential).
  std::vector<double> selfMs() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = ms(Spans[I]);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= ms(S);
    return Self;
  }
  /// Summed self time per span name.
  std::map<std::string, double> selfMsByName() const {
    std::vector<double> Self = selfMs();
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Self[I];
    return Out;
  }
  /// Summed duration of the direct children of \p Id.
  double childMs(int Id) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Parent == Id)
        Sum += ms(S);
    return Sum;
  }

  std::string chromeJson() const {
    std::string Out = "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"name\":%s,\"cat\":\"layer\",\"ph\":\"X\","
                    "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%lld}}",
                    I ? ",\n" : "", serve::Json::quote(S.Name).c_str(),
                    S.Track, (S.BeginNs - Origin) / 1e3,
                    (S.EndNs - S.BeginNs) / 1e3, I, S.Parent,
                    static_cast<long long>(S.Job));
      Out += Buf;
    }
    Out += "],\"displayTimeUnit\":\"ms\"}\n";
    return Out;
  }

private:
  static int64_t toNs(Clock::time_point T) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               T.time_since_epoch())
        .count();
  }
  static int64_t nowNs() { return toNs(Clock::now()); }

  std::vector<Span> Spans;
  int64_t Origin = nowNs();
};

/// A span around one call; a no-op when \p Log is null (untraced runs).
class Scope {
public:
  Scope(SpanLog *Log, const char *Name, int Parent, int64_t Job)
      : Log(Log), Id(Log ? Log->begin(Name, Parent, Job) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void close() {
    if (Log && !Closed)
      Log->end(Id);
    Closed = true;
  }
  int id() const { return Id; }

private:
  SpanLog *Log;
  int Id;
  bool Closed = false;
};

//===----------------------------------------------------------------------===//
// The pipeline replay
//===----------------------------------------------------------------------===//

/// What one pipeline job computes that must repeat exactly.
struct PipelineNumbers {
  uint64_t Real1 = 0;
  uint64_t Est1 = 0;
  uint64_t EstN = 0;
  uint64_t RealN = 0;
  uint64_t Evals = 0;
  bool Completed = false;
  /// Only the replay sees these.
  uint64_t Iters = 0;
  uint64_t Events = 0;
  uint64_t Invocations = 0;

  /// The fields driver::runPipeline exposes.
  bool samePipeline(const PipelineNumbers &O) const {
    return Real1 == O.Real1 && Est1 == O.Est1 && EstN == O.EstN &&
           RealN == O.RealN && Evals == O.Evals && Completed == O.Completed;
  }
  bool sameReplay(const PipelineNumbers &O) const {
    return samePipeline(O) && Iters == O.Iters && Events == O.Events &&
           Invocations == O.Invocations;
  }
};

PipelineNumbers numbersOf(const driver::PipelineResult &R) {
  PipelineNumbers N;
  N.Real1 = R.Real1Core;
  N.Est1 = R.Estimated1Core;
  N.EstN = R.EstimatedNCore;
  N.RealN = R.RealNCore;
  N.Evals = R.DsaEvaluations;
  N.Completed = R.RealRunCompleted;
  return N;
}

driver::PipelineOptions pipelineOptions(int Cores, uint64_t Seed, int Jobs,
                                        std::vector<std::string> Args) {
  driver::PipelineOptions PO;
  PO.Target = machine::MachineConfig::tilePro64();
  PO.Target.NumCores = Cores;
  PO.Dsa.Seed = Seed;
  PO.Dsa.Jobs = Jobs;
  PO.Exec.Args = std::move(Args);
  PO.Exec.Seed = Seed;
  return PO;
}

/// What a synthesis leaves behind for later final runs.
struct Synthesized {
  analysis::Cstg Graph;
  machine::Layout Best;
};

/// driver::runPipeline stage by stage, with a span (child of \p Parent)
/// around each public call. When \p Log is set, one scheduling simulation
/// and one critical-path analysis of the chosen layout follow as their
/// own top-level spans: the cost of a single DSA evaluation.
PipelineNumbers replayPipeline(const runtime::BoundProgram &BP,
                               interp::DslProgram *IP,
                               const driver::PipelineOptions &PO,
                               SpanLog *Log, int Parent, int64_t Job,
                               Synthesized *Out = nullptr) {
  const ir::Program &Prog = BP.program();
  PipelineNumbers N;
  analysis::Cstg Graph;
  {
    Scope S(Log, "analysis.cstg", Parent, Job);
    Graph = analysis::buildCstg(Prog);
  }
  machine::MachineConfig One = machine::MachineConfig::singleCore();
  machine::Layout OneLayout = machine::Layout::allOnOneCore(Prog);
  std::optional<profile::Profile> Collected;
  {
    // profileOneCore's body; runPipeline takes Real1Core from this run.
    Scope S(Log, "profile.run", Parent, Job);
    runtime::TileExecutor Exec(BP, Graph, One, OneLayout);
    runtime::ExecOptions ProfOpts = PO.Exec;
    ProfOpts.CollectProfile = true;
    runtime::ExecResult R = Exec.run(ProfOpts);
    N.Real1 = R.TotalCycles;
    Collected = std::move(R.CollectedProfile);
  }
  const profile::Profile &Prof = *Collected;
  {
    Scope S(Log, "schedsim.estimate_1core", Parent, Job);
    N.Est1 = schedsim::simulateLayout(Prog, Graph, Prof, BP.hints(), One,
                                      OneLayout)
                 .EstimatedCycles;
  }
  synthesis::GroupPlan Plan;
  {
    Scope S(Log, "synthesis.plan", Parent, Job);
    Plan = synthesis::buildGroupPlan(Prog, Graph, Prof, PO.Target.NumCores);
  }
  optimize::DsaResult Dsa;
  {
    Scope S(Log, "optimize.dsa", Parent, Job);
    Dsa = optimize::runDsa(Prog, Graph, Prof, BP.hints(), PO.Target, Plan,
                           PO.Dsa);
  }
  N.EstN = Dsa.BestEstimate;
  N.Evals = Dsa.Evaluations;
  N.Iters = static_cast<uint64_t>(Dsa.Iterations);
  {
    Scope S(Log, "runtime.final", Parent, Job);
    if (IP)
      IP->clearOutput();
    runtime::TileExecutor Exec(BP, Graph, PO.Target, Dsa.Best);
    runtime::ExecResult R = Exec.run(PO.Exec);
    N.RealN = R.TotalCycles;
    N.Completed = R.Completed;
    N.Events = R.EventsProcessed;
    N.Invocations = R.TaskInvocations;
  }
  if (Log) {
    schedsim::SimResult Sim;
    {
      Scope S(Log, "schedsim.eval", -1, Job);
      schedsim::SimOptions SO;
      SO.RecordTrace = true;
      Sim = schedsim::simulateLayout(Prog, Graph, Prof, BP.hints(),
                                     PO.Target, Dsa.Best, SO);
    }
    Scope S(Log, "optimize.critpath", -1, Job);
    optimize::computeCriticalPath(Sim.Trace);
  }
  if (Out)
    *Out = {std::move(Graph), std::move(Dsa.Best)};
  return N;
}

//===----------------------------------------------------------------------===//
// DSL jobs: the CLI, its in-process replay, and child processes
//===----------------------------------------------------------------------===//

/// One run of a DSL program, as the CLI or a serve request names it. Every
/// DSL job runs at DslCores with the CLI's default seed (1): a drawn run
/// seed would move the timings by far more than the code under test does.
struct DslJob {
  std::string App;
  std::string Arg;
};
constexpr int DslCores = 8;
constexpr uint64_t DslSeed = 1;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string sourcePath(const Options &O, const std::string &App) {
  return O.Root + "/examples/dsl/" + App + ".bb";
}

struct Compiled {
  std::unique_ptr<vm::VmProgram> Program;
  std::string Error;
};

/// The CLI's front half: read, compileString, analyzeDisjointness, and
/// the VmProgram constructor (lowering to bytecode).
Compiled compileDsl(const Options &O, const std::string &App, SpanLog *Log,
                    int Parent, int64_t Job) {
  std::string Path = sourcePath(O, App);
  std::string Source = readFile(Path);
  frontend::DiagnosticEngine Diags;
  std::optional<frontend::CompiledModule> CM;
  {
    Scope S(Log, "frontend.compile", Parent, Job);
    CM = frontend::compileString(Source, Path, Diags);
  }
  if (!CM)
    return {nullptr, Diags.render(Path)};
  {
    Scope S(Log, "analysis.disjoint", Parent, Job);
    analysis::analyzeDisjointness(*CM);
  }
  Scope S(Log, "vm.lower", Parent, Job);
  return {std::make_unique<vm::VmProgram>(std::move(*CM)), ""};
}

struct DslReplay {
  PipelineNumbers N;
  std::string Output;
  std::string Error;
  double WallMs = 0;
  /// Summed duration of the layer spans under the job span.
  double SpanMs = 0;
};

/// The whole CLI job in process: the front half, then the pipeline.
DslReplay replayDsl(const Options &O, const DslJob &J, int Jobs, SpanLog *Log,
                    int64_t JobId) {
  DslReplay R;
  auto T0 = Clock::now();
  Scope JobSpan(Log, "job", -1, JobId);
  Compiled C = compileDsl(O, J.App, Log, JobSpan.id(), JobId);
  if (!C.Program) {
    R.Error = C.Error;
    return R;
  }
  R.N = replayPipeline(C.Program->bound(), C.Program.get(),
                       pipelineOptions(DslCores, DslSeed, Jobs, {J.Arg}), Log,
                       JobSpan.id(), JobId);
  JobSpan.close();
  R.WallMs = secondsBetween(T0, Clock::now()) * 1e3;
  if (Log)
    R.SpanMs = Log->childMs(JobSpan.id());
  R.Output = C.Program->output();
  if (C.Program->hadError())
    R.Error = C.Program->error();
  return R;
}

struct ProcResult {
  int ExitCode = -1;
  std::string Out;
  std::string Err;
  double WallMs = 0;
  long MaxRssKb = 0;
};

/// Runs \p Argv to completion, capturing stdout and stderr.
ProcResult runProcess(const std::vector<std::string> &Argv) {
  ProcResult R;
  int OutPipe[2], ErrPipe[2];
  if (pipe2(OutPipe, O_CLOEXEC))
    return {-1, "", std::strerror(errno), 0, 0};
  if (pipe2(ErrPipe, O_CLOEXEC)) {
    close(OutPipe[0]);
    close(OutPipe[1]);
    return {-1, "", std::strerror(errno), 0, 0};
  }
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_adddup2(&Fa, OutPipe[1], 1);
  posix_spawn_file_actions_adddup2(&Fa, ErrPipe[1], 2);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  auto T0 = Clock::now();
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Args[0], &Fa, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Fa);
  close(OutPipe[1]);
  close(ErrPipe[1]);
  if (Rc != 0) {
    close(OutPipe[0]);
    close(ErrPipe[0]);
    R.Err = std::string("spawn failed: ") + std::strerror(Rc);
    return R;
  }
  pollfd Fds[2] = {{OutPipe[0], POLLIN, 0}, {ErrPipe[0], POLLIN, 0}};
  std::string *Sinks[2] = {&R.Out, &R.Err};
  int Open = 2;
  char Buf[65536];
  while (Open > 0) {
    if (poll(Fds, 2, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < 2; ++I) {
      if (Fds[I].fd < 0 || !(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t N = read(Fds[I].fd, Buf, sizeof(Buf));
      if (N > 0) {
        Sinks[I]->append(Buf, static_cast<size_t>(N));
      } else if (N == 0 || errno != EINTR) {
        close(Fds[I].fd);
        Fds[I].fd = -1;
        --Open;
      }
    }
  }
  for (pollfd &F : Fds)
    if (F.fd >= 0)
      close(F.fd);
  int Status = 0;
  rusage Usage{};
  while (wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  R.WallMs = secondsBetween(T0, Clock::now()) * 1e3;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128;
  R.MaxRssKb = Usage.ru_maxrss;
  return R;
}

/// The CLI's deterministic summary line, minus the host-time field.
struct CliSummary {
  uint64_t Real1 = 0;
  uint64_t RealN = 0;
  uint64_t Evals = 0;
  bool Found = false;
  bool operator==(const CliSummary &O) const {
    return Real1 == O.Real1 && RealN == O.RealN && Evals == O.Evals &&
           Found == O.Found;
  }
};

CliSummary parseCliSummary(const std::string &Err) {
  CliSummary S;
  size_t At = Err.rfind("bamboo: 1-core ");
  if (At == std::string::npos)
    return S;
  unsigned long long A = 0, B = 0, E = 0;
  int Cores = 0;
  if (std::sscanf(Err.c_str() + At,
                  "bamboo: 1-core %llu cycles; %d-core %llu cycles "
                  "(speedup %*fx, %llu DSA evaluations",
                  &A, &Cores, &B, &E) == 4) {
    S.Real1 = A;
    S.RealN = B;
    S.Evals = E;
    S.Found = true;
  }
  return S;
}

std::vector<std::string> cliArgv(const Options &O, const DslJob &J,
                                 bool Interp) {
  std::vector<std::string> Argv = {O.Bamboo, sourcePath(O, J.App),
                                   "--cores=" + std::to_string(DslCores),
                                   "--seed=" + std::to_string(DslSeed),
                                   "--arg=" + J.Arg};
  if (Interp)
    Argv.push_back("--exec-mode=interp");
  return Argv;
}

/// Reference for one DSL job: the tree-walking interpreter's CLI run, plus
/// an in-process replay for the numbers the CLI does not print.
struct DslReference {
  ProcResult Interp;
  CliSummary InterpSummary;
  DslReplay Replay;
};

DslReference referenceFor(const Options &O, const DslJob &J) {
  DslReference Ref;
  Ref.Interp = runProcess(cliArgv(O, J, /*Interp=*/true));
  Ref.InterpSummary = parseCliSummary(Ref.Interp.Err);
  Ref.Replay = replayDsl(O, J, 1, nullptr, -1);
  return Ref;
}

/// Every way the reference can disagree with an observed run of \p J
/// whose stdout is \p Out and whose final run took \p RealN cycles; empty
/// when they agree.
std::string checkAgainstReference(const DslReference &Ref,
                                  const std::string &Out, uint64_t RealN) {
  if (Ref.Interp.ExitCode != 0)
    return "interpreter reference exited " +
           std::to_string(Ref.Interp.ExitCode);
  if (!Ref.Replay.Error.empty())
    return "replay failed: " + Ref.Replay.Error;
  if (Out != Ref.Interp.Out)
    return "output differs from the interpreter's";
  if (Ref.Replay.Output != Ref.Interp.Out)
    return "in-process replay output differs from the interpreter's";
  if (!Ref.InterpSummary.Found)
    return "interpreter printed no summary";
  const PipelineNumbers &N = Ref.Replay.N;
  if (!N.Completed || N.RealN != RealN ||
      N.RealN != Ref.InterpSummary.RealN ||
      N.Real1 != Ref.InterpSummary.Real1 ||
      N.Evals != Ref.InterpSummary.Evals)
    return "cycle or DSA counts differ between run, interpreter and replay";
  return "";
}

//===----------------------------------------------------------------------===//
// Result assembly
//===----------------------------------------------------------------------===//

/// Latencies in ms, and the percentile summary the metrics need.
struct LatencySummary {
  double P50 = 0;
  double Tail = 0;
  double TailPct = 0;
  size_t Count = 0;
  /// Windows the tail is the median over (0: the whole run).
  size_t TailWindows = 0;
};

/// Median, and the highest percentile that still has at least ten samples
/// beyond it (needs 11 samples; fewer report the maximum).
LatencySummary summarize(std::vector<double> Ms) {
  LatencySummary S;
  S.Count = Ms.size();
  if (Ms.empty())
    return S;
  std::sort(Ms.begin(), Ms.end());
  size_t N = Ms.size();
  S.P50 = N % 2 ? Ms[N / 2] : (Ms[N / 2 - 1] + Ms[N / 2]) / 2;
  size_t TailIdx = N > 10 ? N - 11 : N - 1;
  S.Tail = Ms[TailIdx];
  S.TailPct = 100.0 * static_cast<double>(TailIdx + 1) / N;
  return S;
}

double median(std::vector<double> V) { return summarize(std::move(V)).P50; }

/// Like summarize(), but the tail is the median, over consecutive windows
/// of \p Window latencies in completion order, of each window's tail. One
/// host stall then moves one window's tail, not the run's; a run too short
/// for two windows falls back to summarize(). Samples after the last whole
/// window count towards the median only.
LatencySummary summarizeWindowed(const std::vector<double> &Ms,
                                 size_t Window) {
  LatencySummary S = summarize(Ms);
  size_t Windows = Ms.size() / Window;
  if (Windows < 2)
    return S;
  std::vector<double> Tails;
  for (size_t W = 0; W < Windows; ++W) {
    LatencySummary T = summarize(std::vector<double>(
        Ms.begin() + W * Window, Ms.begin() + (W + 1) * Window));
    Tails.push_back(T.Tail);
    S.TailPct = T.TailPct;
  }
  S.Tail = median(Tails);
  S.TailWindows = Windows;
  return S;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Log = 0;
  for (double X : V)
    Log += std::log(X);
  return std::exp(Log / V.size());
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / V.size();
}

/// The outcome of one workload run.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  serve::JsonObject Metrics;
  serve::JsonObject Deterministic;
  serve::JsonObject Info;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back(
        {Name, serve::JsonObject{{"value", Value}, {"unit", Unit}}});
  }
  void problem(const std::string &What) {
    if (Problems.size() < 20)
      Problems.push_back(What);
  }
  void deterministic(const std::string &Name, double Value) {
    Deterministic.push_back({Name, Value});
  }
};

/// Deterministic figures over one pass of a workload's distinct jobs.
struct PassNumbers {
  std::vector<PipelineNumbers> Jobs;

  double vcycles() const {
    double Sum = 0;
    for (const PipelineNumbers &N : Jobs)
      Sum += static_cast<double>(N.RealN);
    return Sum;
  }
  double speedupGeomean() const {
    std::vector<double> S;
    for (const PipelineNumbers &N : Jobs)
      S.push_back(static_cast<double>(N.Real1) / N.RealN);
    return geomean(S);
  }
  double estErrorPct() const {
    std::vector<double> E;
    for (const PipelineNumbers &N : Jobs)
      E.push_back(100.0 *
                  std::fabs(static_cast<double>(N.EstN) -
                            static_cast<double>(N.RealN)) /
                  static_cast<double>(N.RealN));
    return mean(E);
  }
  uint64_t sum(uint64_t PipelineNumbers::*Field) const {
    uint64_t S = 0;
    for (const PipelineNumbers &N : Jobs)
      S += N.*Field;
    return S;
  }
};

/// The end-to-end metrics every untraced run reports. \p LatMs is in
/// completion order; \p TailWindow is the window summarizeWindowed() takes
/// the tail over (0: the whole run).
void endToEnd(Result &R, double SetupS, uint64_t Completed, double ElapsedS,
              const std::vector<double> &LatMs, double PeakRssMb,
              const PassNumbers &P, size_t TailWindow = 0) {
  LatencySummary L =
      TailWindow ? summarizeWindowed(LatMs, TailWindow) : summarize(LatMs);
  R.metric("setup_s", SetupS, "s");
  R.metric("jobs_per_s", Completed / ElapsedS, "1/s");
  R.metric("job_p50_ms", L.P50, "ms");
  R.metric("job_tail_ms", L.Tail, "ms");
  R.metric("peak_rss_mb", PeakRssMb, "MB");
  R.metric("vcycles_total", P.vcycles(), "cycles");
  R.metric("speedup_geomean", P.speedupGeomean(), "x");
  R.metric("est_error_pct", P.estErrorPct(), "%");
  R.Info.push_back({"samples", static_cast<uint64_t>(L.Count)});
  R.Info.push_back({"job_tail_percentile", L.TailPct});
  R.Info.push_back({"job_tail_windows", static_cast<uint64_t>(L.TailWindows)});
  R.Info.push_back({"timed_seconds", ElapsedS});
}

/// The deterministic figures the run-to-run guard compares.
void recordDeterministic(Result &R, const PassNumbers &P, bool Replayed) {
  R.deterministic("vcycles_total", P.vcycles());
  R.deterministic("speedup_geomean", P.speedupGeomean());
  R.deterministic("est_error_pct", P.estErrorPct());
  R.deterministic("optimize.dsa_evals",
                  static_cast<double>(P.sum(&PipelineNumbers::Evals)));
  if (Replayed)
    R.deterministic("runtime.events",
                    static_cast<double>(P.sum(&PipelineNumbers::Events)));
}

/// Per-layer figures that come from somewhere other than pipeline spans.
struct LayerExtras {
  double OverheadFrac = 0;
  double UnattributedFrac = 0;
  double ServerMs = 0;
  double ClientGapMs = 0;
  double SynthCachedRatio = 0;
  double RespBytes = 0;
  double CliUnattributedMs = 0;
};

/// Every per-layer metric. Times are mean self times per call of the
/// span (0 when the workload never makes the call); counts are totals
/// over one pass of the workload's distinct jobs, \p P.
void layerMetrics(Result &R, const SpanLog &Log, const PassNumbers &P,
                  const LayerExtras &X) {
  std::map<std::string, double> Self = Log.selfMsByName();
  std::map<std::string, size_t> Calls;
  for (const SpanLog::Span &S : Log.spans())
    ++Calls[S.Name];
  auto PerCall = [&](const char *Name) {
    return Calls[Name] ? Self[Name] / Calls[Name] : 0.0;
  };
  uint64_t Evals = P.sum(&PipelineNumbers::Evals);
  uint64_t Events = P.sum(&PipelineNumbers::Events);
  double DsaMs = PerCall("optimize.dsa");
  double FinalMs = PerCall("runtime.final");
  double PassJobs = static_cast<double>(P.Jobs.size());
  R.metric("optimize.dsa_ms", DsaMs, "ms");
  R.metric("optimize.dsa_evals", static_cast<double>(Evals), "count");
  R.metric("optimize.dsa_iters",
           static_cast<double>(P.sum(&PipelineNumbers::Iters)), "count");
  R.metric("optimize.ms_per_eval", Evals ? DsaMs * PassJobs / Evals : 0.0,
           "ms");
  R.metric("schedsim.eval_ms", PerCall("schedsim.eval"), "ms");
  R.metric("optimize.critpath_ms", PerCall("optimize.critpath"), "ms");
  R.metric("profile.run_ms", PerCall("profile.run"), "ms");
  R.metric("profile.cycles",
           static_cast<double>(P.sum(&PipelineNumbers::Real1)), "cycles");
  R.metric("runtime.final_ms", FinalMs, "ms");
  R.metric("runtime.events", static_cast<double>(Events), "count");
  R.metric("runtime.invocations",
           static_cast<double>(P.sum(&PipelineNumbers::Invocations)),
           "count");
  R.metric("runtime.events_per_s",
           FinalMs > 0 ? Events / (FinalMs * PassJobs / 1e3) : 0.0, "1/s");
  R.metric("frontend.compile_ms", PerCall("frontend.compile"), "ms");
  R.metric("analysis.ms",
           PerCall("analysis.disjoint") + PerCall("analysis.cstg"), "ms");
  R.metric("vm.lower_ms", PerCall("vm.lower"), "ms");
  R.metric("synthesis.plan_ms", PerCall("synthesis.plan"), "ms");
  R.metric("serve.server_ms", X.ServerMs, "ms");
  R.metric("serve.client_gap_ms", X.ClientGapMs, "ms");
  R.metric("serve.synth_cached_ratio", X.SynthCachedRatio, "ratio");
  R.metric("serve.resp_bytes", X.RespBytes, "bytes");
  R.metric("cli.unattributed_ms", X.CliUnattributedMs, "ms");
  R.metric("trace.overhead_frac", X.OverheadFrac, "ratio");
  R.metric("trace.unattributed_frac", X.UnattributedFrac, "ratio");
}

void writeTrace(const Options &O, const SpanLog &Log, Result &R) {
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + ".json";
  std::ofstream Out(Path, std::ios::binary);
  Out << Log.chromeJson();
  if (!Out)
    R.problem("cannot write " + Path);
  R.Info.push_back({"trace_file", Path});
  R.Info.push_back({"spans", static_cast<uint64_t>(Log.spans().size())});
}

double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int SetupReps = 5;

/// How many units of work, each taking about \p UnitSeconds on a 4-vCPU
/// host, fill \p Seconds (at least one). synth62 does a fixed amount of
/// work sized from --seconds, because its jobs are long and few.
int workUnits(double Seconds, double UnitSeconds) {
  return std::max(1, static_cast<int>(std::lround(Seconds / UnitSeconds)));
}

//===----------------------------------------------------------------------===//
// synth62: the six embedded paper apps through runPipeline at 62 cores
//===----------------------------------------------------------------------===//

/// Seconds one synth62 cycle (six pipeline jobs) takes.
constexpr double Synth62CycleSeconds = 3.0;
/// Cycles a traced synth62 run replays.
constexpr int Synth62TracedCycles = 2;

void runSynth62(const Options &O, Result &R) {
  // Set-up: build the programs and compute the reference checksums of
  // the hand-written sequential C baselines.
  std::vector<std::unique_ptr<apps::App>> Apps;
  std::vector<runtime::BoundProgram> Bound;
  std::vector<uint64_t> Baseline;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    auto T0 = Clock::now();
    Apps = apps::allApps();
    Bound.clear();
    Baseline.clear();
    for (const auto &A : Apps) {
      Bound.push_back(A->makeBound(1));
      Baseline.push_back(A->runBaseline(1).Checksum);
    }
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }

  // A cycle is one job per app, in an order drawn from the workload seed,
  // every job with the CLI's default DSA seed. The DSA's cost varies
  // several-fold from one DSA seed to the next (README.md, "Why synth62
  // fixes its DSA seeds"), so drawing DSA seeds per run would make the
  // timings measure the draw rather than the code.
  constexpr uint64_t DsaSeed = 1;
  SeedStream Rng(O.Seed);
  auto NextCycle = [&] {
    std::vector<size_t> Cycle;
    for (size_t A = 0; A < Apps.size(); ++A)
      Cycle.push_back(A);
    Rng.shuffle(Cycle);
    return Cycle;
  };
  auto Opts = [&](int Threads) {
    return pipelineOptions(62, DsaSeed, Threads, {});
  };

  // runPipeline with Jobs=1, the CLI default. In a traced run these
  // cycles are the baseline for the tracing overhead.
  std::vector<size_t> Jobs;
  std::vector<driver::PipelineResult> First(Apps.size());
  std::vector<bool> Seen(Apps.size());
  std::vector<double> LatMs;
  int Cycles = O.Trace ? Synth62TracedCycles
                       : workUnits(O.Seconds, Synth62CycleSeconds);
  auto T0 = Clock::now();
  for (int Cycle = 0; Cycle < Cycles; ++Cycle)
    for (size_t A : NextCycle()) {
      auto T1 = Clock::now();
      driver::PipelineResult P = driver::runPipeline(Bound[A], Opts(1));
      LatMs.push_back(secondsBetween(T1, Clock::now()) * 1e3);
      Jobs.push_back(A);
      ++R.Attempted;
      if (!Seen[A]) {
        Seen[A] = true;
        First[A] = std::move(P);
      } else if (!numbersOf(P).samePipeline(numbersOf(First[A]))) {
        ++R.Failed;
        R.problem(Apps[A]->name() + ": result drifted between repeated "
                                    "runs");
      }
    }
  double Elapsed = secondsBetween(T0, Clock::now());

  // Reference check, untimed: each chosen layout's heap checksum against
  // the hand-written sequential C baseline.
  PassNumbers Pass;
  for (size_t A = 0; A < Apps.size(); ++A) {
    const driver::PipelineResult &P = First[A];
    runtime::TileExecutor Exec(Bound[A], P.Graph, Opts(1).Target,
                               P.BestLayout);
    runtime::ExecResult X = Exec.run(Opts(1).Exec);
    if (!P.RealRunCompleted || !X.Completed ||
        X.TotalCycles != P.RealNCore ||
        Apps[A]->checksumFromHeap(Exec.heap()) != Baseline[A]) {
      // Every repeat of this job produced the same wrong answer.
      R.Failed += R.Attempted / Apps.size();
      R.problem(Apps[A]->name() + ": checksum differs from the C baseline");
    }
    Pass.Jobs.push_back(numbersOf(P));
  }

  if (!O.Trace) {
    endToEnd(R, median(SetupS), R.Attempted, Elapsed, LatMs, selfPeakRssMb(),
             Pass);
    recordDeterministic(R, Pass, /*Replayed=*/false);
    return;
  }

  // Traced replay of the same jobs with Jobs=1; it must reproduce
  // runPipeline exactly.
  SpanLog Log;
  std::vector<double> TracedMs;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    size_t A = Jobs[I];
    Scope JobSpan(&Log, "job", -1, static_cast<int64_t>(I));
    PipelineNumbers N = replayPipeline(Bound[A], nullptr, Opts(1), &Log,
                                       JobSpan.id(), static_cast<int64_t>(I));
    JobSpan.close();
    TracedMs.push_back(SpanLog::ms(Log.spans()[JobSpan.id()]));
    if (!N.samePipeline(Pass.Jobs[A]))
      R.problem(Apps[A]->name() + ": traced replay differs from runPipeline");
    // Keep the replay's numbers: they add the final run's events.
    Pass.Jobs[A] = N;
  }
  // Each app once more with Jobs=nproc, untraced.
  for (size_t A = 0; A < Apps.size(); ++A)
    if (!replayPipeline(Bound[A], nullptr, Opts(O.Nproc), nullptr, -1, -1)
             .sameReplay(Pass.Jobs[A]))
      R.problem(Apps[A]->name() + ": Jobs=" + std::to_string(O.Nproc) +
                " differs from Jobs=1");

  LayerExtras X;
  X.OverheadFrac = mean(TracedMs) / mean(LatMs) - 1;
  std::vector<double> Self = Log.selfMs();
  for (size_t I = 0; I < Log.spans().size(); ++I)
    if (Log.spans()[I].Name == "job")
      X.UnattributedFrac +=
          Self[I] / SpanLog::ms(Log.spans()[I]) / Jobs.size();
  layerMetrics(R, Log, Pass, X);
  recordDeterministic(R, Pass, /*Replayed=*/true);
  writeTrace(O, Log, R);
}

//===----------------------------------------------------------------------===//
// DSL job lists (cli_exec and serve_warm)
//===----------------------------------------------------------------------===//

/// The seven examples/dsl programs and the range a job's argument length
/// is drawn from. fractal's DSA cost grows with its event count, so its
/// argument stays short; keywordcount takes words, the others digits.
struct DslApp {
  const char *Name;
  int Lo;
  int Hi;
};
constexpr DslApp DslApps[] = {
    {"filterbank", 12, 40}, {"fractal", 4, 12},     {"keywordcount", 8, 32},
    {"kmeans", 12, 40},     {"montecarlo", 12, 40}, {"series", 12, 40},
    {"tracking", 12, 40}};

std::string makeArg(const DslApp &A, int Len, SeedStream &Rng) {
  std::string Arg;
  if (std::strcmp(A.Name, "keywordcount") == 0) {
    static const char *Words[] = {"the", "cat", "and",  "dog", "bird",
                                  "fox", "of",  "quick", "a",  "brown"};
    for (int I = 0; I < Len; ++I)
      Arg += std::string(I ? " " : "") + Words[Rng.below(10)];
    return Arg;
  }
  // The serve protocol's `size` argument: Len digits cycling 1-9.
  for (int I = 0; I < Len; ++I)
    Arg += static_cast<char>('1' + I % 9);
  return Arg;
}

/// \p PerApp jobs per program at stratified argument lengths, in a
/// seed-shuffled order.
std::vector<DslJob> dslJobs(SeedStream &Rng, int PerApp) {
  std::vector<DslJob> Jobs;
  for (const DslApp &A : DslApps)
    for (int Len : Rng.stratified(A.Lo, A.Hi, PerApp)) {
      DslJob J;
      J.App = A.Name;
      J.Arg = makeArg(A, Len, Rng);
      Jobs.push_back(J);
    }
  Rng.shuffle(Jobs);
  return Jobs;
}

std::string describe(const DslJob &J) {
  return J.App + " (arg length " + std::to_string(J.Arg.size()) + ")";
}

//===----------------------------------------------------------------------===//
// cli_exec: the real `bamboo` binary, one job at a time
//===----------------------------------------------------------------------===//

constexpr int CliJobsPerApp = 8;
/// Latencies per job_tail_ms window: three rounds over the 56 distinct jobs.
constexpr size_t CliTailWindow = 3 * 7 * CliJobsPerApp;
/// Traced replays of each distinct job per traced run.
constexpr int CliReplayReps = 3;

void runCliExec(const Options &O, Result &R) {
  SeedStream Rng(O.Seed);
  std::vector<DslJob> Jobs = dslJobs(Rng, CliJobsPerApp);

  // Set-up: one untimed run of every program, so the binary and the
  // sources are in the page cache before the first timed job.
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    SeedStream WarmRng(0);
    auto T0 = Clock::now();
    for (const DslApp &A : DslApps) {
      DslJob J;
      J.App = A.Name;
      J.Arg = makeArg(A, A.Lo, WarmRng);
      if (runProcess(cliArgv(O, J, false)).ExitCode != 0)
        R.problem("warm-up run of " + describe(J) + " failed");
    }
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }

  std::vector<ProcResult> First;
  std::vector<CliSummary> FirstSummary;
  std::vector<std::vector<double>> JobMs(Jobs.size());
  std::vector<double> LatMs;
  long PeakKb = 0;
  // Rounds over the distinct jobs until the deadline. The first round, the
  // one checked against the references, always completes; after it the
  // run stops at the first job due after the deadline.
  auto T0 = Clock::now();
  auto Deadline = secondsAfter(T0, O.Trace ? O.Seconds / 2 : O.Seconds);
  for (int Round = 0; Round == 0 || Clock::now() < Deadline; ++Round)
    for (size_t I = 0; I < Jobs.size(); ++I) {
      if (Round > 0 && Clock::now() >= Deadline)
        break;
      ProcResult P = runProcess(cliArgv(O, Jobs[I], false));
      ++R.Attempted;
      LatMs.push_back(P.WallMs);
      JobMs[I].push_back(P.WallMs);
      PeakKb = std::max(PeakKb, P.MaxRssKb);
      CliSummary S = parseCliSummary(P.Err);
      if (P.ExitCode != 0 || !S.Found) {
        ++R.Failed;
        R.problem(describe(Jobs[I]) + ": exit " +
                  std::to_string(P.ExitCode) + ": " + P.Err);
      }
      if (Round == 0) {
        First.push_back(std::move(P));
        FirstSummary.push_back(S);
      } else if (P.Out != First[I].Out || !(S == FirstSummary[I])) {
        ++R.Failed;
        R.problem(describe(Jobs[I]) + ": drifted between repeated runs");
      }
    }
  double Elapsed = secondsBetween(T0, Clock::now());

  // Reference check, untimed.
  PassNumbers Pass;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    DslReference Ref = referenceFor(O, Jobs[I]);
    std::string Err =
        checkAgainstReference(Ref, First[I].Out, FirstSummary[I].RealN);
    if (Err.empty() && !(FirstSummary[I] == Ref.InterpSummary))
      Err = "vm and interpreter summaries differ";
    if (!Err.empty()) {
      R.Failed += JobMs[I].size();
      R.problem(describe(Jobs[I]) + ": " + Err);
    }
    Pass.Jobs.push_back(Ref.Replay.N);
  }

  if (!O.Trace) {
    endToEnd(R, median(SetupS), R.Attempted, Elapsed, LatMs, PeakKb / 1024.0,
             Pass, CliTailWindow);
    recordDeterministic(R, Pass, /*Replayed=*/true);
    return;
  }

  // In-process replays: untraced and traced alternate so both see the
  // same machine state; all must match the reference replay exactly.
  SpanLog Log;
  double UntracedMs = 0, TracedMs = 0;
  std::vector<double> SpanMs(Jobs.size());
  for (int Rep = 0; Rep < CliReplayReps; ++Rep)
    for (size_t I = 0; I < Jobs.size(); ++I) {
      DslReplay U = replayDsl(O, Jobs[I], 1, nullptr, -1);
      DslReplay T = replayDsl(O, Jobs[I], 1, &Log,
                              static_cast<int64_t>(Rep * Jobs.size() + I));
      UntracedMs += U.WallMs;
      TracedMs += T.WallMs;
      SpanMs[I] += T.SpanMs / CliReplayReps;
      if (!U.N.sameReplay(Pass.Jobs[I]) || !T.N.sameReplay(Pass.Jobs[I]))
        R.problem(describe(Jobs[I]) + ": replay drifted");
    }
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (!replayDsl(O, Jobs[I], O.Nproc, nullptr, -1).N.sameReplay(Pass.Jobs[I]))
      R.problem(describe(Jobs[I]) + ": Jobs=" + std::to_string(O.Nproc) +
                " differs from Jobs=1");

  LayerExtras X;
  X.OverheadFrac = TracedMs / UntracedMs - 1;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    // CLI wall time the replay's layer spans do not cover: process start,
    // file I/O and the CLI's second final run.
    double CliMs = median(JobMs[I]);
    X.CliUnattributedMs += (CliMs - SpanMs[I]) / Jobs.size();
    X.UnattributedFrac += (CliMs - SpanMs[I]) / CliMs / Jobs.size();
  }
  layerMetrics(R, Log, Pass, X);
  recordDeterministic(R, Pass, /*Replayed=*/true);
  writeTrace(O, Log, R);
}

//===----------------------------------------------------------------------===//
// serve_warm: `bamboo serve` with a warm synthesis cache
//===----------------------------------------------------------------------===//

constexpr int ServeWorkers = 2;
constexpr int ServeConnections = 2;
constexpr int ServeSizesPerApp = 8;
/// Latencies per job_tail_ms window: four laps of each connection over the
/// 56 keys.
constexpr size_t ServeTailWindow = 4 * 7 * ServeSizesPerApp * ServeConnections;
/// In-process final-run replays of each key per traced run.
constexpr int ServeReplayReps = 3;

/// A `bamboo serve` child process; stopped (SIGTERM, then waited for) on
/// destruction at the latest.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  std::string start(const Options &O) {
    std::string PortFile = O.OutDir + "/serve.port";
    std::string LogFile = O.OutDir + "/serve.log";
    unlink(PortFile.c_str());
    std::vector<std::string> Argv = {
        O.Bamboo,
        "serve",
        "--apps-dir=" + O.Root + "/examples/dsl",
        "--port=0",
        "--port-file=" + PortFile,
        "--workers=" + std::to_string(ServeWorkers),
        "--batch=1",
        "--jobs=1"};
    std::vector<char *> Args;
    for (std::string &A : Argv)
      Args.push_back(A.data());
    Args.push_back(nullptr);
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, 1, LogFile.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Fa, 1, 2);
    int Rc = posix_spawn(&Pid, Args[0], &Fa, nullptr, Args.data(), environ);
    posix_spawn_file_actions_destroy(&Fa);
    if (Rc != 0) {
      Pid = -1;
      return std::string("cannot spawn the server: ") + std::strerror(Rc);
    }
    auto Deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < Deadline) {
      std::string Text = readFile(PortFile);
      if (!Text.empty()) {
        Port = static_cast<uint16_t>(std::stoi(Text));
        return "";
      }
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return "the server exited during start-up; see " + LogFile;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return "the server did not report its port within 30 s";
  }

  /// Graceful drain; returns the exit code (0 when drained cleanly).
  int stop() {
    if (Pid < 0)
      return 0;
    kill(Pid, SIGTERM);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128;
  }

  uint16_t port() const { return Port; }

  /// Peak resident memory so far (VmHWM).
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::stod(Line.substr(6)) / 1024.0;
    return 0;
  }

private:
  pid_t Pid = -1;
  uint16_t Port = 0;
};

struct Reply {
  size_t Key = 0;
  int Conn = 0;
  bool Ok = false;
  std::string Output;
  std::string Error;
  uint64_t Cycles = 0;
  uint64_t LatencyUs = 0;
  bool Cached = false;
  size_t Bytes = 0;
  Clock::time_point Sent, Received;
  double rttMs() const { return secondsBetween(Sent, Received) * 1e3; }
};

std::string requestLine(uint64_t Id, const DslJob &J) {
  return "{\"id\":" + std::to_string(Id) + ",\"app\":" +
         serve::Json::quote(J.App) + ",\"args\":[" +
         serve::Json::quote(J.Arg) + "],\"seed\":" + std::to_string(DslSeed) +
         ",\"cores\":" + std::to_string(DslCores) + "}";
}

void parseReply(const std::string &Line, Reply &Out) {
  Out.Bytes = Line.size() + 1;
  serve::Json J;
  std::string Err;
  if (!serve::Json::parse(Line, J, Err) || !J.isObject()) {
    Out.Error = "unparsable response: " + Err;
    return;
  }
  auto Get = [&](const char *Key) { return J.find(Key); };
  const serve::Json *Ok = Get("ok");
  Out.Ok = Ok && Ok->isBool() && Ok->boolean();
  if (!Out.Ok) {
    const serve::Json *E = Get("error");
    Out.Error = E && E->isString() ? E->str() : Line;
    return;
  }
  const serve::Json *Output = Get("output"), *Cycles = Get("cycles"),
                    *Latency = Get("latency_us"), *Cached = Get("synth_cached");
  if (!Output || !Cycles || !Latency || !Cached) {
    Out.Ok = false;
    Out.Error = "response lacks a field: " + Line;
    return;
  }
  Out.Output = Output->str();
  Out.Cycles = Cycles->uint();
  Out.LatencyUs = Latency->uint();
  Out.Cached = Cached->boolean();
}

/// One closed-loop connection: sends up to \p Count requests, cycling
/// through the keys in \p Seq order from \p Offset, each only after the
/// previous reply and none after \p Until.
void drive(uint16_t Port, const std::vector<DslJob> &Keys,
           const std::vector<size_t> &Seq, size_t Offset, size_t Count,
           Clock::time_point Until, int Conn, std::vector<Reply> &Out,
           std::string &Error) {
  serve::Client C;
  if (!C.connectTo(Port, Error))
    return;
  C.setRecvTimeoutMs(60000);
  uint64_t Id = static_cast<uint64_t>(Conn) << 32;
  for (size_t K = 0; K < Count && Clock::now() < Until; ++K) {
    Reply Rep;
    Rep.Key = Seq[(Offset + K) % Seq.size()];
    Rep.Conn = Conn;
    std::string Line;
    Rep.Sent = Clock::now();
    if (!C.sendLine(requestLine(++Id, Keys[Rep.Key])) || !C.recvLine(Line)) {
      Error = "connection failed: " + C.lastError();
      return;
    }
    Rep.Received = Clock::now();
    parseReply(Line, Rep);
    Out.push_back(std::move(Rep));
  }
}

/// Runs one closed-loop connection per sequence in \p Seqs, each sending
/// requests for \p Seconds (0: its sequence once); returns every reply in
/// completion order.
std::vector<Reply> drivePass(uint16_t Port, const std::vector<DslJob> &Keys,
                             const std::vector<std::vector<size_t>> &Seqs,
                             double Seconds, Result &R) {
  std::vector<std::vector<Reply>> Out(Seqs.size());
  std::vector<std::string> Errors(Seqs.size());
  std::vector<std::thread> Threads;
  Clock::time_point Until =
      Seconds ? secondsAfter(Clock::now(), Seconds) : Clock::time_point::max();
  for (size_t C = 0; C < Seqs.size(); ++C)
    Threads.emplace_back([&, C] {
      size_t Offset = Seconds ? C * Seqs[C].size() / Seqs.size() : 0;
      drive(Port, Keys, Seqs[C], Offset,
            Seconds ? SIZE_MAX : Seqs[C].size(), Until,
            static_cast<int>(C), Out[C], Errors[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<Reply> All;
  for (size_t C = 0; C < Seqs.size(); ++C) {
    if (!Errors[C].empty())
      R.problem(Errors[C]);
    for (Reply &Rep : Out[C])
      All.push_back(std::move(Rep));
  }
  std::stable_sort(All.begin(), All.end(), [](const Reply &A, const Reply &B) {
    return A.Received < B.Received;
  });
  return All;
}

void runServeWarm(const Options &O, Result &R) {
  SeedStream Rng(O.Seed);
  std::vector<DslJob> Keys = dslJobs(Rng, ServeSizesPerApp);
  std::vector<size_t> Order(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    Order[I] = I;
  Rng.shuffle(Order);
  // Warm-up splits the keys between the connections; timed passes give
  // each connection the whole shuffled order from its own offset.
  std::vector<std::vector<size_t>> WarmSeqs(ServeConnections), Seqs;
  for (size_t I = 0; I < Order.size(); ++I)
    WarmSeqs[I % ServeConnections].push_back(Order[I]);
  Seqs.assign(ServeConnections, Order);

  // Set-up: server start plus one request per key, which compiles and
  // synthesizes it into the cache. Repeated for a median; the last server
  // stays up.
  ServerProcess Srv;
  std::vector<Reply> Warm(Keys.size());
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < (O.Trace ? 1 : SetupReps); ++Rep) {
    if (Srv.stop() != 0)
      R.problem("the server did not drain cleanly");
    auto T0 = Clock::now();
    if (std::string Err = Srv.start(O); !Err.empty()) {
      R.problem(Err);
      return;
    }
    for (Reply &W : drivePass(Srv.port(), Keys, WarmSeqs, 0, R))
      Warm[W.Key] = std::move(W);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }
  for (size_t K = 0; K < Keys.size(); ++K)
    if (!Warm[K].Ok) {
      R.problem("warm-up of " + describe(Keys[K]) + " failed: " +
                Warm[K].Error);
      return;
    }

  double PassSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  auto T0 = Clock::now();
  std::vector<Reply> Timed = drivePass(Srv.port(), Keys, Seqs, PassSeconds, R);
  double Elapsed = secondsBetween(T0, Clock::now());
  std::vector<Reply> Traced;
  if (O.Trace)
    Traced = drivePass(Srv.port(), Keys, Seqs, PassSeconds, R);
  double PeakRssMb = Srv.peakRssMb();
  if (Srv.stop() != 0)
    R.problem("the server did not drain cleanly");

  std::vector<uint64_t> PerKey(Keys.size()), Uncached(Keys.size());
  std::vector<double> RttMs;
  uint64_t Completed = 0;
  for (const std::vector<Reply> *Pass : {&Timed, &Traced})
    for (const Reply &Rep : *Pass) {
      bool Counted = Pass == &Timed;
      R.Attempted += Counted;
      ++PerKey[Rep.Key];
      Uncached[Rep.Key] += !Rep.Cached;
      if (!Rep.Ok || Rep.Output != Warm[Rep.Key].Output ||
          Rep.Cycles != Warm[Rep.Key].Cycles) {
        R.Failed += Counted;
        R.problem(describe(Keys[Rep.Key]) + ": " +
                  (Rep.Ok ? "reply differs from the warm-up reply"
                          : Rep.Error));
        continue;
      }
      if (Counted) {
        ++Completed;
        RttMs.push_back(Rep.rttMs());
      }
    }

  // Reference check, untimed, once per key (every reply of a key was
  // compared with its warm-up reply above).
  PassNumbers Pass;
  for (size_t K = 0; K < Keys.size(); ++K) {
    DslReference Ref = referenceFor(O, Keys[K]);
    std::string Err =
        checkAgainstReference(Ref, Warm[K].Output, Warm[K].Cycles);
    if (!Err.empty()) {
      R.Failed += PerKey[K];
      R.problem(describe(Keys[K]) + ": " + Err);
    }
    Pass.Jobs.push_back(Ref.Replay.N);
  }

  if (!O.Trace) {
    endToEnd(R, median(SetupS), Completed, Elapsed, RttMs, PeakRssMb, Pass,
             ServeTailWindow);
    recordDeterministic(R, Pass, /*Replayed=*/true);
    return;
  }

  // The traced pass's spans come from client-side timestamps: a job span
  // per round trip, and the server's own admission-to-completion time
  // (latency_us) as its child, ending when the reply arrived.
  SpanLog Log;
  LayerExtras X;
  size_t Cached = 0;
  for (size_t I = 0; I < Traced.size(); ++I) {
    const Reply &Rep = Traced[I];
    auto Server = std::chrono::microseconds(Rep.LatencyUs);
    int Job = Log.add("job", Rep.Sent, Rep.Received, -1,
                      static_cast<int64_t>(I), Rep.Conn + 1);
    Log.add("serve.server", Rep.Received - Server, Rep.Received, Job,
            static_cast<int64_t>(I), Rep.Conn + 1);
    double ServerMs = Rep.LatencyUs / 1e3;
    X.ServerMs += ServerMs / Traced.size();
    X.ClientGapMs += (Rep.rttMs() - ServerMs) / Traced.size();
    X.UnattributedFrac += (1 - ServerMs / Rep.rttMs()) / Traced.size();
    X.RespBytes += static_cast<double>(Rep.Bytes) / Traced.size();
    Cached += Rep.Cached;
  }
  X.SynthCachedRatio = static_cast<double>(Cached) / Traced.size();
  std::vector<double> TracedRtt;
  for (const Reply &Rep : Traced)
    TracedRtt.push_back(Rep.rttMs());
  X.OverheadFrac = mean(TracedRtt) / mean(RttMs) - 1;

  // The runtime layer the requests exercise, replayed in process: each
  // key synthesized with Jobs=nproc (the server used Jobs=1), then its
  // final run timed.
  for (size_t K = 0; K < Keys.size(); ++K) {
    const DslJob &J = Keys[K];
    Compiled C = compileDsl(O, J.App, nullptr, -1, -1);
    if (!C.Program) {
      R.problem(describe(J) + ": " + C.Error);
      continue;
    }
    driver::PipelineOptions PO =
        pipelineOptions(DslCores, DslSeed, O.Nproc, {J.Arg});
    Synthesized S;
    PipelineNumbers Wide = replayPipeline(C.Program->bound(), C.Program.get(),
                                          PO, nullptr, -1, -1, &S);
    if (!Wide.sameReplay(Pass.Jobs[K]))
      R.problem(describe(J) + ": Jobs=" + std::to_string(O.Nproc) +
                " differs from Jobs=1");
    runtime::TileExecutor Exec(C.Program->bound(), S.Graph, PO.Target,
                               S.Best);
    for (int Rep = 0; Rep < ServeReplayReps; ++Rep) {
      Scope Final(&Log, "runtime.final", -1, static_cast<int64_t>(K));
      if (Exec.run(PO.Exec).EventsProcessed != Pass.Jobs[K].Events)
        R.problem(describe(J) + ": final-run events drifted");
    }
  }
  // Requests answered from the warm cache paid no profiling or DSA.
  PassNumbers RequestPath = Pass;
  for (size_t K = 0; K < Keys.size(); ++K)
    if (!Uncached[K]) {
      RequestPath.Jobs[K].Real1 = 0;
      RequestPath.Jobs[K].Evals = 0;
      RequestPath.Jobs[K].Iters = 0;
    }
  layerMetrics(R, Log, RequestPath, X);
  recordDeterministic(R, Pass, /*Replayed=*/true);
  writeTrace(O, Log, R);
}

int availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&Set);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      O.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--root")
      O.Root = Value;
    else if (Flag == "--bamboo")
      O.Bamboo = Value;
    else if (Flag == "--out")
      O.OutDir = Value;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", Flag.c_str());
      return 2;
    }
  }
  O.Nproc = availableCpus();

  // The load budget: threads that do the workload's work at once.
  int Threads = 0, Connections = 0;
  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "synth62") {
    Threads = 1;
    Run = runSynth62;
  } else if (O.Workload == "cli_exec") {
    Threads = 1;
    Run = runCliExec;
  } else if (O.Workload == "serve_warm") {
    Threads = ServeWorkers + ServeConnections;
    Connections = ServeConnections;
    Run = runServeWarm;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  if (Threads > O.Nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d threads but nproc is %d; refusing "
                 "to start\n",
                 O.Workload.c_str(), Threads, O.Nproc);
    return 2;
  }

  Result R;
  Run(O, R);
  if (R.Attempted == 0) {
    // The workload could not start a single job (the problems say why).
    R.Attempted = R.Failed = 1;
    R.problem("no job ran");
  }
  bool Correct = R.Failed == 0 && R.Problems.empty();
  R.Info.insert(
      R.Info.begin(),
      {{"workload", O.Workload},
       {"seed", O.Seed},
       {"trace", O.Trace},
       {"nproc", O.Nproc},
       {"build_type", PERFBENCH_BUILD_TYPE},
       {"threads", Threads},
       {"connections", Connections},
       {"dsa_jobs", 1}});
  serve::JsonArray Problems;
  for (const std::string &P : R.Problems)
    Problems.push_back(P);
  R.Info.push_back({"problems", Problems});
  serve::Json Out = serve::JsonObject{
      {"correct", Correct},
      {"attempted", R.Attempted},
      {"failed", std::min(R.Failed, R.Attempted)},
      {"metrics", R.Metrics},
      {"deterministic", R.Deterministic},
      {"info", R.Info}};
  std::printf("%s\n", Out.dump().c_str());
  return Correct ? 0 : 1;
}

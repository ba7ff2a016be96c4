// perfbench runner: runs one workload of the grgad benchmark and writes its
// raw observations (per-request timestamps, per-run samples, spans) as JSON
// for run.py to reduce into metrics. It is the only code that talks to the
// program under test, and it does so through the program's public surface:
// the `grgad serve` daemon over a unix socket, and the public functions of
// each src/ module called in-process. Nothing here reaches inside src/.
//
//   perfbench_runner <simml|amlpublic>
//       --seed N --seconds S --trace 0|1 --grgad PATH --work DIR --out FILE
//
// A workload is one dataset; every workload runs the same session on it:
// build the dataset, train the artifacts, serve open-loop reads from them on
// a durable daemon, churn the graph through it, then kill -9 and restart.
// Every workload runs one untraced pass. With --trace 1 it then runs the
// same pass again with spans recorded around every timed call into the
// library, so run.py can report per-layer numbers and the tracing overhead
// (traced minus untraced) from one invocation. Spans are written as Chrome
// trace-event JSON (<work>/trace.json), viewable in Perfetto.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/evaluation.h"
#include "src/core/method_registry.h"
#include "src/core/refresh.h"
#include "src/core/stages.h"
#include "src/data/registry.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/traversal_workspace.h"
#include "src/sampling/dirty_tracker.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/serve/wal.h"
#include "src/tensor/arena.h"
#include "src/util/transport.h"

namespace fs = std::filesystem;
using grgad::Status;

namespace {

// ---- workload constants (documented in perfbench/README.md) ----------------

/// The bench "quick" training overrides, plus hop-count sampling with small
/// radii, so a mutation dirties a ball of anchors instead of all of them
/// (IncrementalInvalidationSound) and a refresh resamples only that ball.
const std::vector<std::string> kOverrides = {
    "mh_gae.epochs=40", "tpgcl.epochs=30", "tpgcl.neg_per_sample=16",
    "sampler.max_groups=800", "sampler.path_mode=unweighted",
    "sampler.pair_radius=3", "sampler.cycle_max_len=3"};

/// The workloads: the datasets the session runs on.
const char* const kWorkloads[] = {"simml", "amlpublic"};
/// Open-loop read rate. Its 67 ms interval exceeds even a slowed ensemble
/// rescore (26 ms, 45 ms at p99 on a busy host), so reads seldom queue and
/// the p50 prices the read, not the queue: at 30 rps queueing made it swing
/// by up to 85% from run to run as the host's speed moved by 30%.
constexpr double kReferenceRps = 15;
/// Churn rounds per second of --seconds: about what one client completes.
/// The round count is fixed by --seconds, not by the clock, so a faster
/// run does not churn the graph further than a slower one.
constexpr double kRoundsPerSecond = 50;

constexpr int kSnapshotEvery = 200;  // 0.5% of writes stall on a snapshot.
/// The WAL fsyncs every 16th record, so a write's median prices the
/// program's write path rather than the disk's fsync, whose latency swings
/// with whatever else the host writes; write_p99_ms still carries it.
constexpr int kWalSyncEvery = 16;
const char* const kDetectors[] = {"ecod", "iforest", "knn", "lof", "ensemble"};
constexpr int kNumDetectors = 5;
constexpr uint64_t kPipelineSeed = 42;  // Fixed: cr/auc must repeat exactly.
constexpr int kSetups = 3;              // Dataset builds per setup_s median.
constexpr int kRestarts = 3;            // kill -9 + restarts per recover_s.
constexpr size_t kWarmupReads = 200;   // Closed loop, untimed.
// Reads take two thirds of --seconds and churn about one third, each with
// at least 100 samples, so 10 lie beyond read_p90_ms and refresh_p90_ms.
constexpr size_t kMinReads = 100;
constexpr int kMinRounds = 100;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_runner: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(grgad::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double Now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

void SleepUntil(double t) {
  const double dt = t - Now();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

/// Median of a small sample (lower middle for even counts).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder. Disabled (the untraced pass) it records nothing
/// and costs one branch per call. Single-threaded by design: spans are
/// recorded only around in-process calls made from the runner's main
/// thread; socket requests become spans after the session, from the
/// timestamps the client takes in every pass.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int64_t id = 0, parent = -1, request = -1;
    std::vector<std::pair<std::string, double>> args;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int64_t Begin(const std::string& name, int64_t request = -1) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start = Now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(int64_t id, std::vector<std::pair<std::string, double>> args = {}) {
    if (!on_ || id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = Now();
    s.args = std::move(args);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Adds a count to a span after it ended, when computing it would have
  /// added to the span's time.
  void AddArg(int64_t id, const std::string& key, double value) {
    if (on_ && id >= 0) spans_[static_cast<size_t>(id)].args.push_back({key, value});
  }

  /// A span from externally taken timestamps (socket requests).
  void Add(const std::string& name, double start, double end, int64_t request) {
    if (!on_) return;
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.request = request;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << Num(s.start * 1e6) << ", \"dur\": " << Num((s.end - s.start) * 1e6)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request_id\": " << s.request;
      for (const auto& [k, v] : s.args) out << ", \"" << k << "\": " << Num(v);
      out << "}}";
    }
    out << "\n]}\n";
    if (!out.flush()) Die("cannot write " + path);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span; args may be filled before the scope closes.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, int64_t request = -1)
      : t_(t), id_(t->Begin(name, request)) {}
  ~Scope() { t_->End(id_, std::move(args)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::vector<std::pair<std::string, double>> args;

 private:
  Tracer* t_;
  int64_t id_;
};

// ---- tiny JSON writer for the raw result -------------------------------------

class Obj {
 public:
  Obj& Put(const std::string& k, const std::string& raw) {
    out_ += (out_.empty() ? "{" : ", ") + ("\"" + k + "\": ") + raw;
    return *this;
  }
  Obj& Put(const std::string& k, double v) { return Put(k, Num(v)); }
  Obj& Str(const std::string& k, const std::string& v) {
    return Put(k, "\"" + grgad::JsonEscapeText(v) + "\"");
  }
  std::string Done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

std::string Arr(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + Num(v[i]);
  return s + "]";
}

std::string ArrRaw(const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + v[i];
  return s + "]";
}

// ---- child processes -----------------------------------------------------------

/// A spawned `grgad serve`. The child dies with the runner (PDEATHSIG), and
/// the destructor kills and reaps it, so no daemon outlives a failed run.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log) {
    // Everything the child touches is prepared before fork(): after it, only
    // async-signal-safe calls, since the parent may be running worker threads.
    std::vector<char*> args;
    for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
    args.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      execv(args[0], args.data());
      _exit(127);
    }
  }
  ~Child() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap();
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  void Kill9() { kill(pid_, SIGKILL); }

  void Reap() {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  /// The daemon's peak RSS so far in KiB (VmHWM of its own address space;
  /// wait4's ru_maxrss would also count the runner's pages it held between
  /// fork and exec).
  double PeakRssKb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
    }
    Die("no VmHWM for the daemon");
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection to the daemon.
/// Connects to the daemon's unix socket, retrying every millisecond until
/// it listens: boot time is then measured to the daemon's first accept, not
/// to the next tick of a coarser poll (ConnectUnixSocket polls every 50 ms,
/// a sixth of a simml boot).
int ConnectPolling(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) Die("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const double deadline = Now() + timeout_s;
  while (true) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) Die("socket: " + std::string(std::strerror(errno)));
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) return fd;
    close(fd);
    if (Now() > deadline) Die("connect " + path + ": no listener within the timeout");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class Conn {
 public:
  Conn(const std::string& socket, double timeout_s) {
    const int fd = ConnectPolling(socket, timeout_s);
    channel_ = std::make_unique<grgad::LineChannel>(fd, fd, true);
  }
  bool Send(const std::string& line) { return channel_->WriteLine(line).ok(); }
  /// Next response line. False when `timeout_s` passes without one, or on
  /// end of stream or error, which also set *closed.
  bool Recv(std::string* line, double timeout_s, bool* closed = nullptr) {
    grgad::CancelToken deadline;
    deadline.SetDeadlineAfter(timeout_s);
    bool eof = false;
    const bool ok = channel_->ReadLine(line, &eof, &deadline).ok();
    if (closed != nullptr) *closed = !ok || (eof && !deadline.stop_requested());
    return ok && !eof;
  }
  std::string Call(const std::string& line, double timeout_s = 60) {
    std::string out;
    if (!Send(line) || !Recv(&out, timeout_s)) return "";
    return out;
  }

 private:
  std::unique_ptr<grgad::LineChannel> channel_;
};

bool IsOk(const std::string& response) {
  return response.find("\"status\": \"ok\"") != std::string::npos;
}

int64_t ResponseId(const std::string& response) {
  const char* key = "{\"id\": ";
  if (response.rfind(key, 0) != 0) return -1;
  return std::strtoll(response.c_str() + std::strlen(key), nullptr, 10);
}

// ---- shared set-up -------------------------------------------------------------

struct Args {
  std::string workload, grgad, work, out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

grgad::TpGrGadOptions PipelineOptions() {
  return Must(grgad::BuildTpGrGadOptions(kPipelineSeed, kOverrides), "options");
}

grgad::Dataset BuildDataset(Tracer* tr, const std::string& name) {
  Scope s(tr, "data.build");
  return Must(grgad::MakeDataset(name, grgad::DatasetOptions{}), "dataset " + name);
}

std::vector<std::string> ServeArgv(const Args& a, const std::string& arts,
                                   const std::string& sock, const std::string& state_dir) {
  std::vector<std::string> v = {a.grgad, "serve", "--dataset=" + a.workload,
                                "--in", arts, "--socket", sock, "--quiet",
                                "--max-queue=" + std::to_string(1 << 16), "--state-dir", state_dir};
  for (const std::string& o : kOverrides) {
    v.push_back("--set");
    v.push_back(o);
  }
  v.push_back("--set");
  v.push_back("serve.snapshot_every_mutations=" + std::to_string(kSnapshotEvery));
  v.push_back("--set");
  v.push_back("serve.wal_sync_every=" + std::to_string(kWalSyncEvery));
  return v;
}

/// Spawns a daemon and waits for its first ok response. Returns seconds
/// from spawn to that response.
double Boot(std::unique_ptr<Child>* child, std::unique_ptr<Conn>* conn,
            const std::vector<std::string>& argv, const std::string& sock,
            const std::string& log) {
  std::error_code ec;
  fs::remove(sock, ec);
  const double t0 = Now();
  *child = std::make_unique<Child>(argv, log);
  *conn = std::make_unique<Conn>(sock, 120.0);
  const std::string r = (*conn)->Call("{\"id\": 0, \"op\": \"stats\"}");
  if (!IsOk(r)) Die("daemon boot: no ok response (see " + log + ")");
  return Now() - t0;
}

// ---- training ---------------------------------------------------------------------

/// One full pipeline run. Untraced it calls RunPipeline, as `grgad run`
/// does; traced it drives the four stage functions itself to span each.
grgad::PipelineArtifacts Train(Tracer* tr, const grgad::Dataset& d,
                               const grgad::TpGrGadOptions& options) {
  if (!tr->on()) return Must(grgad::RunPipeline(d.graph, options), "train");
  grgad::PipelineArtifacts art;
  art.seed = options.seed;
  Scope pipeline(tr, "core.pipeline");
  grgad::TpGrGadOptions opt = options;
  grgad::MatrixArena gae_arena, gcl_arena;  // Fresh per fit, like the default.
  opt.mh_gae.base.arena = &gae_arena;
  opt.tpgcl.arena = &gcl_arena;
  {
    Scope s(tr, "gae.anchor_stage");
    auto r = Must(grgad::RunAnchorStage(d.graph, opt), "anchor stage");
    art.anchors = r.anchors;
    art.gae_node_errors = r.node_errors;
    s.args = {{"anchors", static_cast<double>(art.anchors.size())}};
  }
  {
    const uint64_t ws0 = grgad::TraversalWorkspace::TotalHeapAllocs();
    Scope s(tr, "sampling.candidate_stage");
    art.candidate_groups = Must(grgad::RunCandidateStage(d.graph, art.anchors, opt), "candidate stage").groups;
    s.args = {{"candidates", static_cast<double>(art.candidate_groups.size())},
              {"workspace_heap_allocs",
               static_cast<double>(grgad::TraversalWorkspace::TotalHeapAllocs() - ws0)}};
  }
  {
    Scope s(tr, "gcl.embedding_stage");
    auto r = Must(grgad::RunEmbeddingStage(d.graph, art.candidate_groups, opt), "embedding stage");
    art.group_embeddings = std::move(r.embeddings);
    art.tpgcl_loss_history = std::move(r.loss_history);
    s.args = {{"epochs", static_cast<double>(opt.tpgcl.epochs)}};
  }
  {
    Scope s(tr, "od.scoring_stage");
    auto r = Must(grgad::RunScoringStage(art.group_embeddings, art.candidate_groups, opt), "scoring stage");
    art.group_scores = r.scores;
    art.scored_groups = r.scored_groups;
  }
  pipeline.args = {{"arena_heap_allocs",
                    static_cast<double>(gae_arena.stats().heap_allocs + gcl_arena.stats().heap_allocs)}};
  return art;
}

// ---- reads ------------------------------------------------------------------------

struct ReadReq {
  int op = 0;  // 0 rescore, 1 what-if
  std::string line, body;  // body: the line without its id (memo key)
};

/// Seeded request stream: 7 rescores and 3 what-ifs in every 10 requests,
/// each op cycling through the five detectors; what-if `contains` is a
/// member of a resident group of size 3..32, so the filter always matches.
/// The seed sets the order, not the mix: detectors' costs lie up to 4x
/// apart, and a drawn mix moved read_p50_ms from seed to seed. Not half and
/// half: the two ops' latencies lie some 20x apart, and with an even mix the
/// median would sit on the gap between them. At 70/30 read_p50_ms falls at
/// the 29th percentile of rescores, inside the second-fastest detector's
/// share, not on the edge between two detectors.
class ReadGen {
 public:
  ReadGen(uint64_t seed, const grgad::PipelineArtifacts& art) : rng_(seed) {
    for (const auto& g : art.candidate_groups) {
      if (g.size() >= 3 && g.size() <= 32) eligible_.push_back(&g);
    }
    if (eligible_.empty()) Die("reads: no resident group of size 3..32");
  }
  ReadReq Next(int64_t id) {
    ReadReq r;
    r.op = Draw(&ops_, {0, 0, 0, 0, 0, 0, 0, 1, 1, 1});
    const std::string det = kDetectors[Draw(&detectors_[r.op], {0, 1, 2, 3, 4})];
    if (r.op == 0) {
      r.body = "\"op\": \"rescore\", \"detector\": \"" + det + "\"}";
    } else {
      const auto& g = *eligible_[rng_() % eligible_.size()];
      const int node = g[rng_() % g.size()];
      r.body = "\"op\": \"what-if\", \"contains\": " + std::to_string(node) +
               ", \"min_size\": 3, \"max_size\": 32, \"detector\": \"" + det + "\"}";
    }
    r.line = "{\"id\": " + std::to_string(id) + ", " + r.body;
    return r;
  }

 private:
  /// The next card of a seeded shuffle of `deck`, reshuffled once used up.
  int Draw(std::vector<int>* pile, const std::vector<int>& deck) {
    if (pile->empty()) {
      *pile = deck;
      std::shuffle(pile->begin(), pile->end(), rng_);
    }
    const int card = pile->back();
    pile->pop_back();
    return card;
  }

  std::mt19937_64 rng_;
  std::vector<const std::vector<int>*> eligible_;
  std::vector<int> ops_, detectors_[2];  // Piles of Draw, per op for detectors.
};

struct Sent {
  ReadReq req;
  int64_t id = 0;
  double due = 0, send = -1, recv = -1;
  std::string response;
};

struct Phase {
  std::string kind;  // warmup or reference
  double rate = 0;   // offered rps; 0 = closed loop
  std::vector<Sent> reqs;
};

/// Open loop: request i is due at t0 + i/rate whatever the daemon does; a
/// sender thread paces, a receiver thread collects. rate <= 0 = closed loop
/// (the warm-up). Waits for every sent request's response, or 30 s past the
/// last due time; the phase keeps only the requests sent.
void RunPhase(Conn* conn, Phase* phase) {
  std::vector<Sent>& reqs = phase->reqs;
  const double rate = phase->rate;
  const size_t n = reqs.size();
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < n; ++i) index[reqs[i].id] = i;
  std::atomic<size_t> sent{n}, received{0};
  const double t0 = Now() + 0.01;
  const double give_up = rate > 0 ? t0 + n / rate + 30 : t0 + 120;
  std::thread receiver([&] {
    std::string line;
    bool closed = false;
    while (received < sent && !closed && Now() < give_up) {
      if (!conn->Recv(&line, 0.2, &closed)) continue;
      const double now = Now();
      auto it = index.find(ResponseId(line));
      if (it == index.end()) continue;
      Sent& s = reqs[it->second];
      s.recv = now;
      s.response = line;
      ++received;
    }
  });
  size_t i = 0;
  for (; i < n; ++i) {
    Sent& s = reqs[i];
    if (rate > 0) {
      s.due = t0 + i / rate;
      SleepUntil(s.due);
    } else {
      while (received < i && Now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      s.due = Now();
    }
    s.send = Now();
    if (!conn->Send(s.req.line)) break;
  }
  sent = i;
  receiver.join();
  reqs.resize(i);
}

std::string PhaseJson(const Phase& p, const std::unordered_map<int64_t, int>& verdict) {
  std::vector<std::string> rows;
  for (const Sent& s : p.reqs) {
    rows.push_back("[" + std::to_string(s.req.op) + ", " + Num(s.due) + ", " +
                   Num(s.send) + ", " + Num(s.recv) + ", " +
                   std::to_string(verdict.at(s.id)) + "]");
  }
  return Obj()
      .Str("kind", p.kind)
      .Put("rate", p.rate)
      .Put("requests", ArrRaw(rows))
      .Done();
}

// ---- churn ------------------------------------------------------------------------

struct ChurnOp {
  int op = 0;  // 0 add-edge, 1 remove-edge, 2 refresh, 3 rescore
  int u = -1, v = -1;
  std::string detector;
};

/// Seeded mutation stream over the live edge set it mirrors. Each round's
/// first 4 writes undo the oldest 4 pending mutations, its other 4 are new:
/// adds draw an absent edge between two distinct valid ids, removes draw a
/// present edge, neither touching an edge with a pending undo, so every
/// mutation applies. The graph stays within 8 edges of the dataset's, so
/// every round costs alike however long the churn runs, and a faster run
/// does not face a different graph than a slower one.
class ChurnGen {
 public:
  ChurnGen(uint64_t seed, const grgad::Graph& g) : rng_(seed), n_(g.num_nodes()) {
    for (const auto& e : g.Edges()) Insert(e.first, e.second);
  }
  ChurnOp Next(int i) {
    ChurnOp op;
    const int k = i % 10;
    if (k == 8) {
      op.op = 2;
    } else if (k == 9) {
      op.op = 3;
      op.detector = kDetectors[rng_() % kNumDetectors];
    } else if (k < 4 && pending_.size() > 4) {
      op = pending_.front();
      pending_.pop_front();
      op.op = 1 - op.op;
      pinned_.erase(Key(op.u, op.v));
      Apply(op);
    } else {
      op.op = static_cast<int>(rng_() % 2);
      do {
        if (op.op == 0) {
          op.u = static_cast<int>(rng_() % n_);
          op.v = static_cast<int>(rng_() % n_);
        } else {
          std::tie(op.u, op.v) = edges_[rng_() % edges_.size()];
        }
      } while (op.u == op.v || pinned_.count(Key(op.u, op.v)) ||
               (op.op == 0 && index_.count(Key(op.u, op.v))));
      pending_.push_back(op);
      pinned_.insert(Key(op.u, op.v));
      Apply(op);
    }
    return op;
  }

 private:
  static uint64_t Key(int u, int v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
  }
  void Apply(const ChurnOp& op) {
    if (op.op == 0) Insert(op.u, op.v);
    else Erase(op.u, op.v);
  }
  void Insert(int u, int v) {
    index_[Key(u, v)] = edges_.size();
    edges_.push_back({u, v});
  }
  void Erase(int u, int v) {
    const size_t i = index_.at(Key(u, v));
    index_.erase(Key(u, v));
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      index_[Key(edges_[i].first, edges_[i].second)] = i;
    }
    edges_.pop_back();
  }
  std::mt19937_64 rng_;
  int n_;
  std::vector<std::pair<int, int>> edges_;
  std::unordered_map<uint64_t, size_t> index_;
  std::deque<ChurnOp> pending_;          // New mutations, oldest first.
  std::unordered_set<uint64_t> pinned_;  // Their edges.
};

std::string ChurnLine(const ChurnOp& op, int64_t id) {
  const std::string head = "{\"id\": " + std::to_string(id) + ", \"op\": ";
  switch (op.op) {
    case 0: return head + "\"add-edge\", \"u\": " + std::to_string(op.u) + ", \"v\": " + std::to_string(op.v) + "}";
    case 1: return head + "\"remove-edge\", \"u\": " + std::to_string(op.u) + ", \"v\": " + std::to_string(op.v) + "}";
    case 2: return head + "\"refresh\"}";
    default: return head + "\"rescore\", \"detector\": \"" + op.detector + "\"}";
  }
}

/// Read-only probes whose bytes must survive kill -9 + restart: every
/// detector's full ranking (all groups, all score bits) and a size-filtered
/// what-if, which match whatever the mutations did to the resident groups.
std::vector<std::string> Probes() {
  std::vector<std::string> p;
  for (int i = 0; i < kNumDetectors; ++i) {
    p.push_back("{\"id\": " + std::to_string(900000 + i) + ", \"op\": \"rescore\", \"top\": 100000, " +
                "\"detector\": \"" + kDetectors[i] + "\"}");
  }
  p.push_back("{\"id\": 900010, \"op\": \"what-if\", \"min_size\": 3, \"max_size\": 8, \"top\": 100000, "
              "\"detector\": \"lof\"}");
  return p;
}

/// Replays the session's op stream in-process through the same library
/// calls the daemon makes (apply, mark, WAL append, refresh, snapshot at the
/// cadence), spanning each; then times recovery on copies of the killed
/// state directory.
void ChurnLayers(Tracer* tr, const grgad::Dataset& d, const std::string& arts,
                 const std::vector<ChurnOp>& ops, const std::string& pass_dir,
                 const std::string& killed_copy) {
  const grgad::TpGrGadOptions options = PipelineOptions();
  grgad::PipelineArtifacts art = Must(grgad::LoadArtifacts(arts), "load artifacts");
  grgad::DynamicGraph dyn(d.graph);
  grgad::AnchorDirtyTracker tracker;
  tracker.Reset(art.anchors, grgad::InvalidationRadius(options.sampler), d.graph.num_nodes());
  grgad::RefreshState state;
  const std::string sd = pass_dir + "/replay_state";
  fs::create_directories(sd);
  auto wal = Must(grgad::WriteAheadLog::Open(sd + "/wal.log", kWalSyncEvery), "wal open");
  int mutations = 0;
  for (const ChurnOp& op : ops) {
    if (op.op <= 1) {
      const bool add = op.op == 0;
      int fanout = 0;
      if (!add) {
        Scope s(tr, "sampling.mark");
        fanout = tracker.MarkFromEdge(dyn, op.u, op.v);
        s.args = {{"fanout", static_cast<double>(fanout)}};
      }
      {
        Scope s(tr, "graph.apply_edge");
        if (!(add ? dyn.AddEdge(op.u, op.v) : dyn.RemoveEdge(op.u, op.v))) Die("replay: mutation not applied");
      }
      if (add) {
        Scope s(tr, "sampling.mark");
        fanout = tracker.MarkFromEdge(dyn, op.u, op.v);
        s.args = {{"fanout", static_cast<double>(fanout)}};
      }
      {
        const uint64_t f0 = wal->fsyncs();
        Scope s(tr, "serve.wal_append");
        grgad::GraphMutation m;
        m.kind = add ? grgad::GraphMutation::Kind::kAddEdge : grgad::GraphMutation::Kind::kRemoveEdge;
        m.u = op.u;
        m.v = op.v;
        Must(wal->Append(grgad::WalRecord::Kind::kMutation, m), "wal append");
        s.args = {{"fsyncs", static_cast<double>(wal->fsyncs() - f0)}};
      }
      if (++mutations % kSnapshotEvery == 0) {
        grgad::ServeStateSnapshot snap;
        snap.all_dirty = tracker.all_dirty();
        snap.dirty_anchor_indices = tracker.PeekDirtyIndices();
        snap.refresh_primed = state.primed;
        snap.refresh_per_anchor = state.per_anchor;
        Scope s(tr, "serve.snapshot_save");
        Must(grgad::SaveServeSnapshot(sd, dyn.PackedView(), art, snap, wal->last_seq()), "snapshot");
        Must(wal->ResetTo(wal->last_seq()), "wal reset");
      }
    } else if (op.op == 2) {
      grgad::RefreshStats stats;
      {
        Scope s(tr, "core.refresh");
        Must(grgad::RefreshArtifacts(dyn.PackedView(), options, tracker.TakeDirtyIndices(), &state, &art,
                                     nullptr, &stats),
             "refresh");
        s.args = {{"dirty", static_cast<double>(stats.dirty_anchors)},
                  {"reused", static_cast<double>(stats.reused_anchors)}};
      }
      Must(wal->Append(grgad::WalRecord::Kind::kRefresh), "wal append");
    }
  }
  for (int i = 0; i < kRestarts; ++i) {
    const std::string copy = pass_dir + "/recover_copy" + std::to_string(i);
    fs::copy(killed_copy, copy, fs::copy_options::recursive);
    grgad::LoadedServeSnapshot snap;
    {
      Scope s(tr, "serve.snapshot_load");
      snap = Must(grgad::LoadServeSnapshot(copy), "snapshot load");
    }
    grgad::ServeOptions so;
    so.pipeline = options;
    so.pipeline.serve_snapshot_every_mutations = kSnapshotEvery;
    so.pipeline.serve_wal_sync_every = kWalSyncEvery;
    so.state_dir = copy;
    std::unique_ptr<grgad::ServeDaemon> daemon;
    const int64_t span = tr->Begin("serve.recovery_replay");
    daemon = std::make_unique<grgad::ServeDaemon>(snap.graph, snap.artifacts, so);
    Must(daemon->EnableDurability(&snap), "enable durability");
    tr->End(span);
    if (auto m = grgad::ParseJsonText(daemon->MetricsJson()); m.ok()) {
      const grgad::JsonValue* dur = m.value().Find("durability");
      if (dur && dur->Find("replayed_records")) tr->AddArg(span, "replayed_records", dur->Find("replayed_records")->number);
    }
  }
}

// ---- the session -------------------------------------------------------------------

/// Reads every phase's responses against ServeDaemon::Execute of the same
/// request, in the same order, on a freshly loaded in-process daemon
/// (batched == sequential). A response is a pure function of the request
/// body and the resident state (which reads never change), so each
/// distinct body is executed once and its bytes reused for repeats. Returns
/// each request's verdict: 0 ok, 1 not ok, 2 mismatch, 3 lost. Traced, it
/// also spans each detector's RescoreArtifacts and Execute(rescore), and
/// the socket wait of every reference-phase request.
std::unordered_map<int64_t, int> VerifyReads(Tracer* tr, const grgad::Dataset& d,
                                             const grgad::PipelineArtifacts& art,
                                             const std::vector<Phase>& phases,
                                             std::vector<double>* queue_wait_s) {
  grgad::ServeOptions so;
  so.pipeline = PipelineOptions();
  so.max_queue = 1 << 16;
  grgad::ServeDaemon reference(d.graph, art, so);
  reference.Prewarm();
  // Traced only: both calls interleaved, so they see the same warm state.
  // Running them first also warms the reference daemon, so the execute
  // times below are steady-state.
  std::map<std::string, std::vector<double>> rescore_exec_s;
  for (int rep = 0; tr->on() && rep < 15; ++rep) {
    for (int i = 0; i < kNumDetectors; ++i) {
      grgad::DetectorKind kind;
      grgad::ParseDetectorKind(kDetectors[i], &kind);
      {
        Scope s(tr, std::string("od.rescore.") + kDetectors[i]);
        Must(grgad::RescoreArtifacts(art, kind, art.seed), "rescore");
      }
      const std::string body = std::string("\"op\": \"rescore\", \"detector\": \"") + kDetectors[i] + "\"}";
      auto req = Must(grgad::ParseServeRequest("{\"id\": 0, " + body), "parse");
      const double t0 = Now();
      {
        Scope s(tr, std::string("serve.execute.rescore.") + kDetectors[i]);
        reference.Execute(req);
      }
      rescore_exec_s[body].push_back(Now() - t0);
    }
  }

  std::unordered_map<std::string, std::string> memo;
  std::unordered_map<std::string, double> exec_s;
  std::unordered_map<int64_t, int> verdict;
  for (const Phase& phase : phases) {
    for (const Sent& s : phase.reqs) {
      auto it = memo.find(s.req.body);
      if (it == memo.end()) {
        auto req = Must(grgad::ParseServeRequest("{\"id\": 0, " + s.req.body), "parse");
        const double t0 = Now();
        {
          Scope sp(tr, s.req.op == 0 ? "serve.verify.rescore" : "serve.execute.what-if", s.id);
          it = memo.emplace(s.req.body, reference.Execute(req)).first;
        }
        exec_s[s.req.body] = rescore_exec_s.count(s.req.body) ? Median(rescore_exec_s[s.req.body]) : Now() - t0;
      }
      const std::string expected = "{\"id\": " + std::to_string(s.id) +
                                   it->second.substr(std::strlen("{\"id\": 0"));
      verdict[s.id] = s.recv < 0               ? 3
                      : s.response != expected ? 2
                      : !IsOk(s.response)      ? 1
                                               : 0;
    }
  }
  // Socket wait of reference-phase requests: socket latency minus the
  // request's steady-state execute time.
  for (const Phase& phase : phases) {
    if (!tr->on() || phase.kind != "reference") continue;
    for (const Sent& s : phase.reqs) {
      tr->Add("serve.request", s.send, s.recv, s.id);
      queue_wait_s->push_back(s.recv - s.send - exec_s[s.req.body]);
    }
  }
  return verdict;
}

/// One pass of the session on the workload's dataset.
std::string SessionPass(const Args& a, Tracer* tr, const std::string& dir) {
  const std::string& dataset = a.workload;
  // Set-up: dataset builds. The traced pass builds once, for its span.
  std::vector<double> setup;
  grgad::Dataset d;
  for (int i = 0; i < (tr->on() ? 1 : kSetups); ++i) {
    const double t0 = Now();
    d = BuildDataset(tr, dataset);
    setup.push_back(Now() - t0);
  }

  // Training: one full pipeline run, whose artifacts the daemon serves.
  const grgad::TpGrGadOptions options = PipelineOptions();
  const double t0 = Now();
  const grgad::PipelineArtifacts trained = Train(tr, d, options);
  const double run_s = Now() - t0;
  const grgad::GroupEvaluation ev = grgad::EvaluateGroups(d, trained.scored_groups);
  std::vector<std::string> groups, bits;
  for (const auto& g : trained.candidate_groups) {
    groups.push_back(Arr(std::vector<double>(g.begin(), g.end())));
  }
  for (double s : trained.group_scores) bits.push_back("\"" + Hex64(DoubleBits(s)) + "\"");
  const std::string arts = dir + "/artifacts";
  Must(grgad::SaveArtifacts(trained, arts), "save artifacts");
  const grgad::PipelineArtifacts art = Must(grgad::LoadArtifacts(arts), "load artifacts");

  const std::string sock = dir + "/s.sock";
  const std::string log = dir + "/daemon.log";
  const std::string sd = dir + "/state";
  const auto argv = ServeArgv(a, arts, sock, sd);
  std::unique_ptr<Child> child;
  std::unique_ptr<Conn> conn;
  Boot(&child, &conn, argv, sock, log);

  // Reads: a closed-loop warm-up (the first rescores after boot run at
  // about three times their steady-state cost), then an open loop at the
  // fixed reference rate.
  ReadGen reads(a.seed, art);
  int64_t next_id = 1;
  std::vector<Phase> phases;
  for (const auto& [kind, rate, n] :
       {std::tuple<std::string, double, size_t>{"warmup", 0, kWarmupReads},
        {"reference", kReferenceRps, std::max(kMinReads, static_cast<size_t>(a.seconds * 2 / 3 * kReferenceRps))}}) {
    Phase p{kind, rate, std::vector<Sent>(n)};
    for (Sent& s : p.reqs) {
      s.id = next_id++;
      s.req = reads.Next(s.id);
    }
    RunPhase(conn.get(), &p);
    phases.push_back(std::move(p));
  }
  const std::string stats = conn->Call("{\"id\": 0, \"op\": \"stats\"}");
  double batch_mean = 0, peak_depth = 0;
  if (auto parsed = grgad::ParseJsonText(stats); parsed.ok()) {
    const grgad::JsonValue* m = parsed.value().Find("metrics");
    if (m && m->Find("batches") && m->Find("batches")->Find("mean_size"))
      batch_mean = m->Find("batches")->Find("mean_size")->number;
    if (m && m->Find("queue") && m->Find("queue")->Find("peak_depth"))
      peak_depth = m->Find("queue")->Find("peak_depth")->number;
  }

  // Churn: closed loop, one client, rounds of 8 writes, a refresh and a
  // rescore. It ends half-way between two snapshots, so every restart
  // replays the same length of WAL tail.
  constexpr int kRoundsPerSnapshot = kSnapshotEvery / 8;
  const int rounds = std::max(kMinRounds, static_cast<int>(a.seconds / 3 * kRoundsPerSecond)) /
                         kRoundsPerSnapshot * kRoundsPerSnapshot +
                     kRoundsPerSnapshot / 2;
  ChurnGen churn(a.seed, d.graph);
  std::vector<ChurnOp> ops;
  std::vector<std::string> rows;
  const double start = Now();
  for (int i = 0; i < 10 * rounds; ++i) {
    ops.push_back(churn.Next(i));
    const double c0 = Now();
    const std::string r = conn->Call(ChurnLine(ops.back(), next_id++));
    const double lat = Now() - c0;
    int status = r.empty() ? 3 : !IsOk(r) ? 1 : 0;
    if (status == 0 && ops.back().op <= 1 && r.find("\"applied\": true") == std::string::npos) status = 2;
    rows.push_back("[" + std::to_string(ops.back().op) + ", " + Num(lat) + ", " + std::to_string(status) + "]");
  }
  const double session_s = Now() - start;

  // kill -9, then restart from the state directory; probes must answer
  // byte-identically before the kill and after every restart.
  const std::vector<std::string> probes = Probes();
  std::vector<std::string> before;
  for (const std::string& p : probes) before.push_back(conn->Call(p));
  std::vector<double> recover;
  double daemon_rss = 0, probe_mismatches = 0, probes_sent = 0;
  const std::string killed_copy = dir + "/killed_state";
  for (int i = 0; i < kRestarts; ++i) {
    if (i == 0) daemon_rss = child->PeakRssKb();
    const double t_kill = Now();
    child->Kill9();
    child->Reap();
    const double reaped = Now() - t_kill;
    conn.reset();
    child.reset();
    if (i == 0 && tr->on()) fs::copy(sd, killed_copy, fs::copy_options::recursive);
    recover.push_back(reaped + Boot(&child, &conn, argv, sock, log));
    for (size_t p = 0; p < probes.size(); ++p) {
      ++probes_sent;
      if (conn->Call(probes[p]) != before[p] || !IsOk(before[p])) ++probe_mismatches;
    }
  }
  child->Kill9();
  child->Reap();
  conn.reset();
  child.reset();

  std::vector<double> queue_wait_s;
  const auto verdict = VerifyReads(tr, d, art, phases, &queue_wait_s);
  std::vector<std::string> phase_json;
  for (const Phase& phase : phases) phase_json.push_back(PhaseJson(phase, verdict));
  if (tr->on()) ChurnLayers(tr, d, arts, ops, dir, killed_copy);

  return Obj()
      .Put("setup_s", Arr(setup))
      .Put("run_s", run_s)
      .Put("cr", ev.cr)
      .Put("auc", ev.auc)
      .Put("groups", ArrRaw(groups))
      .Put("score_bits", ArrRaw(bits))
      .Put("epochs", options.tpgcl.epochs)
      .Put("phases", ArrRaw(phase_json))
      .Put("batch_mean_size", batch_mean)
      .Put("queue_peak_depth", peak_depth)
      .Put("queue_wait_s", Arr(queue_wait_s))
      .Put("churn", ArrRaw(rows))
      .Put("session_s", session_s)
      .Put("recover_s", Arr(recover))
      .Put("probes", probes_sent)
      .Put("probe_mismatches", probe_mismatches)
      .Put("peak_rss_kb", daemon_rss)
      .Done();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: perfbench_runner WORKLOAD --seed N --seconds S --trace 0|1 --grgad PATH --work DIR --out FILE");
  a.workload = argv[1];
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) == std::end(kWorkloads)) {
    Die("unknown workload " + a.workload);
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--grgad") a.grgad = v;
    else if (k == "--work") a.work = v;
    else if (k == "--out") a.out = v;
    else Die("unknown flag " + k);
  }
  if (a.work.empty() || a.out.empty()) Die("--work and --out are required");
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> passes;
  Tracer traced(true);
  for (int pass = 0; pass < (a.trace ? 2 : 1); ++pass) {
    Tracer untraced(false);
    const std::string dir = a.work + "/pass" + std::to_string(pass);
    fs::create_directories(dir);
    passes.push_back(SessionPass(a, pass == 0 ? &untraced : &traced, dir));
  }
  std::string trace_path;
  if (a.trace) {
    trace_path = a.work + "/trace.json";
    traced.Write(trace_path);
  }
#if defined(__AVX512F__)
  const char* isa = "avx512f";
#elif defined(__AVX2__)
  const char* isa = "avx2";
#else
  const char* isa = "baseline";
#endif
  std::ofstream out(a.out, std::ios::trunc);
  out << Obj()
             .Str("workload", a.workload)
             .Str("isa", isa)
             .Str("trace_file", trace_path)
             .Put("passes", ArrRaw(passes))
             .Done()
      << "\n";
  if (!out.flush()) Die("cannot write " + a.out);
  return 0;
}

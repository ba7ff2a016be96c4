// grgad — the serving-facing command-line front door.
//
//   grgad list
//       Datasets, methods (with their option keys), and detectors.
//   grgad run --dataset=simml --method=tp-grgad --detector=ecod
//             --set tpgcl.epochs=30 --out artifacts/ [--json results.json]
//       Builds the dataset and method by name, runs the pipeline with a
//       RunContext (Ctrl-C cancels cooperatively; per-stage wall times are
//       reported), evaluates against ground truth, writes a JSON result,
//       and persists every pipeline artifact under --out.
//   grgad rescore --in artifacts/ --detector=ensemble [--out artifacts2/]
//       Reloads saved artifacts and re-runs ONLY the scoring stage with a
//       different outlier detector — no re-training.
//   grgad serve --dataset=example [--in artifacts/] [--socket PATH]
//               [--state-dir state/]
//       Resident daemon: loads the dataset (and artifacts, or trains them)
//       once, then answers newline-delimited JSON requests — anchor-score /
//       rescore / what-if / stats / shutdown, plus the live-mutation ops
//       add-edge / remove-edge / refresh / compact / sync / snapshot — over
//       a unix socket or stdin/stdout, batching queued requests per tick.
//       --state-dir adds durability: applied mutations hit a checksummed
//       WAL before the ack, snapshots truncate it, and a restart (clean or
//       kill -9) recovers to the exact acked state. SIGTERM drains
//       in-flight requests and exits 0.
//   grgad query --socket PATH 'JSON' ['JSON' ...]
//       One-shot client for the daemon (retries the connect until the
//       daemon accepts or the window expires — exit 124 — then writes the
//       request lines and prints one response line each).
//
// All configuration is string-keyed through the method registry, so this
// binary needs no per-method flag wiring.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/artifacts.h"
#include "src/core/evaluation.h"
#include "src/core/method_registry.h"
#include "src/core/pipeline.h"
#include "src/core/stages.h"
#include "src/data/registry.h"
#include "src/od/detector.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/serve/wal.h"
#include "src/util/fault.h"
#include "src/util/parallel.h"
#include "src/util/retry.h"
#include "src/util/timer.h"
#include "src/util/transport.h"

namespace grgad {
namespace {

// ---- SIGINT/SIGTERM -> cooperative cancellation -----------------------------

// The token outlives any run; the handler only flips an atomic.
CancelToken* GlobalCancelToken() {
  static CancelToken token;
  return &token;
}

void HandleStopSignal(int) { GlobalCancelToken()->RequestCancel(); }

/// Installs (or restores) the cooperative stop handler for both SIGINT and
/// SIGTERM — a supervisor's TERM should unwind exactly like Ctrl-C.
void HookStopSignals(bool install) {
  std::signal(SIGINT, install ? HandleStopSignal : SIG_DFL);
  std::signal(SIGTERM, install ? HandleStopSignal : SIG_DFL);
}

// ---- tiny JSON writer -------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // Bare nan/inf is invalid JSON.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Appends one `"key": value` JSON member (value pre-rendered).
void JsonField(std::string* out, const char* key, const std::string& value,
               bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += "\"";
  *out += key;
  *out += "\": ";
  *out += value;
}

std::string JsonString(const std::string& s) {
  return "\"" + JsonEscapeText(s) + "\"";
}

// ---- argument parsing -------------------------------------------------------

struct Args {
  std::string command;
  std::string dataset;
  std::string method = "tp-grgad";
  std::string detector;
  std::string out_dir;
  std::string in_dir;
  std::string json_path;
  uint64_t seed = 42;
  bool seed_set = false;  // Rescore defaults to the artifacts' seed.
  uint64_t data_seed = 42;
  double scale = 1.0;
  int attr_dim = 0;
  int threads = 0;  // 0 = GRGAD_THREADS / hardware default.
  double timeout = 0.0;  // Seconds; 0 = no deadline.
  std::string inject;    // Fault-injection spec (same syntax as GRGAD_FAULTS).
  bool quiet = false;
  bool profile = false;
  std::vector<std::string> overrides;
  // serve / query:
  std::string socket_path;         // Unix socket; serve defaults to stdio.
  int max_queue = 64;              // serve: admission-queue bound.
  std::string metrics_out;         // serve: metrics JSON dump at exit.
  std::string state_dir;           // serve: durable state (WAL + snapshots).
  double wait = 15.0;              // query: daemon connect window (seconds).
  std::vector<std::string> requests;  // query: positional request lines.
};

/// Matches "--name=value" or "--name value" (value from the next argv slot,
/// advancing *i). Returns false when `arg` is a different flag.
bool ParseFlag(int argc, char** argv, int* i, const char* name,
               std::string* value) {
  const std::string arg = argv[*i];
  const std::string flag = std::string("--") + name;
  if (arg.rfind(flag + "=", 0) == 0) {
    *value = arg.substr(flag.size() + 1);
    return true;
  }
  if (arg == flag && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

bool ParseIntValue(const std::string& value, int* out) {
  uint64_t parsed = 0;
  if (!ParseUint64Text(value, &parsed) || parsed > 1000000) return false;
  *out = static_cast<int>(parsed);
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  if (argc < 2) {
    *error = "missing command";
    return false;
  }
  args->command = argv[1];
  std::string value;
  for (int i = 2; i < argc; ++i) {
    if (ParseFlag(argc, argv, &i, "dataset", &args->dataset)) continue;
    if (ParseFlag(argc, argv, &i, "method", &args->method)) continue;
    if (ParseFlag(argc, argv, &i, "detector", &args->detector)) continue;
    if (ParseFlag(argc, argv, &i, "out", &args->out_dir)) continue;
    if (ParseFlag(argc, argv, &i, "in", &args->in_dir)) continue;
    if (ParseFlag(argc, argv, &i, "json", &args->json_path)) continue;
    if (ParseFlag(argc, argv, &i, "seed", &value)) {
      if (!ParseUint64Text(value, &args->seed)) {
        *error = "--seed: cannot parse '" + value + "'";
        return false;
      }
      args->seed_set = true;
      continue;
    }
    if (ParseFlag(argc, argv, &i, "data-seed", &value)) {
      if (!ParseUint64Text(value, &args->data_seed)) {
        *error = "--data-seed: cannot parse '" + value + "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "scale", &value)) {
      if (!ParseDoubleText(value, &args->scale) || args->scale <= 0.0) {
        *error = "--scale: cannot parse '" + value + "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "attr-dim", &value)) {
      if (!ParseIntValue(value, &args->attr_dim)) {
        *error = "--attr-dim: cannot parse '" + value + "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "threads", &value)) {
      if (!ParseIntValue(value, &args->threads) || args->threads < 1 ||
          args->threads > 4096) {
        *error = "--threads: expected an integer in [1, 4096], got '" +
                 value + "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "timeout", &value)) {
      if (!ParseDoubleText(value, &args->timeout) || args->timeout <= 0.0) {
        *error = "--timeout: expected a positive number of seconds, got '" +
                 value + "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "inject", &args->inject)) continue;
    if (std::string(argv[i]) == "--quiet") {
      args->quiet = true;
      continue;
    }
    if (std::string(argv[i]) == "--profile") {
      args->profile = true;
      continue;
    }
    if (ParseFlag(argc, argv, &i, "set", &value)) {
      args->overrides.push_back(value);
      continue;
    }
    if (ParseFlag(argc, argv, &i, "socket", &args->socket_path)) continue;
    if (ParseFlag(argc, argv, &i, "metrics-out", &args->metrics_out)) continue;
    if (ParseFlag(argc, argv, &i, "state-dir", &args->state_dir)) continue;
    if (ParseFlag(argc, argv, &i, "max-queue", &value)) {
      if (!ParseIntValue(value, &args->max_queue) || args->max_queue < 1) {
        *error = "--max-queue: expected a positive integer, got '" + value +
                 "'";
        return false;
      }
      continue;
    }
    if (ParseFlag(argc, argv, &i, "wait", &value)) {
      if (!ParseDoubleText(value, &args->wait) || args->wait <= 0.0) {
        *error = "--wait: expected a positive number of seconds, got '" +
                 value + "'";
        return false;
      }
      continue;
    }
    if (argv[i][0] != '-') {
      // Positional operands: `grgad query` request lines (rejected by every
      // other command in Main).
      args->requests.push_back(argv[i]);
      continue;
    }
    *error = std::string("unknown flag: ") + argv[i];
    return false;
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "grgad — topology-pattern-enhanced group-level graph anomaly "
      "detection\n\n"
      "usage:\n"
      "  grgad list\n"
      "      Print available datasets, methods (+ option keys), and "
      "detectors.\n"
      "  grgad run --dataset=NAME [--method=tp-grgad] [--detector=ecod]\n"
      "            [--seed=42] [--set key=value ...] [--out DIR]\n"
      "            [--json PATH] [--data-seed=42] [--scale=1.0]\n"
      "            [--attr-dim=0] [--threads=N] [--timeout=SECONDS]\n"
      "            [--inject SPEC] [--quiet] [--profile]\n"
      "      Run a method end to end; --out persists the pipeline "
      "artifacts.\n"
      "  grgad rescore --in DIR --detector=KIND [--seed=42] [--out DIR]\n"
      "                [--json PATH] [--threads=N] [--timeout=SECONDS]\n"
      "                [--quiet] [--profile]\n"
      "      Re-score saved artifacts with a different detector — no "
      "re-training.\n"
      "  grgad serve --dataset=NAME [--in DIR] [--socket PATH]\n"
      "              [--detector=ecod] [--seed=42] [--set key=value ...]\n"
      "              [--max-queue=64] [--timeout=SECONDS]\n"
      "              [--metrics-out PATH] [--state-dir DIR] [--threads=N]\n"
      "              [--quiet]\n"
      "      Resident daemon over newline-delimited JSON. Loads the "
      "dataset\n"
      "      once, loads --in artifacts (or trains them), prewarms "
      "workspace\n"
      "      pools (--set serve.prewarm_workspaces=N), then batches\n"
      "      anchor-score / rescore / what-if / stats / shutdown plus the\n"
      "      live-mutation ops add-edge / remove-edge / refresh / compact\n"
      "      (dirty-anchor incremental refresh over a mutable CSR).\n"
      "      --socket listens on a unix socket (accepting one client after\n"
      "      another); without it the session runs on stdin/stdout. "
      "--timeout\n"
      "      is the default per-request deadline; SIGTERM drains and exits "
      "0.\n"
      "      --state-dir DIR makes the daemon durable: every applied "
      "mutation\n"
      "      is written to a checksummed write-ahead log before it is "
      "acked\n"
      "      (fsync batching via --set serve.wal_sync_every=N), snapshots\n"
      "      compact the log (--set serve.snapshot_every_mutations=N, plus\n"
      "      the explicit sync/snapshot ops), and a restart — even after\n"
      "      kill -9 — replays the WAL tail and resumes bitwise-identical.\n"
      "  grgad query --socket PATH [--wait 15] [--timeout SECONDS]\n"
      "              'JSON' ['JSON' ...]\n"
      "      Client for serve: retries the connect with seeded backoff "
      "until\n"
      "      the daemon accepts or the window (--timeout, else --wait)\n"
      "      expires — exit 124 on expiry — then sends each request line "
      "and\n"
      "      prints one response line per request.\n\n"
      "--timeout=SECONDS arms a run deadline polled at every stage\n"
      "boundary, training epoch, and anchor chunk; an expired deadline\n"
      "unwinds cleanly and exits with code 124 (timeout(1) convention).\n"
      "--inject SPEC enables the deterministic fault-injection harness\n"
      "(same syntax as the GRGAD_FAULTS environment variable, e.g.\n"
      "'seed=7,rate=0.02' or 'seed=7,artifact/write=1.0').\n"
      "--profile adds fine-grained sub-stage wall times (e.g. the\n"
      "candidate stage's candidates/search|components|select phases, the\n"
      "scoring stage's neighbor-index build vs detector time) to the JSON\n"
      "result's stage_timings.\n"
      "--threads=N sets the worker-pool parallelism degree explicitly\n"
      "(equivalent to the GRGAD_THREADS environment variable, which it\n"
      "overrides); results are bitwise identical at any degree.\n"
      "Ctrl-C or SIGTERM cancels a running pipeline cooperatively (exit\n"
      "code 130).\n");
}

int CmdList() {
  std::printf("datasets:\n");
  for (const std::string& name : ListDatasets()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("\nmethods (configure with --set key=value):\n");
  for (const std::string& name : ListMethods()) {
    std::printf("  %s\n", name.c_str());
    auto keys = MethodOptionKeys(name);
    if (keys.ok()) {
      std::string line = "    ";
      for (const std::string& key : keys.value()) {
        if (line.size() + key.size() > 78) {
          std::printf("%s\n", line.c_str());
          line = "    ";
        }
        line += key + " ";
      }
      std::printf("%s\n", line.c_str());
    }
  }
  std::printf("\ndetectors (--detector=...):\n");
  for (DetectorKind kind : AllDetectorKinds()) {
    std::printf("  %s\n", DetectorKindName(kind));
  }
  return 0;
}

/// Renders { "nodes": [...], "score": s } rows for the top `limit` groups.
std::string TopGroupsJson(std::vector<ScoredGroup> groups, size_t limit) {
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) {
                     return a.score > b.score;
                   });
  std::string out = "[";
  for (size_t i = 0; i < groups.size() && i < limit; ++i) {
    if (i) out += ", ";
    out += "{\"score\": " + JsonNumber(groups[i].score) + ", \"nodes\": [";
    for (size_t k = 0; k < groups[i].nodes.size(); ++k) {
      if (k) out += ", ";
      out += std::to_string(groups[i].nodes[k]);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

std::string TimingsJson(const RunContext& ctx) {
  std::string out = "[";
  bool first_timing = true;
  for (const StageTiming& t : ctx.stage_timings()) {
    if (!first_timing) out += ", ";
    first_timing = false;
    out += "{\"stage\": " + JsonString(t.stage) +
           ", \"seconds\": " + JsonNumber(t.seconds) + "}";
  }
  out += "]";
  return out;
}

std::string EvaluationJson(const GroupEvaluation& eval) {
  std::string out = "{";
  bool first = true;
  JsonField(&out, "cr", JsonNumber(eval.cr), &first);
  JsonField(&out, "f1", JsonNumber(eval.f1), &first);
  JsonField(&out, "auc", JsonNumber(eval.auc), &first);
  JsonField(&out, "avg_predicted_size", JsonNumber(eval.avg_predicted_size),
            &first);
  JsonField(&out, "num_candidates", std::to_string(eval.num_candidates),
            &first);
  JsonField(&out, "num_predicted_anomalous",
            std::to_string(eval.num_predicted_anomalous), &first);
  out += "}";
  return out;
}

int EmitJson(const Args& args, const std::string& json) {
  if (args.json_path.empty() || args.json_path == "-") {
    std::printf("%s\n", json.c_str());
    return 0;
  }
  std::ofstream out(args.json_path, std::ios::trunc);
  out << json << "\n";
  if (!out.flush()) {
    std::fprintf(stderr, "error: cannot write %s\n", args.json_path.c_str());
    return 1;
  }
  if (!args.quiet) std::printf("wrote %s\n", args.json_path.c_str());
  return 0;
}

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded: return 124;  // timeout(1) convention.
    case StatusCode::kCancelled: return 130;         // 128 + SIGINT.
    default: return 1;
  }
}

/// Reports a failed command: stderr always; with --json also a machine-
/// readable error object so callers never have to parse stderr.
int FailWith(const Args& args, const char* command, const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  if (!args.json_path.empty()) {
    std::string json = "{";
    bool first = true;
    JsonField(&json, "command", JsonString(command), &first);
    JsonField(&json, "status", JsonString(StatusCodeName(status.code())),
              &first);
    JsonField(&json, "error", JsonString(status.message()), &first);
    json += "}";
    EmitJson(args, json);
  }
  return ExitCodeFor(status);
}

int CmdRun(const Args& args) {
  if (args.dataset.empty()) {
    std::fprintf(stderr, "error: run requires --dataset=NAME\n");
    return 2;
  }
  DatasetOptions data_options;
  data_options.seed = args.data_seed;
  data_options.scale = args.scale;
  data_options.attr_dim = args.attr_dim;
  // Transient loader failures (kIoError) retry with capped backoff;
  // anything else surfaces immediately.
  Retryer dataset_retryer{RetryPolicy{}};
  auto dataset = dataset_retryer.RunResult<Dataset>(
      [&] { return MakeDataset(args.dataset, data_options); });
  if (!dataset.ok()) return FailWith(args, "run", dataset.status());
  const Dataset& d = dataset.value();
  if (!args.quiet) {
    std::fprintf(stderr, "dataset %s: %d nodes / %d edges / %zu-d attrs\n",
                 args.dataset.c_str(), d.graph.num_nodes(),
                 d.graph.num_edges(), d.graph.attr_dim());
  }

  MethodOptions method_options;
  method_options.seed = args.seed;
  method_options.overrides = args.overrides;
  if (!args.detector.empty()) {
    // --detector is sugar for --set detector=... (tp-grgad only).
    method_options.overrides.push_back("detector=" + args.detector);
  }

  RunContext ctx;
  ctx.profile = args.profile;
  if (args.timeout > 0.0) ctx.SetDeadlineAfter(args.timeout);
  if (!args.quiet) {
    ctx.on_progress = [](const StageEvent& event) {
      if (event.finished) {
        std::fprintf(stderr, "stage %-10s done in %.2fs\n",
                     event.stage.c_str(), event.seconds);
      } else {
        std::fprintf(stderr, "stage %-10s ...\n", event.stage.c_str());
      }
    };
  }

  PipelineArtifacts artifacts;
  std::vector<ScoredGroup> scored;
  Timer total_timer;
  if (args.method == "tp-grgad") {
    auto options = BuildTpGrGadOptions(args.seed, method_options.overrides);
    if (!options.ok()) return FailWith(args, "run", options.status());
    // Only the stage pipeline polls the stop token; the baseline methods
    // below keep the default SIGINT/SIGTERM disposition (terminate) instead
    // of a handler that would silently eat the signal.
    *GlobalCancelToken() = ctx.cancel_token();
    HookStopSignals(true);
    auto result = TpGrGad(options.value()).TryRun(d.graph, &ctx);
    HookStopSignals(false);  // Nothing polls the token past here.
    if (!result.ok()) return FailWith(args, "run", result.status());
    artifacts = std::move(result).value();
    scored = artifacts.scored_groups;
  } else {
    if (!args.detector.empty()) {
      std::fprintf(stderr,
                   "error: --detector only applies to --method=tp-grgad\n");
      return 2;
    }
    auto method = MakeGroupDetector(args.method, method_options);
    if (!method.ok()) return FailWith(args, "run", method.status());
    scored = method.value()->DetectGroups(d.graph);
    artifacts.seed = args.seed;
    artifacts.scored_groups = scored;
    for (const ScoredGroup& sg : scored) {
      artifacts.candidate_groups.push_back(sg.nodes);
      artifacts.group_scores.push_back(sg.score);
    }
  }
  const double total_seconds = total_timer.ElapsedSeconds();

  if (!args.out_dir.empty()) {
    Retryer save_retryer{RetryPolicy{}};
    const Status saved = save_retryer.Run(
        [&] { return SaveArtifacts(artifacts, args.out_dir); });
    if (!saved.ok()) return FailWith(args, "run", saved);
    if (!args.quiet) {
      std::fprintf(stderr, "artifacts -> %s\n", args.out_dir.c_str());
    }
  }

  const GroupEvaluation eval = EvaluateGroups(d, scored);
  std::string json = "{";
  bool first = true;
  JsonField(&json, "command", JsonString("run"), &first);
  JsonField(&json, "status", JsonString("ok"), &first);
  JsonField(&json, "dataset", JsonString(args.dataset), &first);
  JsonField(&json, "method", JsonString(args.method), &first);
  JsonField(&json, "seed", std::to_string(args.seed), &first);
  JsonField(&json, "num_anchors", std::to_string(artifacts.anchors.size()),
            &first);
  JsonField(&json, "num_groups",
            std::to_string(artifacts.candidate_groups.size()), &first);
  JsonField(&json, "seconds", JsonNumber(total_seconds), &first);
  JsonField(&json, "profile", args.profile ? "true" : "false", &first);
  JsonField(&json, "stage_timings", TimingsJson(ctx), &first);
  JsonField(&json, "evaluation", EvaluationJson(eval), &first);
  JsonField(&json, "top_groups", TopGroupsJson(scored, 5), &first);
  json += "}";
  return EmitJson(args, json);
}

int CmdRescore(const Args& args) {
  if (args.in_dir.empty() || args.detector.empty()) {
    std::fprintf(stderr,
                 "error: rescore requires --in=DIR and --detector=KIND\n");
    return 2;
  }
  DetectorKind kind;
  if (!ParseDetectorKind(args.detector, &kind)) {
    std::fprintf(stderr, "error: unknown detector '%s'\n",
                 args.detector.c_str());
    return 2;
  }
  // Transient read failures retry; corruption (kDataLoss) surfaces
  // immediately. NotFound also retries (ArtifactLoadRetryable): a writer
  // committing a concurrent save renames the directory away for an instant,
  // and treating that blip as fatal made rescore flaky next to a running
  // `grgad run --out` on the same directory.
  Retryer load_retryer{RetryPolicy{}};
  load_retryer.set_retryable(ArtifactLoadRetryable);
  auto loaded = load_retryer.RunResult<PipelineArtifacts>(
      [&] { return LoadArtifacts(args.in_dir); });
  if (!loaded.ok()) return FailWith(args, "rescore", loaded.status());
  PipelineArtifacts artifacts = std::move(loaded).value();
  // Default to the seed recorded at run time so detector seeding matches a
  // full run with this detector bit-for-bit; --seed overrides.
  const uint64_t seed = args.seed_set ? args.seed : artifacts.seed;

  RunContext ctx;
  ctx.profile = args.profile;
  if (args.timeout > 0.0) ctx.SetDeadlineAfter(args.timeout);
  *GlobalCancelToken() = ctx.cancel_token();
  HookStopSignals(true);
  auto rescored = RescoreArtifacts(artifacts, kind, seed, &ctx);
  HookStopSignals(false);
  if (!rescored.ok()) return FailWith(args, "rescore", rescored.status());
  artifacts.seed = seed;  // Keep a --out manifest true to these scores.
  artifacts.group_scores = rescored.value().scores;
  artifacts.scored_groups = rescored.value().scored_groups;

  if (!args.out_dir.empty()) {
    Retryer save_retryer{RetryPolicy{}};
    const Status saved = save_retryer.Run(
        [&] { return SaveArtifacts(artifacts, args.out_dir); });
    if (!saved.ok()) return FailWith(args, "rescore", saved);
    if (!args.quiet) {
      std::fprintf(stderr, "artifacts -> %s\n", args.out_dir.c_str());
    }
  }

  std::string json = "{";
  bool first = true;
  JsonField(&json, "command", JsonString("rescore"), &first);
  JsonField(&json, "status", JsonString("ok"), &first);
  JsonField(&json, "in", JsonString(args.in_dir), &first);
  JsonField(&json, "detector", JsonString(args.detector), &first);
  JsonField(&json, "num_groups",
            std::to_string(artifacts.candidate_groups.size()), &first);
  JsonField(&json, "profile", args.profile ? "true" : "false", &first);
  JsonField(&json, "stage_timings", TimingsJson(ctx), &first);
  JsonField(&json, "top_groups", TopGroupsJson(artifacts.scored_groups, 5),
            &first);
  json += "}";
  return EmitJson(args, json);
}

int CmdServe(const Args& args) {
  if (args.dataset.empty()) {
    std::fprintf(stderr, "error: serve requires --dataset=NAME\n");
    return 2;
  }
  // A client that disconnects mid-response must surface as a write error on
  // that response, never kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  DatasetOptions data_options;
  data_options.seed = args.data_seed;
  data_options.scale = args.scale;
  data_options.attr_dim = args.attr_dim;
  Retryer dataset_retryer{RetryPolicy{}};
  auto dataset = dataset_retryer.RunResult<Dataset>(
      [&] { return MakeDataset(args.dataset, data_options); });
  if (!dataset.ok()) return FailWith(args, "serve", dataset.status());
  const Dataset& d = dataset.value();

  std::vector<std::string> overrides = args.overrides;
  if (!args.detector.empty()) {
    overrides.push_back("detector=" + args.detector);
  }
  auto options = BuildTpGrGadOptions(args.seed, overrides);
  if (!options.ok()) return FailWith(args, "serve", options.status());

  // Startup stop plumbing: a SIGTERM during the (possibly long) initial
  // training unwinds exactly like `grgad run` — cooperatively, exit 130.
  RunContext startup_ctx;
  *GlobalCancelToken() = startup_ctx.cancel_token();
  HookStopSignals(true);

  // Durable restart: a committed snapshot under --state-dir supersedes both
  // --in and training — the daemon resumes from the mutated graph + resident
  // artifacts it last persisted (plus the WAL tail, replayed after
  // construction). `snapshot` must outlive `daemon`, which borrows its graph.
  std::unique_ptr<LoadedServeSnapshot> snapshot;
  if (!args.state_dir.empty()) {
    auto loaded = LoadServeSnapshot(args.state_dir);
    if (loaded.ok()) {
      snapshot =
          std::make_unique<LoadedServeSnapshot>(std::move(loaded).value());
      if (!args.quiet) {
        std::fprintf(stderr,
                     "serve: recovered snapshot <- %s (wal_seq=%llu, %zu "
                     "groups)\n",
                     args.state_dir.c_str(),
                     static_cast<unsigned long long>(snapshot->wal_seq),
                     snapshot->artifacts.candidate_groups.size());
      }
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // A torn or corrupt snapshot is typed DataLoss — refuse to serve from
      // it rather than silently retraining over surviving durable state.
      HookStopSignals(false);
      return FailWith(args, "serve", loaded.status());
    }
  }

  PipelineArtifacts artifacts;
  if (snapshot != nullptr) {
    artifacts = std::move(snapshot->artifacts);
  } else if (!args.in_dir.empty()) {
    Retryer load_retryer{RetryPolicy{}};
    load_retryer.set_retryable(ArtifactLoadRetryable);
    auto loaded = load_retryer.RunResult<PipelineArtifacts>(
        [&] { return LoadArtifacts(args.in_dir); });
    if (!loaded.ok()) {
      HookStopSignals(false);
      return FailWith(args, "serve", loaded.status());
    }
    artifacts = std::move(loaded).value();
    if (!args.quiet) {
      std::fprintf(stderr, "serve: artifacts <- %s (%zu groups)\n",
                   args.in_dir.c_str(), artifacts.candidate_groups.size());
    }
  } else {
    if (!args.quiet) {
      std::fprintf(stderr, "serve: training resident artifacts...\n");
    }
    auto trained = RunPipeline(d.graph, options.value(), &startup_ctx);
    if (!trained.ok()) {
      HookStopSignals(false);
      return FailWith(args, "serve", trained.status());
    }
    artifacts = std::move(trained).value();
  }

  ServeOptions serve_options;
  serve_options.pipeline = options.value();
  serve_options.max_queue = static_cast<size_t>(args.max_queue);
  serve_options.default_timeout_seconds = args.timeout;
  serve_options.state_dir = args.state_dir;
  ServeDaemon daemon(snapshot != nullptr ? snapshot->graph : d.graph,
                     std::move(artifacts), serve_options);
  if (!args.state_dir.empty()) {
    // Opens (or creates) the WAL, replays the unsnapshotted tail through the
    // live mutation path, and truncates any torn record. Failures here are
    // startup failures: serving non-durably when durability was requested
    // would break the crash-recovery contract silently.
    const Status durable = daemon.EnableDurability(snapshot.get());
    if (!durable.ok()) {
      HookStopSignals(false);
      return FailWith(args, "serve", durable);
    }
  }
  daemon.Prewarm();

  // The serving stop token is fresh: SIGTERM from here on means "drain and
  // exit 0", not "unwind with kCancelled".
  CancelToken stop;
  *GlobalCancelToken() = stop;

  if (!args.socket_path.empty()) {
    auto server = UnixServerSocket::Listen(args.socket_path);
    if (!server.ok()) {
      HookStopSignals(false);
      return FailWith(args, "serve", server.status());
    }
    if (!args.quiet) {
      std::fprintf(stderr, "serve: listening on %s\n",
                   args.socket_path.c_str());
    }
    while (!stop.stop_requested() && !daemon.shutdown_requested()) {
      auto client = server.value().Accept(&stop);
      if (!client.ok()) {
        HookStopSignals(false);
        return FailWith(args, "serve", client.status());
      }
      if (client.value() < 0) break;  // Stop fired while waiting.
      LineChannel channel(client.value(), client.value(), /*own_fds=*/true);
      const Status session = daemon.Serve(&channel, stop);
      if (!session.ok() && !args.quiet) {
        std::fprintf(stderr, "serve: session ended: %s\n",
                     session.ToString().c_str());
      }
    }
  } else {
    LineChannel channel(STDIN_FILENO, STDOUT_FILENO, /*own_fds=*/false);
    const Status session = daemon.Serve(&channel, stop);
    if (!session.ok()) {
      HookStopSignals(false);
      return FailWith(args, "serve", session);
    }
  }
  HookStopSignals(false);

  if (!args.state_dir.empty()) {
    // Fold the drained WAL into a final snapshot so the next start replays
    // nothing. Best-effort: the WAL already covers everything acked.
    const Status final_snapshot = daemon.SnapshotNow();
    if (!final_snapshot.ok() && !args.quiet) {
      std::fprintf(stderr, "serve: final snapshot failed: %s\n",
                   final_snapshot.ToString().c_str());
    }
  }

  if (!args.metrics_out.empty()) {
    std::ofstream out(args.metrics_out, std::ios::trunc);
    out << daemon.MetricsJson() << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args.metrics_out.c_str());
      return 1;
    }
    if (!args.quiet) {
      std::fprintf(stderr, "serve: metrics -> %s\n", args.metrics_out.c_str());
    }
  }
  if (!args.quiet) std::fprintf(stderr, "serve: drained, exiting\n");
  return 0;  // Graceful drain — including SIGTERM — is success.
}

int CmdQuery(const Args& args) {
  if (args.socket_path.empty() || args.requests.empty()) {
    std::fprintf(stderr,
                 "error: query requires --socket PATH and at least one "
                 "positional JSON request\n");
    return 2;
  }
  // Connect window: --timeout (when set) wins over the legacy --wait
  // default, so `grgad query --timeout 3` behaves like every other CLI
  // deadline. ConnectUnixSocket already polls a not-yet-listening socket;
  // the seeded Retryer on top rides out transient connect errors (a stale
  // socket file from a crashed daemon, injected faults) with the same
  // deterministic backoff as every other retried I/O path. Expiry is always
  // typed kDeadlineExceeded — exit 124, never a raw connect error.
  const double window = args.timeout > 0.0 ? args.timeout : args.wait;
  Timer connect_timer;
  Retryer connect_retryer{RetryPolicy{}};
  connect_retryer.set_retryable([&](const Status& status) {
    return DefaultRetryable(status) && connect_timer.ElapsedSeconds() < window;
  });
  auto fd = connect_retryer.RunResult<int>([&]() -> Result<int> {
    const double remaining = window - connect_timer.ElapsedSeconds();
    if (remaining <= 0.0) {
      return Status::DeadlineExceeded("daemon connect window expired");
    }
    return ConnectUnixSocket(args.socket_path, remaining);
  });
  if (!fd.ok()) {
    Status status = fd.status();
    if (status.code() != StatusCode::kDeadlineExceeded &&
        connect_timer.ElapsedSeconds() >= window) {
      status = Status::DeadlineExceeded(
          "daemon did not accept " + args.socket_path + " within " +
          JsonNumber(window) + "s: " + status.ToString());
    }
    return FailWith(args, "query", status);
  }
  LineChannel channel(fd.value(), fd.value(), /*own_fds=*/true);
  for (const std::string& request : args.requests) {
    const Status written = channel.WriteLine(request);
    if (!written.ok()) return FailWith(args, "query", written);
  }
  // The daemon answers in admission order, one line per request.
  for (size_t i = 0; i < args.requests.size(); ++i) {
    std::string line;
    bool eof = false;
    const Status read = channel.ReadLine(&line, &eof);
    if (!read.ok()) return FailWith(args, "query", read);
    if (eof) {
      return FailWith(args, "query",
                      Status::IoError("daemon closed the connection after " +
                                      std::to_string(i) + " of " +
                                      std::to_string(args.requests.size()) +
                                      " responses"));
    }
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "error: %s\n\n", error.c_str());
    PrintUsage();
    return 2;
  }
  if (args.threads > 0) SetParallelismDegree(args.threads);
  if (!args.inject.empty()) {
    const Status configured = FaultInjector::Global().Configure(args.inject);
    if (!configured.ok()) {
      std::fprintf(stderr, "error: --inject: %s\n",
                   configured.ToString().c_str());
      return 2;
    }
  }
  if (args.command != "query" && !args.requests.empty()) {
    std::fprintf(stderr, "error: unexpected operand '%s'\n\n",
                 args.requests.front().c_str());
    PrintUsage();
    return 2;
  }
  if (args.command == "list") return CmdList();
  if (args.command == "run") return CmdRun(args);
  if (args.command == "rescore") return CmdRescore(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "help" || args.command == "--help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n\n",
               args.command.c_str());
  PrintUsage();
  return 2;
}

}  // namespace
}  // namespace grgad

int main(int argc, char** argv) { return grgad::Main(argc, argv); }

// Durability contracts (PR 9 acceptance gates):
//   1. WAL framing — append/reopen round-trips every record; a torn or
//      corrupt tail (truncated record, flipped payload byte, flipped length
//      prefix) is detected, truncated at the last valid record, and
//      reported as a typed DataLoss note — never an error, never a crash,
//   2. snapshots — SaveServeSnapshot/LoadServeSnapshot round-trip the full
//      serving state exactly (graph, artifact doubles, tracker marks,
//      refresh cache, WAL high-water mark); a missing snapshot is NotFound,
//      a corrupt one is DataLoss,
//   3. recovery equivalence — a daemon restarted from snapshot + WAL tail
//      (including a stale snapshot whose records still sit in the WAL)
//      answers byte-identically to one that never died, and its resident
//      artifact doubles match exactly.
// The kill -9 sweep over the crash fault points lives in
// tests/crash_recovery_test.cc; this file covers the same machinery
// in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/method_registry.h"
#include "src/core/pipeline.h"
#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/dynamic_graph.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/serve/wal.h"
#include "src/util/atomic_io.h"
#include "src/util/status.h"

namespace grgad {
namespace {

namespace fs = std::filesystem;

TpGrGadOptions QuickOptions(uint64_t seed = 42) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 10;
  options.mh_gae.base.hidden_dim = 16;
  options.mh_gae.base.embed_dim = 8;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 8;
  options.tpgcl.hidden_dim = 16;
  options.tpgcl.embed_dim = 8;
  options.ReseedStages();
  return options;
}

const Dataset& TestDataset() {
  static const Dataset* dataset = new Dataset(GenExampleGraph());
  return *dataset;
}

const PipelineArtifacts& TrainedArtifacts() {
  static const PipelineArtifacts* artifacts = [] {
    auto result = RunPipeline(TestDataset().graph, QuickOptions());
    if (!result.ok()) {
      ADD_FAILURE() << "seed training failed: " << result.status().ToString();
      return new PipelineArtifacts();
    }
    return new PipelineArtifacts(std::move(result).value());
  }();
  return *artifacts;
}

fs::path TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("grgad_wal_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GraphMutation EdgeMutation(bool add, int u, int v) {
  GraphMutation m;
  m.kind = add ? GraphMutation::Kind::kAddEdge : GraphMutation::Kind::kRemoveEdge;
  m.u = u;
  m.v = v;
  return m;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.flush().good());
}

// ---- WAL framing ------------------------------------------------------------

TEST(WalTest, AppendReopenRoundtrip) {
  const fs::path dir = TempDir("roundtrip");
  const std::string path = (dir / "wal.log").string();
  {
    auto wal = WriteAheadLog::Open(path, /*sync_every=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->last_seq(), 0u);
    EXPECT_TRUE(
        wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 3, 9))
            .ok());
    EXPECT_TRUE(wal.value()->Append(WalRecord::Kind::kRefresh).ok());
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(false, 3, 9))
                    .ok());
    EXPECT_TRUE(wal.value()->Append(WalRecord::Kind::kCompact).ok());
    EXPECT_EQ(wal.value()->last_seq(), 4u);
    EXPECT_EQ(wal.value()->appends(), 4u);
  }
  auto reopened = WriteAheadLog::Open(path, 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WriteAheadLog& wal = *reopened.value();
  EXPECT_EQ(wal.open_stats().base, 0u);
  EXPECT_EQ(wal.open_stats().truncated_records, 0u);
  EXPECT_EQ(wal.open_stats().truncation_note, "");
  ASSERT_EQ(wal.records().size(), 4u);
  EXPECT_EQ(wal.records()[0].kind, WalRecord::Kind::kMutation);
  EXPECT_EQ(wal.records()[0].mutation.kind, GraphMutation::Kind::kAddEdge);
  EXPECT_EQ(wal.records()[0].mutation.u, 3);
  EXPECT_EQ(wal.records()[0].mutation.v, 9);
  EXPECT_EQ(wal.records()[0].seq, 1u);
  EXPECT_EQ(wal.records()[1].kind, WalRecord::Kind::kRefresh);
  EXPECT_EQ(wal.records()[2].mutation.kind, GraphMutation::Kind::kRemoveEdge);
  EXPECT_EQ(wal.records()[3].kind, WalRecord::Kind::kCompact);
  EXPECT_EQ(wal.last_seq(), 4u);
}

TEST(WalTest, FsyncBatchingHonorsSyncEvery) {
  const fs::path dir = TempDir("sync_every");
  auto wal = WriteAheadLog::Open((dir / "wal.log").string(), /*sync_every=*/3);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const uint64_t base_fsyncs = wal.value()->fsyncs();
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 1))
          .ok());
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 2))
          .ok());
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs);  // Batching: 2 < 3 unsynced.
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 3))
          .ok());
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs + 1);  // Third append syncs.
  EXPECT_TRUE(wal.value()->Sync().ok());  // Explicit sync always syncs.
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs + 2);
}

/// Appends `n` mutation records and returns the WAL file's bytes.
std::string BuildWalFile(const fs::path& path, int n) {
  auto wal = WriteAheadLog::Open(path.string(), 1);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, i, i + 100))
                    .ok());
  }
  wal.value().reset();  // Closes the fd.
  return Slurp(path);
}

void ExpectTornTail(const fs::path& path, size_t expect_valid,
                    size_t expect_truncated) {
  auto reopened = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WriteAheadLog& wal = *reopened.value();
  EXPECT_EQ(wal.records().size(), expect_valid);
  EXPECT_EQ(wal.open_stats().truncated_records, expect_truncated);
  EXPECT_NE(wal.open_stats().truncation_note.find("DataLoss"),
            std::string::npos)
      << wal.open_stats().truncation_note;
  EXPECT_EQ(wal.last_seq(), expect_valid);
  // The truncation is physical: a further reopen sees a clean file.
  auto again = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->records().size(), expect_valid);
  EXPECT_EQ(again.value()->open_stats().truncated_records, 0u);
}

TEST(WalTest, TruncatedTailRecordIsDroppedOnOpen) {
  const fs::path dir = TempDir("torn");
  const fs::path path = dir / "wal.log";
  const std::string bytes = BuildWalFile(path, 3);
  // Chop the last record mid-frame — what a crash mid-append leaves.
  Spit(path, bytes.substr(0, bytes.size() - 7));
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, FlippedPayloadByteIsDroppedOnOpen) {
  const fs::path dir = TempDir("bitflip");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 3);
  bytes[bytes.size() - 2] ^= 0x04;  // Inside the last record's payload.
  Spit(path, bytes);
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, FlippedLengthPrefixIsDroppedOnOpen) {
  const fs::path dir = TempDir("lenflip");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 3);
  // The last record's length prefix is the second field on the last line.
  const size_t line = bytes.rfind('\n', bytes.size() - 2) + 1;
  const size_t len_field = bytes.find(' ', line) + 1;
  ASSERT_NE(bytes[len_field], '9');
  bytes[len_field] = '9';  // Claims a longer payload than is framed.
  Spit(path, bytes);
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, MidFileCorruptionTruncatesEverythingAfterIt) {
  const fs::path dir = TempDir("midfile");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 4);
  // Corrupt record 2 of 4: records 3-4 have valid frames but an unusable
  // predecessor — the log is only trustworthy up to the last contiguous
  // valid prefix.
  const size_t header_end = bytes.find('\n') + 1;
  const size_t record2 = bytes.find('\n', header_end) + 1;
  bytes[bytes.find("mutation", record2)] = 'X';
  Spit(path, bytes);
  ExpectTornTail(path, 1, 3);
}

TEST(WalTest, SignedOrPaddedRecordSeqIsATornTail) {
  // Append never writes a sign or a leading zero, so a record spelled that
  // way is malformed like any other damage: dropped with the DataLoss note.
  for (const char* prefix : {"+", "0"}) {
    const fs::path dir = TempDir("signed_seq");
    const fs::path path = dir / "wal.log";
    std::string bytes = BuildWalFile(path, 3);
    const size_t line = bytes.rfind('\n', bytes.size() - 2) + 1;
    bytes.insert(line, prefix);  // "3 ..." becomes "+3 ..." / "03 ...".
    Spit(path, bytes);
    SCOPED_TRACE(prefix);
    ExpectTornTail(path, 2, 1);
  }
}

TEST(WalTest, SignedOrPaddedHeaderBaseIsRejected) {
  for (const char* base : {"+0", "00", " 0", "0 "}) {
    const fs::path dir = TempDir("signed_base");
    const fs::path path = dir / "wal.log";
    Spit(path, std::string("grgad_wal_version 1 base ") + base + "\n");
    auto wal = WriteAheadLog::Open(path.string(), 1);
    ASSERT_FALSE(wal.ok()) << "base '" << base << "' loaded";
    EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss) << base;
  }
}

TEST(WalTest, ResetToStartsAnEmptyLogAtTheNewBase) {
  const fs::path dir = TempDir("reset");
  const fs::path path = dir / "wal.log";
  auto wal = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, i, i + 50))
                    .ok());
  }
  ASSERT_TRUE(wal.value()->ResetTo(3).ok());
  EXPECT_EQ(wal.value()->last_seq(), 3u);
  // Appends continue above the base; reopen replays only the new tail.
  ASSERT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 9, 90))
          .ok());
  wal.value().reset();
  auto reopened = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->open_stats().base, 3u);
  ASSERT_EQ(reopened.value()->records().size(), 1u);
  EXPECT_EQ(reopened.value()->records()[0].seq, 4u);
  EXPECT_EQ(reopened.value()->last_seq(), 4u);
}

// ---- graph + serve-state snapshots ------------------------------------------

TEST(WalTest, GraphSnapshotRoundtripIsExact) {
  const Graph& graph = TestDataset().graph;
  const std::string text = SerializeGraphSnapshot(graph);
  auto parsed = ParseGraphSnapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Bitwise: the round-tripped graph re-serializes to identical bytes
  // (edges in canonical order, attributes at 17 significant digits).
  EXPECT_EQ(SerializeGraphSnapshot(parsed.value()), text);
  EXPECT_EQ(parsed.value().num_nodes(), graph.num_nodes());
  EXPECT_EQ(parsed.value().num_edges(), graph.num_edges());
}

TEST(WalTest, GraphSnapshotParseRejectsDamage) {
  const std::string text = SerializeGraphSnapshot(TestDataset().graph);
  EXPECT_FALSE(ParseGraphSnapshot("").ok());
  EXPECT_FALSE(ParseGraphSnapshot("bogus header\n").ok());
  // Truncation mid-file is DataLoss, not a crash or a partial graph.
  auto torn = ParseGraphSnapshot(text.substr(0, text.size() / 2));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  auto trailing = ParseGraphSnapshot(text + "extra\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, ServeSnapshotRoundtripRestoresEverything) {
  const fs::path dir = TempDir("snapshot");
  ServeStateSnapshot state;
  state.all_dirty = false;
  state.dirty_anchor_indices = {1, 4, 7};
  state.refresh_primed = true;
  // A primed cache must cover every resident anchor (load validates that).
  state.refresh_per_anchor.resize(TrainedArtifacts().anchors.size());
  state.refresh_per_anchor[0] = {{0, 1, 2}, {3, 4}};
  state.refresh_per_anchor[2] = {{5, 6, 7}};
  const Status saved =
      SaveServeSnapshot(dir.string(), TestDataset().graph, TrainedArtifacts(),
                        state, /*wal_seq=*/17);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto loaded = LoadServeSnapshot(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedServeSnapshot& snap = loaded.value();
  EXPECT_EQ(snap.wal_seq, 17u);
  EXPECT_EQ(snap.state.all_dirty, false);
  EXPECT_EQ(snap.state.dirty_anchor_indices, state.dirty_anchor_indices);
  EXPECT_EQ(snap.state.refresh_primed, true);
  EXPECT_EQ(snap.state.refresh_per_anchor, state.refresh_per_anchor);
  EXPECT_EQ(SerializeGraphSnapshot(snap.graph),
            SerializeGraphSnapshot(TestDataset().graph));
  // Artifact doubles round-trip exactly (the PR 6 17-digit contract).
  const PipelineArtifacts& a = TrainedArtifacts();
  const PipelineArtifacts& b = snap.artifacts;
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.anchors, a.anchors);
  EXPECT_EQ(b.candidate_groups, a.candidate_groups);
  ASSERT_EQ(b.scored_groups.size(), a.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(b.scored_groups[i].nodes, a.scored_groups[i].nodes);
    EXPECT_EQ(b.scored_groups[i].score, a.scored_groups[i].score) << i;
  }
  ASSERT_EQ(b.group_embeddings.rows(), a.group_embeddings.rows());
  ASSERT_EQ(b.group_embeddings.cols(), a.group_embeddings.cols());
  for (size_t r = 0; r < a.group_embeddings.rows(); ++r) {
    for (size_t c = 0; c < a.group_embeddings.cols(); ++c) {
      ASSERT_EQ(b.group_embeddings(r, c), a.group_embeddings(r, c));
    }
  }

  // A second save atomically replaces the first.
  state.all_dirty = true;
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), TestDataset().graph,
                                TrainedArtifacts(), state, 23)
                  .ok());
  auto replaced = LoadServeSnapshot(dir.string());
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value().wal_seq, 23u);
  EXPECT_TRUE(replaced.value().state.all_dirty);
}

/// Hand-built serving state, independent of training, so its snapshot
/// bytes are the same on every ISA and thread count.
Graph SmallGraph() {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  Matrix attributes(6, 2);
  for (size_t i = 0; i < 6; ++i) {
    attributes(i, 0) = 0.1 * static_cast<double>(i);
    attributes(i, 1) = -1.0 / static_cast<double>(i + 3);
  }
  return builder.Build(attributes);
}

PipelineArtifacts SmallArtifacts() {
  PipelineArtifacts a;
  a.seed = 7;
  a.anchors = {1, 4, 5};
  a.candidate_groups = {{0, 1, 2}, {3, 4, 5}, {}};
  a.group_embeddings = Matrix(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      a.group_embeddings(i, j) = 0.25 * static_cast<double>(i * 2 + j) - 0.1;
    }
  }
  a.group_scores = {0.5, 1.0 / 3.0, -0.25};
  a.scored_groups = {{{0, 1, 2}, 0.5}, {{3, 4, 5}, 1.0 / 3.0}};
  a.gae_node_errors = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  a.tpgcl_loss_history = {2.0, 1.0, 0.5};
  return a;
}

ServeStateSnapshot SmallState() {
  ServeStateSnapshot state;
  state.dirty_anchor_indices = {1};
  state.refresh_primed = true;
  state.refresh_per_anchor = {{{0, 1, 2}, {0, 2}}, {{3, 4, 5}}, {}};
  return state;
}

/// FNV-1a of a file's bytes, in the manifests' checksum form.
std::string FileDigest(const fs::path& path) {
  return HexU64(Fnv1a64(Slurp(path)));
}

TEST(WalTest, SnapshotAndArtifactBytesArePinned) {
  const fs::path dir = TempDir("golden");
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), SmallGraph(), SmallArtifacts(),
                                SmallState(), /*wal_seq=*/17)
                  .ok());
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), (dir / "store").string()).ok());
  // Each manifest records the size and FNV-1a of every payload beside it,
  // so these two digests pin every byte of both directories. Computed with
  // the serializers as they stood before the shared directory store.
  EXPECT_EQ(FileDigest(dir / "snapshot" / "snapshot.txt"), "7d5f8b30be59f672");
  EXPECT_EQ(FileDigest(dir / "snapshot" / "artifacts" / "manifest.txt"),
            "df26268631919c24");
  EXPECT_EQ(FileDigest(dir / "store" / "manifest.txt"),
            FileDigest(dir / "snapshot" / "artifacts" / "manifest.txt"));
}

TEST(WalTest, SpecialDoublesRoundTripBitExactly) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      Limits::denorm_min(), -Limits::denorm_min(), 1e-310, Limits::min(),
      Limits::infinity(),   -Limits::infinity(),   Limits::quiet_NaN(),
      -Limits::quiet_NaN(), -0.0,                  Limits::max()};
  PipelineArtifacts artifacts = SmallArtifacts();
  artifacts.group_scores = specials;
  artifacts.gae_node_errors = specials;
  artifacts.tpgcl_loss_history = specials;
  artifacts.scored_groups.clear();
  artifacts.group_embeddings = Matrix(specials.size(), 1);
  for (size_t i = 0; i < specials.size(); ++i) {
    artifacts.scored_groups.push_back({{static_cast<int>(i)}, specials[i]});
    artifacts.group_embeddings(i, 0) = specials[i];
  }
  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  const fs::path dir = TempDir("specials");
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), SmallGraph(), artifacts,
                                ServeStateSnapshot{}, 3)
                  .ok());
  auto loaded = LoadServeSnapshot(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const PipelineArtifacts& back = loaded.value().artifacts;
  ASSERT_EQ(back.group_scores.size(), specials.size());
  ASSERT_EQ(back.scored_groups.size(), specials.size());
  ASSERT_EQ(back.group_embeddings.rows(), specials.size());
  for (size_t i = 0; i < specials.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(bits(back.group_scores[i]), bits(specials[i]));
    EXPECT_EQ(bits(back.gae_node_errors[i]), bits(specials[i]));
    EXPECT_EQ(bits(back.tpgcl_loss_history[i]), bits(specials[i]));
    EXPECT_EQ(bits(back.scored_groups[i].score), bits(specials[i]));
    EXPECT_EQ(bits(back.group_embeddings(i, 0)), bits(specials[i]));
  }
}

TEST(WalTest, MissingSnapshotIsNotFoundCorruptIsDataLoss) {
  const fs::path dir = TempDir("snapdamage");
  auto missing = LoadServeSnapshot(dir.string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(SaveServeSnapshot(dir.string(), SmallGraph(), SmallArtifacts(),
                                SmallState(), 5)
                  .ok());
  // Every file of the snapshot and of its nested artifact store, each
  // truncated, bit-flipped and removed. Payload damage is caught by the
  // manifest checksums and refuses to serve from damaged state.
  const fs::path snap = dir / "snapshot";
  const std::vector<std::pair<fs::path, bool>> files = {
      {snap / "snapshot.txt", true},
      {snap / "graph.txt", false},
      {snap / "serve_state.txt", false},
      {snap / "artifacts" / "manifest.txt", true},
      {snap / "artifacts" / "anchors.txt", false},
      {snap / "artifacts" / "groups.txt", false},
      {snap / "artifacts" / "embeddings.txt", false},
      {snap / "artifacts" / "scores.txt", false},
      {snap / "artifacts" / "scored_groups.txt", false},
      {snap / "artifacts" / "node_errors.txt", false},
      {snap / "artifacts" / "tpgcl_loss.txt", false},
  };
  for (const auto& [target, is_manifest] : files) {
    const std::string name = target.filename().string();
    ASSERT_TRUE(fs::exists(target)) << target;
    const std::string pristine = Slurp(target);
    ASSERT_GT(pristine.size(), 4u) << target;
    for (const std::string mode : {"truncate", "flip", "remove"}) {
      SCOPED_TRACE(target.string() + " " + mode);
      if (mode == "truncate") {
        Spit(target, pristine.substr(0, pristine.size() - 3));
      } else if (mode == "flip") {
        std::string flipped = pristine;
        flipped[flipped.size() / 2] ^= 0x01;
        Spit(target, flipped);
      } else {
        fs::remove(target);
      }
      auto loaded = LoadServeSnapshot(dir.string());
      ASSERT_FALSE(loaded.ok());
      if (!is_manifest) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
            << loaded.status().ToString();
        EXPECT_NE(loaded.status().message().find(name), std::string::npos)
            << loaded.status().ToString();
      }
      Spit(target, pristine);
    }
  }
  EXPECT_TRUE(LoadServeSnapshot(dir.string()).ok());
  // Header numbers parse as strictly as payloads: no sign prefix.
  std::string manifest = Slurp(snap / "snapshot.txt");
  const size_t pos = manifest.find("wal_seq 5\n");
  ASSERT_NE(pos, std::string::npos);
  manifest.replace(pos, 9, "wal_seq +5");
  Spit(snap / "snapshot.txt", manifest);
  auto signed_seq = LoadServeSnapshot(dir.string());
  ASSERT_FALSE(signed_seq.ok());
  EXPECT_EQ(signed_seq.status().code(), StatusCode::kDataLoss);
}

// ---- daemon recovery equivalence --------------------------------------------

std::string Exec(ServeDaemon* daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
  if (!request.ok()) return "";
  return daemon->Execute(request.value());
}

std::string EdgeOp(int64_t id, bool add, int u, int v) {
  return "{\"id\": " + std::to_string(id) + ", \"op\": \"" +
         (add ? "add-edge" : "remove-edge") + "\", \"u\": " +
         std::to_string(u) + ", \"v\": " + std::to_string(v) + "}";
}

/// First `count` node pairs absent from the example graph.
std::vector<std::pair<int, int>> AbsentEdges(size_t count) {
  const Graph& graph = TestDataset().graph;
  std::vector<std::pair<int, int>> absent;
  for (int a = 0; a < graph.num_nodes() && absent.size() < count; ++a) {
    for (int b = a + 1; b < graph.num_nodes() && absent.size() < count; ++b) {
      if (!graph.HasEdge(a, b)) absent.emplace_back(a, b);
    }
  }
  EXPECT_EQ(absent.size(), count);
  return absent;
}

/// The daemon that never crashes and is never durable.
std::unique_ptr<ServeDaemon> MakeReferenceDaemon(
    const TpGrGadOptions& pipeline = QuickOptions()) {
  ServeOptions options;
  options.pipeline = pipeline;
  return std::make_unique<ServeDaemon>(TestDataset().graph, TrainedArtifacts(),
                                       std::move(options));
}

std::unique_ptr<ServeDaemon> MakeDaemon(const std::string& state_dir,
                                        const TpGrGadOptions& pipeline) {
  ServeOptions options;
  options.pipeline = pipeline;
  options.state_dir = state_dir;
  return std::make_unique<ServeDaemon>(TestDataset().graph, TrainedArtifacts(),
                                       std::move(options));
}

/// CmdServe's restart path in miniature: load the snapshot (if any), seed
/// the daemon with its graph + artifacts, then EnableDurability replays the
/// WAL tail. Returns {snapshot, daemon}; the snapshot must outlive the
/// daemon, which borrows its graph.
struct Recovered {
  std::unique_ptr<LoadedServeSnapshot> snapshot;
  std::unique_ptr<ServeDaemon> daemon;
};

Recovered Recover(const std::string& state_dir,
                  const TpGrGadOptions& pipeline = QuickOptions()) {
  Recovered out;
  auto loaded = LoadServeSnapshot(state_dir);
  if (loaded.ok()) {
    out.snapshot =
        std::make_unique<LoadedServeSnapshot>(std::move(loaded).value());
    ServeOptions options;
    options.pipeline = pipeline;
    options.state_dir = state_dir;
    PipelineArtifacts artifacts = std::move(out.snapshot->artifacts);
    out.daemon = std::make_unique<ServeDaemon>(
        out.snapshot->graph, std::move(artifacts), std::move(options));
  } else {
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
        << loaded.status().ToString();
    out.daemon = MakeDaemon(state_dir, pipeline);
  }
  const Status durable = out.daemon->EnableDurability(out.snapshot.get());
  EXPECT_TRUE(durable.ok()) << durable.ToString();
  return out;
}

/// The bitwise probe: responses that depend on every recovered double and
/// every recovered mark. Rescore reads the resident artifact embeddings;
/// refresh consumes the dirty marks + refresh cache and re-renders scores.
std::vector<std::string> Probe(ServeDaemon* daemon) {
  return {Exec(daemon, R"({"id": 900, "op": "refresh", "top": 5})"),
          Exec(daemon, R"({"id": 901, "op": "rescore", "detector": "ensemble", "top": 5})")};
}

TEST(WalTest, RecoveryReplaysTheWalTailBitwise) {
  const fs::path dir = TempDir("replay");
  const auto edges = AbsentEdges(2);
  const std::vector<std::string> ops = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, true, edges[1].first, edges[1].second),
      R"({"id": 3, "op": "refresh", "top": 3})",
      EdgeOp(4, false, edges[0].first, edges[0].second),
  };

  // The reference daemon never crashes and is never durable.
  auto reference = MakeReferenceDaemon();
  std::vector<std::string> reference_responses;
  for (const std::string& op : ops) {
    reference_responses.push_back(Exec(reference.get(), op));
  }

  // The durable daemon answers identically live, then dies abruptly: no
  // shutdown snapshot, just the destructor (a kill would not even run
  // that — the WAL bytes are already on disk either way).
  {
    Recovered live = Recover(dir.string());
    ASSERT_EQ(live.daemon->dynamic_graph().num_edges(),
              TestDataset().graph.num_edges());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(Exec(live.daemon.get(), ops[i]), reference_responses[i]) << i;
    }
  }

  // Restart: no snapshot exists, so recovery replays all four records.
  Recovered restarted = Recover(dir.string());
  EXPECT_EQ(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 4"),
            std::string::npos)
      << restarted.daemon->MetricsJson();
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, SnapshotPlusWalTailRestartsBitwise) {
  const fs::path dir = TempDir("snaptail");
  const auto edges = AbsentEdges(3);
  const std::vector<std::string> before_snapshot = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, true, edges[1].first, edges[1].second),
      R"({"id": 3, "op": "refresh", "top": 3})",
  };
  const std::vector<std::string> after_snapshot = {
      EdgeOp(4, true, edges[2].first, edges[2].second),
      EdgeOp(5, false, edges[1].first, edges[1].second),
  };

  auto reference = MakeReferenceDaemon();
  for (const std::string& op : before_snapshot) (void)Exec(reference.get(), op);
  for (const std::string& op : after_snapshot) (void)Exec(reference.get(), op);

  {
    Recovered live = Recover(dir.string());
    for (const std::string& op : before_snapshot) {
      (void)Exec(live.daemon.get(), op);
    }
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    for (const std::string& op : after_snapshot) {
      (void)Exec(live.daemon.get(), op);
    }
  }  // Dies with two unsnapshotted WAL records.

  Recovered restarted = Recover(dir.string());
  ASSERT_NE(restarted.snapshot, nullptr);
  // Three adds survive minus one remove: base + 2.
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 2);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 2"),
            std::string::npos);
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, StaleSnapshotSkipsWalRecordsItAlreadyCovers) {
  // A snapshot at seq 2 normally truncates the WAL to base 2; simulate the
  // crash window where the full WAL survives alongside it (snapshot
  // committed, truncation never ran). Records 1-2 must NOT replay — the
  // detectable failure is seq 1's add-edge resurrecting an edge that
  // seq 2 removed before the snapshot was cut.
  const fs::path dir = TempDir("stale");
  const auto edges = AbsentEdges(2);
  const std::vector<std::string> covered = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, false, edges[0].first, edges[0].second),
  };
  const std::string tail = EdgeOp(3, true, edges[1].first, edges[1].second);

  auto reference = MakeReferenceDaemon();
  for (const std::string& op : covered) (void)Exec(reference.get(), op);
  (void)Exec(reference.get(), tail);

  {
    Recovered live = Recover(dir.string());
    for (const std::string& op : covered) (void)Exec(live.daemon.get(), op);
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    (void)Exec(live.daemon.get(), tail);
  }

  // Rebuild the WAL as the pre-truncation file: base 0, all three records.
  const fs::path wal_path = dir / "wal.log";
  fs::remove(wal_path);
  {
    auto wal = WriteAheadLog::Open(wal_path.string(), 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, edges[0].first,
                                          edges[0].second))
                    .ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(false, edges[0].first,
                                          edges[0].second))
                    .ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, edges[1].first,
                                          edges[1].second))
                    .ok());
  }

  Recovered restarted = Recover(dir.string());
  ASSERT_NE(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.snapshot->wal_seq, 2u);
  // Only seq 3 replayed: one extra edge, not two.
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 1"),
            std::string::npos);
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, CorruptWalTailRecoversToLastValidStateWithDataLossNote) {
  const fs::path dir = TempDir("cutail");
  const auto edges = AbsentEdges(2);

  // Reference: only the first mutation — the second will be destroyed.
  auto reference = MakeReferenceDaemon();
  (void)Exec(reference.get(),
             EdgeOp(1, true, edges[0].first, edges[0].second));

  {
    Recovered live = Recover(dir.string());
    (void)Exec(live.daemon.get(),
               EdgeOp(1, true, edges[0].first, edges[0].second));
    (void)Exec(live.daemon.get(),
               EdgeOp(2, true, edges[1].first, edges[1].second));
  }

  // Bit-rot the second record's payload.
  const fs::path wal_path = dir / "wal.log";
  std::string bytes = Slurp(wal_path.string());
  bytes[bytes.size() - 2] ^= 0x08;
  Spit(wal_path, bytes);

  Recovered restarted = Recover(dir.string());
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  const std::string metrics = restarted.daemon->MetricsJson();
  EXPECT_NE(metrics.find("\"replayed_records\": 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"truncated_tail_records\": 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("DataLoss"), std::string::npos) << metrics;
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

/// The incremental-refresh configuration: hop-count paths with radius 3, so
/// a mutation marks only the anchors near it and the refreshes between WAL
/// markers resample different anchor sets.
TpGrGadOptions LocalRefreshOptions() {
  TpGrGadOptions options = QuickOptions();
  options.sampler.path_mode = PathSearchMode::kUnweighted;
  options.sampler.pair_radius = 3;
  options.sampler.cycle_max_len = 3;
  return options;
}

/// `count` distinct absent anchor pairs spread over the anchor list: an
/// edge between two anchors shortens the path between them, so each toggle
/// changes the candidates of the anchors it marks.
std::vector<std::pair<int, int>> SpreadAnchorPairs(size_t count) {
  const Graph& graph = TestDataset().graph;
  const std::vector<int>& anchors = TrainedArtifacts().anchors;
  const size_t m = anchors.size();
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < count; ++i) {
    const int a = anchors[i * m / count];
    for (size_t k = 0; k < m; ++k) {
      const int b = anchors[(i * m / count + m / 3 + k) % m];
      const std::pair<int, int> edge(std::min(a, b), std::max(a, b));
      if (a == b || graph.HasEdge(a, b) ||
          std::find(out.begin(), out.end(), edge) != out.end()) {
        continue;
      }
      out.push_back(edge);
      break;
    }
  }
  EXPECT_EQ(out.size(), count);
  return out;
}

void ExpectArtifactsBitwise(const PipelineArtifacts& a,
                            const PipelineArtifacts& b) {
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.candidate_groups, b.candidate_groups);
  EXPECT_EQ(a.group_scores, b.group_scores);
  ASSERT_EQ(a.scored_groups.size(), b.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(a.scored_groups[i].nodes, b.scored_groups[i].nodes) << i;
    EXPECT_EQ(a.scored_groups[i].score, b.scored_groups[i].score) << i;
  }
  ASSERT_EQ(a.group_embeddings.rows(), b.group_embeddings.rows());
  ASSERT_EQ(a.group_embeddings.cols(), b.group_embeddings.cols());
  EXPECT_EQ(std::memcmp(a.group_embeddings.data(), b.group_embeddings.data(),
                        a.group_embeddings.rows() *
                            a.group_embeddings.cols() * sizeof(double)),
            0);
}

/// Recovery runs one refresh for the whole WAL tail, at its last refresh
/// marker, over the dirty marks every earlier marker left behind. The
/// reference daemon ran every refresh; both must end bitwise equal. The
/// parameter is whether the snapshot under the tail holds a primed refresh
/// cache (a refresh ran before it) or an unprimed one.
class MultiRefreshRecoveryTest : public ::testing::TestWithParam<bool> {};

TEST_P(MultiRefreshRecoveryTest, OneRefreshPerTailMatchesEveryRefresh) {
  const bool primed = GetParam();
  const TpGrGadOptions pipeline = LocalRefreshOptions();
  const fs::path dir = TempDir(primed ? "multi_primed" : "multi_unprimed");
  const auto e = SpreadAnchorPairs(6);
  ASSERT_EQ(e.size(), 6u);
  std::vector<std::string> before_snapshot = {
      EdgeOp(1, true, e[0].first, e[0].second)};
  if (primed) {
    before_snapshot.push_back(R"({"id": 2, "op": "refresh", "top": 3})");
  }
  // Refresh markers between edge toggles, then a compaction and a last
  // marker with no mutation since the one before it (so the earlier
  // windows' marks are all it has to resample), and two mutations after
  // it whose marks must stay pending.
  const std::vector<std::string> tail = {
      EdgeOp(10, true, e[1].first, e[1].second),
      EdgeOp(11, true, e[2].first, e[2].second),
      R"({"id": 12, "op": "refresh", "top": 3})",
      EdgeOp(13, false, e[1].first, e[1].second),
      EdgeOp(14, true, e[3].first, e[3].second),
      R"({"id": 15, "op": "refresh", "top": 3})",
      EdgeOp(16, true, e[4].first, e[4].second),
      EdgeOp(17, false, e[0].first, e[0].second),
      R"({"id": 18, "op": "refresh", "top": 3})",
      R"({"id": 19, "op": "compact"})",
      R"({"id": 20, "op": "refresh", "top": 3})",
      EdgeOp(21, true, e[5].first, e[5].second),
      EdgeOp(22, false, e[2].first, e[2].second),
  };

  auto reference = MakeReferenceDaemon(pipeline);
  std::vector<std::string> expected;
  for (const std::string& op : before_snapshot) {
    expected.push_back(Exec(reference.get(), op));
  }
  for (const std::string& op : tail) {
    expected.push_back(Exec(reference.get(), op));
  }
  // The configuration is local: the tail's second refresh, incremental in
  // both cases, reuses anchors.
  const std::string& second_refresh = expected[before_snapshot.size() + 5];
  EXPECT_EQ(second_refresh.find("\"reused_anchors\": 0,"), std::string::npos)
      << second_refresh;

  {
    Recovered live = Recover(dir.string(), pipeline);
    std::vector<std::string> responses;
    for (const std::string& op : before_snapshot) {
      responses.push_back(Exec(live.daemon.get(), op));
    }
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    for (const std::string& op : tail) {
      responses.push_back(Exec(live.daemon.get(), op));
    }
    EXPECT_EQ(responses, expected);
  }  // Dies with the whole tail unsnapshotted.

  Recovered restarted = Recover(dir.string(), pipeline);
  ASSERT_NE(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.snapshot->state.refresh_primed, primed);
  EXPECT_NE(restarted.daemon->MetricsJson().find(
                "\"replayed_records\": " + std::to_string(tail.size())),
            std::string::npos)
      << restarted.daemon->MetricsJson();
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            reference->dynamic_graph().num_edges());
  ExpectArtifactsBitwise(restarted.daemon->artifacts(), reference->artifacts());
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

INSTANTIATE_TEST_SUITE_P(SnapshotCache, MultiRefreshRecoveryTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Primed" : "Unprimed";
                         });

}  // namespace
}  // namespace grgad

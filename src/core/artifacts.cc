#include "src/core/artifacts.h"

#include <climits>
#include <filesystem>
#include <string_view>
#include <utility>

#include "src/util/atomic_io.h"
#include "src/util/retry.h"

namespace grgad {
namespace {

// v2 records per-file byte counts + FNV-1a 64 checksums and per-field
// element counts in the manifest, so Load rejects truncation, bit-flips,
// and missing files up front, and cross-checks every parsed count.
constexpr const char* kVersionKey = "grgad_artifacts_version";
constexpr const char* kFormatVersion = "2";
constexpr const char* kManifestFile = "manifest.txt";

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string SerializeDoubles(const std::vector<double>& v) {
  std::string content;
  for (double x : v) {
    content += FormatExactDouble(x);
    content += '\n';
  }
  return content;
}

/// Every token of `text` as an int. Strict: a token that is not a complete
/// integer within int range is an error, never a silent end of the list.
Result<std::vector<int>> ParseInts(std::string_view text,
                                   const std::string& path) {
  TokenScanner in(text);
  std::vector<int> out;
  while (!in.AtEnd()) {
    long long x = 0;
    if (!in.I64(&x) || x < INT_MIN || x > INT_MAX) {
      return Status::InvalidArgument("bad integer in " + path);
    }
    out.push_back(static_cast<int>(x));
  }
  return out;
}

Result<std::vector<double>> ParseDoubles(const std::string& content,
                                         const std::string& path) {
  TokenScanner in(content);
  std::vector<double> out;
  while (!in.AtEnd()) {
    double x = 0.0;
    if (!in.F64(&x)) return Status::InvalidArgument("bad double in " + path);
    out.push_back(x);
  }
  return out;
}

/// The leading count line of a line-oriented file: one non-negative int.
Result<long long> ParseCountLine(TokenScanner* lines, const std::string& path) {
  std::string_view line;
  if (!lines->Line(&line)) {
    return Status::InvalidArgument("missing count line in " + path);
  }
  TokenScanner row(line);
  long long count = 0;
  if (!row.I64(&count) || count < 0 || !row.AtEnd()) {
    return Status::InvalidArgument("bad count line in " + path);
  }
  return count;
}

Status TrailingLines(TokenScanner* lines, const std::string& path) {
  std::string_view line;
  if (lines->Line(&line)) {
    return Status::InvalidArgument("trailing data in " + path);
  }
  return Status::Ok();
}

// One group per line; a leading count line distinguishes "no groups" from
// "one empty group".
std::string SerializeGroupLines(const std::vector<std::vector<int>>& groups) {
  std::string content = std::to_string(groups.size()) + "\n";
  for (const auto& group : groups) {
    content += JoinInts(group);
    content += '\n';
  }
  return content;
}

Result<std::vector<std::vector<int>>> ParseGroupLines(
    const std::string& content, const std::string& path) {
  TokenScanner lines(content);
  auto count = ParseCountLine(&lines, path);
  if (!count.ok()) return count.status();
  // No reserve: an absurd count line fails on the missing rows below
  // instead of attempting a giant allocation.
  std::vector<std::vector<int>> groups;
  std::string_view line;
  for (long long i = 0; i < count.value(); ++i) {
    if (!lines.Line(&line)) {
      return Status::InvalidArgument("truncated group file " + path);
    }
    auto group = ParseInts(line, path);
    if (!group.ok()) return group.status();
    groups.push_back(std::move(group).value());
  }
  GRGAD_RETURN_IF_ERROR(TrailingLines(&lines, path));
  return groups;
}

std::string SerializeMatrix(const Matrix& m) {
  std::string content =
      std::to_string(m.rows()) + " " + std::to_string(m.cols()) + "\n";
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (j) content += ' ';
      content += FormatExactDouble(m(i, j));
    }
    content += '\n';
  }
  return content;
}

Result<Matrix> ParseMatrix(const std::string& content,
                           const std::string& path) {
  TokenScanner in(content);
  long long rows = 0, cols = 0;
  if (!in.I64(&rows) || !in.I64(&cols)) {
    return Status::InvalidArgument("missing dims line in " + path);
  }
  // Guard the allocation: dims come from an untrusted file.
  constexpr long long kMaxElements = 1LL << 28;  // 256M doubles = 2 GiB.
  if (rows < 0 || cols < 0 || (cols > 0 && rows > kMaxElements / cols)) {
    return Status::InvalidArgument("implausible dims " + std::to_string(rows) +
                                   "x" + std::to_string(cols) + " in " + path);
  }
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (!in.F64(&m(i, j))) {
        return Status::InvalidArgument("truncated or bad matrix value in " +
                                       path);
      }
    }
  }
  if (!in.AtEnd()) return Status::InvalidArgument("trailing data in " + path);
  return m;
}

std::string SerializeScoredGroups(const std::vector<ScoredGroup>& groups) {
  std::string scored;
  scored += std::to_string(groups.size());
  scored += '\n';
  for (const ScoredGroup& sg : groups) {
    scored += FormatExactDouble(sg.score);
    for (int v : sg.nodes) {
      scored += ' ';
      scored += std::to_string(v);
    }
    scored += '\n';
  }
  return scored;
}

Result<std::vector<ScoredGroup>> ParseScoredGroups(const std::string& content,
                                                   const std::string& path) {
  TokenScanner lines(content);
  auto count = ParseCountLine(&lines, path);
  if (!count.ok()) return count.status();
  std::vector<ScoredGroup> out;
  std::string_view line;
  for (long long i = 0; i < count.value(); ++i) {
    if (!lines.Line(&line)) {
      return Status::InvalidArgument("truncated scored-group file " + path);
    }
    TokenScanner row(line);
    ScoredGroup sg;
    if (!row.F64(&sg.score)) {
      return Status::InvalidArgument("bad score in " + path);
    }
    auto nodes = ParseInts(row.Remaining(), path);
    if (!nodes.ok()) return nodes.status();
    sg.nodes = std::move(nodes).value();
    out.push_back(std::move(sg));
  }
  GRGAD_RETURN_IF_ERROR(TrailingLines(&lines, path));
  return out;
}

std::string PathIn(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

size_t Count(const Matrix& m) { return m.rows(); }
template <typename T>
size_t Count(const std::vector<T>& v) {
  return v.size();
}

/// Cross-check of one parsed field's element count against the count the
/// manifest declares; a manifest without the key is damaged.
Status CheckCount(const ManifestDir& m, const char* key, size_t actual,
                  const std::string& path) {
  const std::string* declared = m.Header(key);
  if (declared == nullptr) {
    return Status::DataLoss(path + ": manifest declares no " + key);
  }
  if (*declared == std::to_string(actual)) return Status::Ok();
  return Status::DataLoss(path + ": manifest declares " + key + "=" +
                          *declared + " but file has " +
                          std::to_string(actual));
}

}  // namespace

Status WriteArtifactFiles(const PipelineArtifacts& artifacts,
                          const std::string& dir) {
  using std::to_string;
  ManifestDir contents;
  contents.header = {
      {kVersionKey, kFormatVersion},
      {"seed", to_string(artifacts.seed)},
      {"num_anchors", to_string(artifacts.anchors.size())},
      {"num_groups", to_string(artifacts.candidate_groups.size())},
      {"embedding_rows", to_string(artifacts.group_embeddings.rows())},
      {"embedding_dim", to_string(artifacts.group_embeddings.cols())},
      {"num_scores", to_string(artifacts.group_scores.size())},
      {"num_scored_groups", to_string(artifacts.scored_groups.size())},
      {"num_node_errors", to_string(artifacts.gae_node_errors.size())},
      {"num_loss", to_string(artifacts.tpgcl_loss_history.size())},
  };
  contents.files = {
      {"anchors.txt", JoinInts(artifacts.anchors) + "\n"},
      {"groups.txt", SerializeGroupLines(artifacts.candidate_groups)},
      {"embeddings.txt", SerializeMatrix(artifacts.group_embeddings)},
      {"scores.txt", SerializeDoubles(artifacts.group_scores)},
      // Scored groups are stored on their own (not rebuilt from
      // groups+scores): partial runs have scored_groups without scores.
      {"scored_groups.txt", SerializeScoredGroups(artifacts.scored_groups)},
      {"node_errors.txt", SerializeDoubles(artifacts.gae_node_errors)},
      {"tpgcl_loss.txt", SerializeDoubles(artifacts.tpgcl_loss_history)},
  };
  return WriteManifestDir(dir, kManifestFile, contents);
}

Status SaveArtifacts(const PipelineArtifacts& artifacts,
                     const std::string& dir) {
  return ReplaceDir(dir, [&](const std::string& staging) {
    return WriteArtifactFiles(artifacts, staging);
  });
}

Result<PipelineArtifacts> LoadArtifacts(const std::string& dir) {
  auto read = ReadManifestDir(dir, kManifestFile);
  if (!read.ok()) return read.status();
  const ManifestDir& m = read.value();
  const std::string manifest_path = PathIn(dir, kManifestFile);
  const std::string* version = m.Header(kVersionKey);
  if (version == nullptr) {
    return Status::DataLoss("no " + std::string(kVersionKey) + " line in " +
                            manifest_path);
  }
  if (*version != kFormatVersion) {
    return Status::InvalidArgument("unsupported artifact version " + *version +
                                   " in " + manifest_path);
  }
  PipelineArtifacts artifacts;
  const std::string* seed = m.Header("seed");
  if (seed == nullptr || !TokenScanner(*seed).U64(&artifacts.seed)) {
    return Status::DataLoss("bad or missing seed in " + manifest_path);
  }
  // Each payload parses from its verified bytes; `count_key` cross-checks
  // the element count the manifest declares for it.
  const auto load = [&](const char* name, auto parse, auto* field,
                        const char* count_key) -> Status {
    const std::string path = PathIn(dir, name);
    const std::string* bytes = m.File(name);
    if (bytes == nullptr) {
      return Status::DataLoss("manifest " + manifest_path +
                              " has no file entry for " + name);
    }
    auto parsed = parse(*bytes, path);
    if (!parsed.ok()) return parsed.status();
    *field = std::move(parsed).value();
    return CheckCount(m, count_key, Count(*field), path);
  };
  GRGAD_RETURN_IF_ERROR(
      load("anchors.txt", ParseInts, &artifacts.anchors, "num_anchors"));
  GRGAD_RETURN_IF_ERROR(load("groups.txt", ParseGroupLines,
                             &artifacts.candidate_groups, "num_groups"));
  GRGAD_RETURN_IF_ERROR(load("embeddings.txt", ParseMatrix,
                             &artifacts.group_embeddings, "embedding_rows"));
  GRGAD_RETURN_IF_ERROR(CheckCount(m, "embedding_dim",
                                   artifacts.group_embeddings.cols(),
                                   PathIn(dir, "embeddings.txt")));
  GRGAD_RETURN_IF_ERROR(load("scores.txt", ParseDoubles,
                             &artifacts.group_scores, "num_scores"));
  GRGAD_RETURN_IF_ERROR(load("scored_groups.txt", ParseScoredGroups,
                             &artifacts.scored_groups, "num_scored_groups"));
  GRGAD_RETURN_IF_ERROR(load("node_errors.txt", ParseDoubles,
                             &artifacts.gae_node_errors, "num_node_errors"));
  GRGAD_RETURN_IF_ERROR(load("tpgcl_loss.txt", ParseDoubles,
                             &artifacts.tpgcl_loss_history, "num_loss"));
  return artifacts;
}

bool ArtifactLoadRetryable(const Status& status) {
  return DefaultRetryable(status) || status.code() == StatusCode::kNotFound;
}

}  // namespace grgad

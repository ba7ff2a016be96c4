// Crash-safe file primitives shared by every durable store.
//
// One recipe, one implementation: payloads go into a staged sibling
// `<dir>.tmp` beside a manifest that records each payload's size and
// FNV-1a checksum, every file and the directory are fsynced, the staging
// directory is committed by rename, and a load re-verifies every listed
// file before anything parses it. The artifact store (src/core/artifacts.h)
// and serve snapshots (src/serve/wal.h) are thin callers of
// WriteManifestDir / ReplaceDir / ReadManifestDir; the write-ahead log
// shares the file helpers. All helpers keep the artifact-layer fault
// points ("artifact/write", "artifact/read", "artifact/fsync",
// "artifact/rename") so the seeded fault sweeps exercise every durable
// path.
#ifndef GRGAD_UTIL_ATOMIC_IO_H_
#define GRGAD_UTIL_ATOMIC_IO_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace grgad {

/// Value of hex digit `c`, or -1. A 256-entry table instead of compare
/// chains: bulk snapshot payloads decode one nibble per character, so this
/// lookup sits in the innermost recovery loop and must stay branch-free.
inline int HexNibble(char c) {
  static constexpr auto kTable = [] {
    std::array<int8_t, 256> t{};
    t.fill(-1);
    for (int d = '0'; d <= '9'; ++d) t[d] = static_cast<int8_t>(d - '0');
    for (int d = 'a'; d <= 'f'; ++d) t[d] = static_cast<int8_t>(d - 'a' + 10);
    for (int d = 'A'; d <= 'F'; ++d) t[d] = static_cast<int8_t>(d - 'A' + 10);
    return t;
  }();
  return kTable[static_cast<unsigned char>(c)];
}

/// 17 significant digits round-trip any finite IEEE-754 double exactly —
/// the on-disk precision of every durable double in the system.
std::string FormatExactDouble(double v);

/// The raw IEEE-754 bit pattern of `v` as 16 lower-case hex digits —
/// trivially bit-exact (it IS the bits) and parsed by table lookup alone,
/// ~3x cheaper than even fast-path decimal. The encoding for bulk durable
/// payloads (snapshot attribute rows) where parse speed bounds recovery
/// time; human-facing singles keep FormatExactDouble. Reader counterpart:
/// TokenScanner::F64Bits.
std::string FormatDoubleBits(double v);

/// FNV-1a 64 over the bytes of `s` (the checksum recorded by manifests and
/// WAL records).
uint64_t Fnv1a64(std::string_view s);

/// Lower-case, zero-padded 16-digit hex of `v` (checksum wire form).
std::string HexU64(uint64_t v);

/// Truncating whole-file write ("artifact/write" fault point). Not durable
/// on its own — pair with FsyncPath before any rename that publishes it.
Status WriteTextFile(const std::string& path, const std::string& content);

/// Whole-file read ("artifact/read" fault point).
Result<std::string> ReadTextFile(const std::string& path);

/// fsync of a file or directory via its POSIX descriptor ("artifact/fsync"
/// fault point); rename-commit is only crash-safe once the staged files AND
/// the staging directory itself are durable.
Status FsyncPath(const std::string& path, bool is_dir);

/// A manifest directory: payload files beside one manifest file made of
/// `<key> <value>` header lines followed by one
/// `file <name> <bytes> <fnv1a-hex>` line per payload. The on-disk form of
/// the artifact store and of serve snapshots.
struct ManifestDir {
  std::vector<std::pair<std::string, std::string>> header;  ///< In order.
  std::vector<std::pair<std::string, std::string>> files;   ///< Name, bytes.

  /// Value of header `key` / contents of file `name`; nullptr when absent.
  const std::string* Header(std::string_view key) const;
  const std::string* File(std::string_view name) const;
};

/// Writes `contents` into `dir` (created if absent): the manifest
/// `manifest_name`, then every payload, then an fsync of each file and of
/// `dir` itself — files + 2 fsyncs. Not atomic on its own: call it from a
/// ReplaceDir fill.
Status WriteManifestDir(const std::string& dir,
                        const std::string& manifest_name,
                        const ManifestDir& contents);

/// Atomically replaces directory `dir`: stages a fresh `<dir>.tmp` (stale
/// `.tmp`/`.old` leftovers of a crashed save are removed first), lets
/// `fill` populate it, then commits by the rename dance (dir -> dir.old,
/// tmp -> dir, drop .old; "artifact/rename" is checked first). rename(2)
/// cannot replace a non-empty directory, hence the dance. On ANY failure
/// the staging directory is removed and the previous `dir` stays intact; a
/// hard crash between the renames leaves `dir` absent — NotFound on load,
/// never a torn mixture that parses. A successful commit ends with a
/// best-effort fsync of the parent directory.
Status ReplaceDir(
    const std::string& dir,
    const std::function<Status(const std::string& staging)>& fill);

/// Reads manifest directory `dir`. NotFound when `manifest_name` is absent;
/// DataLoss naming the file when the manifest is malformed (every line is
/// exactly `<key> <value>` or `file <name> <bytes> <16-hex>`, no duplicates)
/// or a listed file is missing, of the wrong size or fails its checksum;
/// read errors pass through. Every listed file is verified before this
/// returns, so callers parse only checksum-clean bytes.
Result<ManifestDir> ReadManifestDir(const std::string& dir,
                                    const std::string& manifest_name);

/// Whitespace-token scanner over an in-memory durable payload, the load-path
/// counterpart of the append-only text writers above. istringstream
/// extraction costs ~1 us per numeric token, which made snapshot recovery
/// scale with the text size instead of the disk: 8000 nodes of 16-d exact
/// doubles parsed slower than they fsynced. from_chars-based extraction is
/// ~20x cheaper and stricter — a token must be a COMPLETE number (no
/// "123abc" prefix reads), which is the right posture for checksummed
/// machine-written state where any malformed token means damage.
///
/// The scanned string must outlive the scanner (tokens are views into it).
class TokenScanner {
 public:
  explicit TokenScanner(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}
  explicit TokenScanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Next whitespace-delimited token; false at end of input.
  bool Token(std::string_view* out);
  /// Next '\n'-terminated line, without the newline (a final unterminated
  /// line counts); false at end of input. For formats where a line is a
  /// record, e.g. one candidate group per line, possibly empty.
  bool Line(std::string_view* out);
  /// Next token must equal `expected` exactly.
  bool Keyword(std::string_view expected);
  /// Next token parsed fully as a signed / unsigned 64-bit integer /
  /// decimal double (no sign on U64, no leading '+' anywhere). Integers
  /// must be canonical, as std::to_string writes them: no leading zeros
  /// ("007") and no "-0"; "0" itself is valid.
  bool I64(long long* out);
  bool U64(uint64_t* out);
  bool F64(double* out);
  /// Next token must be exactly 16 hex digits — the HexU64 wire form, and
  /// through FormatDoubleBits the bits of a double. Pure bit reassembly, no
  /// rounding anywhere to reason about.
  bool Hex64(uint64_t* out);
  bool F64Bits(double* out);
  /// True when only whitespace remains (the "no trailing data" check).
  bool AtEnd();
  /// Unconsumed input (may start with whitespace) — lets a caller hand a
  /// regular trailing section (e.g. fixed-width rows) to parallel workers.
  std::string_view Remaining() const {
    return std::string_view(p_, static_cast<size_t>(end_ - p_));
  }

 private:
  const char* p_;
  const char* end_;
};

}  // namespace grgad

#endif  // GRGAD_UTIL_ATOMIC_IO_H_

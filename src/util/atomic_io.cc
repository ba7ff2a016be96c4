#include "src/util/atomic_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/util/fault.h"

namespace grgad {

std::string FormatExactDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatDoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return HexU64(bits);
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/write"));
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << content;
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/read"));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open: " + path);
  // Sized read into the final buffer: rdbuf-to-stringstream doubles the
  // copy, which recovery pays on every multi-megabyte snapshot file.
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size: " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (size > 0 && !in.read(content.data(), size)) {
    return Status::IoError("cannot read: " + path);
  }
  return content;
}

Status FsyncPath(const std::string& path, bool is_dir) {
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/fsync"));
  const int fd =
      ::open(path.c_str(), is_dir ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("fsync failed: " + path);
  return Status::Ok();
}

namespace {

/// The rename dance behind ReplaceDir (see atomic_io.h); a failed second
/// rename restores the previous `target`.
Status CommitDirReplace(const std::string& tmp, const std::string& target) {
  namespace fs = std::filesystem;
  const fs::path target_path(target);
  const fs::path tmp_path(tmp);
  const fs::path old(target + ".old");
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/rename"));
  std::error_code ec;
  fs::remove_all(old, ec);
  ec.clear();
  const bool had_target = fs::exists(target_path);
  if (had_target) {
    fs::rename(target_path, old, ec);
    if (ec) {
      return Status::IoError("cannot move aside " + target + ": " +
                             ec.message());
    }
  }
  fs::rename(tmp_path, target_path, ec);
  if (ec) {
    std::error_code restore;
    if (had_target) fs::rename(old, target_path, restore);
    return Status::IoError("cannot commit " + tmp + " -> " + target + ": " +
                           ec.message());
  }
  if (had_target) fs::remove_all(old, ec);
  {
    const fs::path parent = target_path.has_parent_path()
                                ? target_path.parent_path()
                                : fs::path(".");
    const int fd = ::open(parent.string().c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  return Status::Ok();
}

Status ManifestDamage(const std::string& path, const std::string& what) {
  return Status::DataLoss("malformed manifest " + path + ": " + what);
}

/// One `file` line of a manifest.
struct ListedFile {
  std::string name;
  long long bytes = 0;
  uint64_t checksum = 0;
};

/// Strict manifest grammar: every line is `<key> <value>` or
/// `file <name> <bytes> <16-hex>`; keys and names are unique, and a name
/// never leaves its directory.
Status ParseManifest(const std::string& text, const std::string& path,
                     ManifestDir* out, std::vector<ListedFile>* listed) {
  TokenScanner lines(text);
  std::string_view line;
  while (lines.Line(&line)) {
    TokenScanner row(line);
    std::string_view key, value;
    if (!row.Token(&key) || !row.Token(&value)) {
      return ManifestDamage(path, "short line '" + std::string(line) + "'");
    }
    if (key == "file") {
      ListedFile file{std::string(value)};
      if (!row.I64(&file.bytes) || file.bytes < 0 ||
          !row.Hex64(&file.checksum) || !row.AtEnd() ||
          value.find('/') != std::string_view::npos) {
        return ManifestDamage(path, "bad file line '" + std::string(line) +
                                        "'");
      }
      for (const ListedFile& seen : *listed) {
        if (seen.name == file.name) {
          return ManifestDamage(path, "file " + file.name + " listed twice");
        }
      }
      listed->push_back(std::move(file));
    } else {
      if (!row.AtEnd() || out->Header(key) != nullptr) {
        return ManifestDamage(path, "bad or repeated header line '" +
                                        std::string(line) + "'");
      }
      out->header.emplace_back(key, value);
    }
  }
  return Status::Ok();
}

}  // namespace

const std::string* ManifestDir::Header(std::string_view key) const {
  for (const auto& [k, v] : header) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string* ManifestDir::File(std::string_view name) const {
  for (const auto& [n, bytes] : files) {
    if (n == name) return &bytes;
  }
  return nullptr;
}

Status WriteManifestDir(const std::string& dir,
                        const std::string& manifest_name,
                        const ManifestDir& contents) {
  namespace fs = std::filesystem;
  const fs::path base(dir);
  std::error_code ec;
  fs::create_directories(base, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  std::string manifest;
  for (const auto& [key, value] : contents.header) {
    manifest += key + " " + value + "\n";
  }
  for (const auto& [name, bytes] : contents.files) {
    manifest += "file " + name + " " + std::to_string(bytes.size()) + " " +
                HexU64(Fnv1a64(bytes)) + "\n";
  }
  const std::string manifest_path = (base / manifest_name).string();
  GRGAD_RETURN_IF_ERROR(WriteTextFile(manifest_path, manifest));
  for (const auto& [name, bytes] : contents.files) {
    GRGAD_RETURN_IF_ERROR(WriteTextFile((base / name).string(), bytes));
  }
  GRGAD_RETURN_IF_ERROR(FsyncPath(manifest_path, /*is_dir=*/false));
  for (const auto& [name, bytes] : contents.files) {
    GRGAD_RETURN_IF_ERROR(FsyncPath((base / name).string(), /*is_dir=*/false));
  }
  return FsyncPath(dir, /*is_dir=*/true);
}

Status ReplaceDir(const std::string& dir,
                  const std::function<Status(const std::string&)>& fill) {
  namespace fs = std::filesystem;
  const fs::path target(dir);
  const std::string tmp = dir + ".tmp";
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::remove_all(dir + ".old", ec);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
  }
  ec.clear();
  fs::create_directories(tmp, ec);
  if (ec) return Status::IoError("cannot create " + tmp + ": " + ec.message());
  Status status = fill(tmp);
  if (status.ok()) status = CommitDirReplace(tmp, dir);
  if (!status.ok()) fs::remove_all(tmp, ec);
  return status;
}

Result<ManifestDir> ReadManifestDir(const std::string& dir,
                                    const std::string& manifest_name) {
  namespace fs = std::filesystem;
  const fs::path base(dir);
  const std::string manifest_path = (base / manifest_name).string();
  std::error_code ec;
  if (!fs::exists(manifest_path, ec)) {
    return Status::NotFound("no manifest at " + manifest_path);
  }
  auto text = ReadTextFile(manifest_path);
  if (!text.ok()) return text.status();
  ManifestDir out;
  std::vector<ListedFile> listed;
  GRGAD_RETURN_IF_ERROR(ParseManifest(text.value(), manifest_path, &out,
                                      &listed));
  out.files.reserve(listed.size());
  for (ListedFile& file : listed) {
    const std::string path = (base / file.name).string();
    if (!fs::exists(path, ec)) {
      return Status::DataLoss("missing file " + path + " listed in " +
                              manifest_path);
    }
    auto bytes = ReadTextFile(path);
    if (!bytes.ok()) return bytes.status();
    if (bytes.value().size() != static_cast<size_t>(file.bytes)) {
      return Status::DataLoss("size mismatch in " + path +
                              ": manifest records " +
                              std::to_string(file.bytes) + " bytes, found " +
                              std::to_string(bytes.value().size()));
    }
    if (Fnv1a64(bytes.value()) != file.checksum) {
      return Status::DataLoss("checksum mismatch in " + path);
    }
    out.files.emplace_back(std::move(file.name), std::move(bytes).value());
  }
  return out;
}

namespace {

/// Locale-free whitespace test. std::isspace is an opaque per-character
/// libc call through the locale table; over a multi-megabyte snapshot that
/// one call is the single largest parse cost.
inline bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// `token` is exactly one number of type T (from_chars: no prefix reads).
template <typename T>
bool ParseWhole(std::string_view token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// `token` spells an integer the way std::to_string writes it: no leading
/// zero on a multi-digit magnitude and no "-0". Signs are left to
/// from_chars, which reads no '+' and no '-' into an unsigned.
bool CanonicalInteger(std::string_view token) {
  const std::string_view digits =
      token.substr(!token.empty() && token[0] == '-' ? 1 : 0);
  if (digits.empty() || digits[0] != '0') return true;
  return digits.size() == 1 && digits.size() == token.size();
}

}  // namespace

bool TokenScanner::Token(std::string_view* out) {
  while (p_ < end_ && IsSpace(*p_)) ++p_;
  if (p_ == end_) return false;
  const char* start = p_;
  while (p_ < end_ && !IsSpace(*p_)) ++p_;
  *out = std::string_view(start, static_cast<size_t>(p_ - start));
  return true;
}

bool TokenScanner::Line(std::string_view* out) {
  if (p_ == end_) return false;
  const char* start = p_;
  const void* nl = std::memchr(p_, '\n', static_cast<size_t>(end_ - p_));
  const char* stop = nl != nullptr ? static_cast<const char*>(nl) : end_;
  *out = std::string_view(start, static_cast<size_t>(stop - start));
  p_ = stop == end_ ? end_ : stop + 1;
  return true;
}

bool TokenScanner::Keyword(std::string_view expected) {
  std::string_view token;
  return Token(&token) && token == expected;
}

bool TokenScanner::I64(long long* out) {
  std::string_view token;
  return Token(&token) && CanonicalInteger(token) && ParseWhole(token, out);
}

bool TokenScanner::U64(uint64_t* out) {
  std::string_view token;
  return Token(&token) && CanonicalInteger(token) && ParseWhole(token, out);
}

bool TokenScanner::F64(double* out) {
  std::string_view token;
  return Token(&token) && ParseWhole(token, out);
}

bool TokenScanner::Hex64(uint64_t* out) {
  std::string_view token;
  if (!Token(&token) || token.size() != 16) return false;
  uint64_t bits = 0;
  int bad = 0;
  for (char c : token) {
    const int d = HexNibble(c);
    bad |= d;
    bits = (bits << 4) | static_cast<uint64_t>(d & 0xf);
  }
  if (bad < 0) return false;
  *out = bits;
  return true;
}

bool TokenScanner::F64Bits(double* out) {
  uint64_t bits;
  if (!Hex64(&bits)) return false;
  std::memcpy(out, &bits, sizeof *out);
  return true;
}

bool TokenScanner::AtEnd() {
  while (p_ < end_ && IsSpace(*p_)) ++p_;
  return p_ == end_;
}

}  // namespace grgad

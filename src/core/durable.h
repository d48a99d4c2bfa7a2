// Durable artifact I/O shared by every writer and reader of on-disk state
// (datasets, model files, fit reports, evaluation results, checkpoints):
//
//  * a framed envelope (magic, kind, schema version, payload length,
//    CRC32C) so partial writes and bit flips are detected before parsing;
//  * atomic durable writes (write-to-temp + fsync + rename + directory
//    fsync) so a kill mid-write can never leave a half-written artifact
//    under the final name;
//  * a typed LoadError taxonomy mirroring robust.h's FitError, plus a
//    quarantine policy (`<file>.corrupt-<n>`) and a LoadReport recording
//    what recovery did.
//
// Like acbm_robust this is a dependency-free target of its own
// (acbm_durable) sitting just above the fault-injection substrate, so every
// layer that touches the filesystem can use it without a layering cycle.
//
// Fault points wired here (see robust.h FaultInjector):
//   io.write          key "path=<p>"  crash mid-write: half the payload is
//                                     written to the temp file, then throws
//   io.fsync          key "path=<p>"  fail the durability fsync
//   io.dirsync        key "path=<p>"  crash after the rename but before the
//                                     parent-directory fsync (publication
//                                     ambiguous, as after a power loss)
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace acbm::core::durable {

// --- Checksums and content hashes -----------------------------------------

/// CRC32C (Castagnoli) of `data`, continuing from `crc` (0 to start).
/// Uses the hardware CRC instruction when available (SSE4.2 on x86-64,
/// the CRC extension on ARMv8 — probed once at first use; ACBM_SIMD=off
/// forces the table path), falling back to a software table. Both paths
/// are bit-identical; the check value of "123456789" is 0xE3069283.
[[nodiscard]] std::uint32_t crc32c(std::string_view data,
                                   std::uint32_t crc = 0) noexcept;

/// FNV-1a 64-bit content hash, used to key checkpoint stages by the exact
/// bytes of their inputs and configuration.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data,
                                    std::uint64_t hash = 0xcbf29ce484222325ULL)
    noexcept;

/// Lower-case hex rendering (no 0x prefix) of a hash/checksum.
[[nodiscard]] std::string to_hex(std::uint64_t value);
[[nodiscard]] std::string to_hex(std::uint32_t value);

// --- Error taxonomy --------------------------------------------------------

/// Why an artifact could not be loaded. Mirrors robust.h's FitError: every
/// reader fails with one of these, never a crash or a silently wrong model.
enum class LoadError {
  kIo,                  ///< File missing/unreadable or a write failed.
  kTruncated,           ///< Fewer bytes than the frame header promised.
  kBadChecksum,         ///< Payload CRC32C mismatch (bit rot, partial write).
  kBadMagic,            ///< Not a framed artifact.
  kVersionUnsupported,  ///< Framed, intact, but a schema we cannot read.
  kParse,               ///< Frame/payload intact but contents unparseable.
};

[[nodiscard]] const char* to_string(LoadError error) noexcept;

/// Typed load failure carrying the taxonomy code.
class LoadFailure : public std::runtime_error {
 public:
  LoadFailure(LoadError code, const std::string& detail)
      : std::runtime_error(detail), code_(code) {}

  [[nodiscard]] LoadError code() const noexcept { return code_; }

 private:
  LoadError code_;
};

/// Typed durable-write failure (also thrown by the io.write / io.fsync
/// crash-injection points).
class WriteFailure : public std::runtime_error {
 public:
  explicit WriteFailure(const std::string& detail)
      : std::runtime_error(detail) {}
};

// --- Framed envelope --------------------------------------------------------

/// Every framed artifact starts with one header line:
///   ACBMF1 <kind> v<version> len=<payload-bytes> crc32c=<8 hex>\n
/// followed by exactly `len` payload bytes. The CRC covers the payload.
inline constexpr std::string_view kFrameMagic = "ACBMF1";

struct Frame {
  std::string kind;
  int version = 0;
  std::string payload;
};

/// Wraps a payload in the framed envelope.
[[nodiscard]] std::string frame_payload(std::string_view kind, int version,
                                        std::string_view payload);

/// The header line frame_payload puts in front of the payload that is the
/// concatenation of `parts`, with the CRC32C chained across them; the
/// parts themselves are never joined.
[[nodiscard]] std::string frame_header(std::string_view kind, int version,
                                       std::span<const std::string_view> parts);

/// True when `data` begins with the frame magic (cheap pre-check for
/// inputs that may also be bare text, e.g. the CLI's dataset files).
[[nodiscard]] bool looks_framed(std::string_view data) noexcept;

/// Parses a framed blob. Throws LoadFailure with kBadMagic / kTruncated /
/// kBadChecksum / kParse.
[[nodiscard]] Frame parse_frame(std::string_view data);

/// parse_frame without copying the payload: the returned view aliases
/// `data`, so read-only consumers (the serving daemon, `acbm pack`) can
/// CRC-validate a memory-mapped artifact in place. Same error taxonomy as
/// parse_frame.
struct FrameView {
  std::string kind;
  int version = 0;
  std::string_view payload;  ///< Aliases the input bytes.
};
[[nodiscard]] FrameView parse_frame_view(std::string_view data);

/// parse_frame plus kind/version policing: a kind mismatch is kParse, a
/// version outside [min_version, max_version] is kVersionUnsupported.
/// Returns the verified payload.
[[nodiscard]] std::string unwrap(std::string_view data, std::string_view kind,
                                 int min_version, int max_version);

/// unwrap without copying: the returned frame's payload aliases `data`.
[[nodiscard]] FrameView unwrap_view(std::string_view data,
                                    std::string_view kind, int min_version,
                                    int max_version);

/// Zero-copy istream buffer over a view (no <spanstream> in C++20): a
/// plain get area, enough for the text loaders. The viewed bytes must
/// outlive every stream reading through it.
class SpanBuf : public std::streambuf {
 public:
  explicit SpanBuf(std::string_view data) {
    char* p = const_cast<char*>(data.data());
    setg(p, p, p + data.size());
  }
  /// Bytes read through the buffer so far: the offset of the next one.
  [[nodiscard]] std::size_t consumed() const noexcept {
    return static_cast<std::size_t>(gptr() - eback());
  }
};

// --- Durable file I/O -------------------------------------------------------

/// Read-only memory mapping of a whole file (RAII: unmapped on
/// destruction). Move-only. Construction throws LoadFailure(kIo) when the
/// file cannot be opened, stat'd, or mapped; a zero-length file maps to an
/// empty view. The mapping stays valid for the object's lifetime even if
/// the path is later renamed over (POSIX mmap semantics), which is exactly
/// what the serving daemon's generation hot-swap relies on: in-flight
/// requests keep reading the old mapping while the new one is built.
class MappedFile {
 public:
  MappedFile() = default;
  explicit MappedFile(const std::filesystem::path& path);
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] bool mapped() const noexcept { return mapped_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::byte* data() const noexcept {
    return static_cast<const std::byte*>(addr_);
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return {static_cast<const char*>(addr_), size_};
  }

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

/// A validated framed artifact whose payload still lives in the mapping —
/// the zero-copy counterpart of load_artifact for read-only consumers.
/// `payload` aliases `file`; keep the struct alive while reading it.
struct FramedView {
  MappedFile file;
  std::string kind;
  int version = 0;
  std::string_view payload;
};

/// Maps `path`, validates the frame (CRC over the mapped bytes, kind and
/// [min_version, max_version] policing exactly like unwrap) and returns the
/// payload as a view into the mapping — no payload copy is ever made.
/// Throws the same typed LoadFailures as load_artifact; never quarantines
/// (read-only consumers must not perturb the publication directory).
[[nodiscard]] FramedView load_framed_view(const std::filesystem::path& path,
                                          std::string_view kind,
                                          int min_version, int max_version);

/// Whole-file read into a buffer sized to the file; throws LoadFailure(kIo)
/// when the file cannot be opened or read.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Drains a stream to a string (for the framed stream-based loaders).
[[nodiscard]] std::string read_stream(std::istream& is);

/// Atomic durable write: contents go to `<path>.tmp`, are fsynced, then
/// renamed over `path`, and the parent directory is fsynced (so a power
/// loss cannot roll back the publication). A crash (or an injected
/// io.write / io.fsync / io.dirsync fault) at any point leaves either the
/// old file or no file under `path` — never a partial one. A directory
/// fsync error is a WriteFailure, except EINVAL (filesystems without
/// directory fsync), where publication proceeds.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents);

/// atomic_write_file of the concatenation of `parts`, written with gathered
/// writes (an io.write fault writes the first half of their bytes).
void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::string_view> parts);

/// frame_payload + atomic_write_file: the one call every artifact writer
/// goes through. The header and the payload go out in one gathered write,
/// so the framed copy is never built.
void save_artifact(const std::filesystem::path& path, std::string_view kind,
                   int version, std::string_view payload);

/// save_artifact of the payload that is the concatenation of `parts` (a
/// model body or a dataset CSV formatted in chunks), without joining them.
void save_artifact(const std::filesystem::path& path, std::string_view kind,
                   int version, std::span<const std::string> parts);

// --- Corruption-tolerant loading -------------------------------------------

/// One corrupt file encountered during a load, and where it was moved.
struct LoadEvent {
  std::string path;
  LoadError error = LoadError::kIo;
  std::string detail;
  std::string quarantined_to;  ///< Empty when the file was left in place.
};

/// What recovery did while loading an artifact (or a checkpoint run).
struct LoadReport {
  std::vector<LoadEvent> events;  ///< Corrupt files, in encounter order.
  int generation = 0;        ///< 0 = primary file; N = fell back N gens.

  [[nodiscard]] bool clean() const noexcept {
    return events.empty() && generation == 0;
  }
  /// One human-readable line per event/flag.
  void write(std::ostream& os) const;
};

/// Moves a bad file aside as `<path>.corrupt-<n>` (first free n >= 1).
/// Returns the quarantine destination, or an empty path when the rename
/// failed (the caller still treats the artifact as unusable).
std::filesystem::path quarantine(const std::filesystem::path& path);

/// Runs `parse()`, rethrowing any failure but a LoadFailure as
/// LoadFailure(kParse) with `context` in front of its message: every framed
/// reader reports a malformed payload the same typed way.
template <typename Parse>
auto parse_payload(std::string_view context, Parse&& parse) {
  try {
    return parse();
  } catch (const LoadFailure&) {
    throw;
  } catch (const std::exception& e) {
    throw LoadFailure(LoadError::kParse,
                      std::string(context) + ": " + e.what());
  }
}

/// Shared framed stream loader used by every model's load_framed():
/// unwraps a framed stream (kind policing, supported [min_version,
/// max_version]; unframed bytes are kBadMagic), then invokes
/// `parse(std::string_view)` on the payload. Any parse exception surfaces
/// as LoadFailure(kParse) — corruption or schema drift is always a typed
/// error, never a crash.
template <typename Parse>
auto load_framed_text(std::istream& is, std::string_view kind,
                      int min_version, int max_version, Parse&& parse) {
  const std::string data = read_stream(is);
  const std::string_view payload =
      unwrap_view(data, kind, min_version, max_version).payload;
  return parse_payload(kind, [&] { return parse(payload); });
}

/// load_framed_text for parsers that read a `std::istream&`.
template <typename Parse>
auto load_framed_stream(std::istream& is, std::string_view kind,
                        int min_version, int max_version, Parse&& parse) {
  return load_framed_text(is, kind, min_version, max_version,
                          [&parse](std::string_view payload) {
                            SpanBuf buf(payload);
                            std::istream body(&buf);
                            return parse(body);
                          });
}

/// Reads and verifies a framed artifact file. On corruption the file is
/// quarantined, the event is recorded in `report`, and a typed LoadFailure
/// is thrown. Unframed files (kBadMagic) and intact files of a merely
/// unsupported version are NOT quarantined. Pass
/// `quarantine_on_error = false` to leave a corrupt file in place (readers
/// that retry a possibly-transient bad read before condemning the artifact,
/// e.g. CheckpointDir::load racing a concurrent publisher).
[[nodiscard]] std::string load_artifact(const std::filesystem::path& path,
                                        std::string_view kind, int min_version,
                                        int max_version,
                                        LoadReport* report = nullptr,
                                        bool quarantine_on_error = true);

}  // namespace acbm::core::durable

#include "core/durable.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>

#include "core/durable_dispatch.h"
#include "core/observe.h"
#include "core/robust.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>
#define ACBM_POSIX_IO 1
#endif

#if defined(ACBM_HAVE_CRC_ARMV8_TU) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace acbm::core::durable {

namespace {

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) lookup table.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1U) ? 0x82F63B78U : 0U);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

std::uint32_t crc32c_raw_table(const unsigned char* data, std::size_t n,
                               std::uint32_t crc) {
  while (n-- > 0) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ *data++) & 0xFFU];
  }
  return crc;
}

/// Hardware CRC32C when the arch TU was built AND the CPU supports it AND
/// ACBM_SIMD is not forced off (same kill switch as the stats kernels);
/// null means "use the table". Probed once, first use.
detail::CrcRawFn pick_crc_raw() noexcept {
  const char* simd = std::getenv("ACBM_SIMD");
  if (simd != nullptr) {
    const std::string_view s{simd};
    if (s == "0" || s == "off" || s == "OFF" || s == "scalar") return nullptr;
  }
#if defined(ACBM_HAVE_CRC_SSE42_TU)
  if (__builtin_cpu_supports("sse4.2")) return detail::crc32c_sse42();
#elif defined(ACBM_HAVE_CRC_ARMV8_TU) && defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) return detail::crc32c_armv8();
#endif
  return nullptr;
}

[[nodiscard]] std::string hex_digits(std::uint64_t value, int digits) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::uint32_t crc32c(std::string_view data, std::uint32_t crc) noexcept {
  static const detail::CrcRawFn hw = pick_crc_raw();
  crc = ~crc;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  crc = hw != nullptr ? hw(bytes, data.size(), crc)
                      : crc32c_raw_table(bytes, data.size(), crc);
  return ~crc;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t hash) noexcept {
  for (unsigned char byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string to_hex(std::uint64_t value) { return hex_digits(value, 16); }
std::string to_hex(std::uint32_t value) { return hex_digits(value, 8); }

const char* to_string(LoadError error) noexcept {
  switch (error) {
    case LoadError::kIo: return "io";
    case LoadError::kTruncated: return "truncated";
    case LoadError::kBadChecksum: return "bad_checksum";
    case LoadError::kBadMagic: return "bad_magic";
    case LoadError::kVersionUnsupported: return "version_unsupported";
    case LoadError::kParse: return "parse";
  }
  return "unknown";
}

std::string frame_header(std::string_view kind, int version,
                         std::span<const std::string_view> parts) {
  if (kind.empty() || kind.find_first_of(" \n") != std::string_view::npos) {
    throw std::invalid_argument("frame_payload: kind must be a single token");
  }
  std::size_t len = 0;
  std::uint32_t crc = 0;
  for (std::string_view part : parts) {
    len += part.size();
    crc = crc32c(part, crc);
  }
  std::string out;
  out += kFrameMagic;
  out += ' ';
  out += kind;
  out += " v";
  out += std::to_string(version);
  out += " len=";
  out += std::to_string(len);
  out += " crc32c=";
  out += to_hex(crc);
  out += '\n';
  return out;
}

std::string frame_payload(std::string_view kind, int version,
                          std::string_view payload) {
  std::string out = frame_header(kind, version, std::span(&payload, 1));
  out += payload;
  return out;
}

bool looks_framed(std::string_view data) noexcept {
  return data.substr(0, kFrameMagic.size()) == kFrameMagic;
}

Frame parse_frame(std::string_view data) {
  FrameView view = parse_frame_view(data);
  Frame frame;
  frame.kind = std::move(view.kind);
  frame.version = view.version;
  frame.payload = std::string(view.payload);
  return frame;
}

FrameView parse_frame_view(std::string_view data) {
  if (!looks_framed(data)) {
    throw LoadFailure(LoadError::kBadMagic,
                      "durable: not a framed artifact (missing " +
                          std::string(kFrameMagic) + " magic)");
  }
  const std::size_t eol = data.find('\n');
  if (eol == std::string_view::npos) {
    throw LoadFailure(LoadError::kTruncated,
                      "durable: frame header line is truncated");
  }
  std::istringstream header{std::string(data.substr(0, eol))};
  std::string magic;
  std::string kind;
  std::string vtok;
  std::string lentok;
  std::string crctok;
  header >> magic >> kind >> vtok >> lentok >> crctok;
  if (header.fail() || kind.empty() || vtok.size() < 2 || vtok[0] != 'v' ||
      lentok.rfind("len=", 0) != 0 || crctok.rfind("crc32c=", 0) != 0) {
    throw LoadFailure(LoadError::kParse, "durable: malformed frame header '" +
                                             std::string(data.substr(0, eol)) +
                                             "'");
  }
  FrameView frame;
  frame.kind = kind;
  std::size_t length = 0;
  std::uint32_t expected_crc = 0;
  try {
    frame.version = std::stoi(vtok.substr(1));
    length = std::stoull(lentok.substr(4));
    expected_crc =
        static_cast<std::uint32_t>(std::stoul(crctok.substr(7), nullptr, 16));
  } catch (const std::exception&) {
    throw LoadFailure(LoadError::kParse, "durable: malformed frame header '" +
                                             std::string(data.substr(0, eol)) +
                                             "'");
  }
  const std::string_view payload = data.substr(eol + 1);
  if (payload.size() < length) {
    throw LoadFailure(
        LoadError::kTruncated,
        "durable: frame promises " + std::to_string(length) + " payload bytes, "
            "found " + std::to_string(payload.size()));
  }
  if (payload.size() > length) {
    throw LoadFailure(LoadError::kParse,
                      "durable: " + std::to_string(payload.size() - length) +
                          " trailing byte(s) after framed payload");
  }
  const std::uint32_t actual_crc = crc32c(payload);
  if (actual_crc != expected_crc) {
    throw LoadFailure(LoadError::kBadChecksum,
                      "durable: payload CRC32C mismatch (expected " +
                          to_hex(expected_crc) + ", got " + to_hex(actual_crc) +
                          ")");
  }
  frame.payload = payload;
  return frame;
}

std::string unwrap(std::string_view data, std::string_view kind,
                   int min_version, int max_version) {
  return std::string(unwrap_view(data, kind, min_version, max_version).payload);
}

FrameView unwrap_view(std::string_view data, std::string_view kind,
                      int min_version, int max_version) {
  FrameView frame = parse_frame_view(data);
  if (frame.kind != kind) {
    throw LoadFailure(LoadError::kParse, "durable: expected kind '" +
                                             std::string(kind) + "', got '" +
                                             frame.kind + "'");
  }
  if (frame.version < min_version || frame.version > max_version) {
    throw LoadFailure(LoadError::kVersionUnsupported,
                      "durable: " + frame.kind + " v" +
                          std::to_string(frame.version) +
                          " is outside the supported range [v" +
                          std::to_string(min_version) + ", v" +
                          std::to_string(max_version) + "]");
  }
  return frame;
}

MappedFile::MappedFile(const std::filesystem::path& path) {
#if defined(ACBM_POSIX_IO)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw LoadFailure(LoadError::kIo, "durable: cannot open " + path.string() +
                                          ": " + std::strerror(errno));
  }
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw LoadFailure(LoadError::kIo, "durable: cannot stat " + path.string() +
                                          ": " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // mmap rejects zero-length mappings; an empty file is a valid (empty)
    // view.
    ::close(fd);
    mapped_ = true;
    return;
  }
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    throw LoadFailure(LoadError::kIo, "durable: cannot mmap " + path.string() +
                                          ": " + std::strerror(errno));
  }
  addr_ = addr;
  mapped_ = true;
#else
  throw LoadFailure(LoadError::kIo,
                    "durable: memory mapping unsupported on this platform (" +
                        path.string() + ")");
#endif
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_), mapped_(other.mapped_) {
  other.addr_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    addr_ = other.addr_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.addr_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile::~MappedFile() {
#if defined(ACBM_POSIX_IO)
  if (addr_ != nullptr) ::munmap(addr_, size_);
#endif
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

FramedView load_framed_view(const std::filesystem::path& path,
                            std::string_view kind, int min_version,
                            int max_version) {
  FramedView out;
  out.file = MappedFile(path);
  FrameView frame =
      unwrap_view(out.file.view(), kind, min_version, max_version);
  out.kind = std::move(frame.kind);
  out.version = frame.version;
  out.payload = frame.payload;
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw LoadFailure(LoadError::kIo,
                      "durable: cannot open " + path.string());
  }
  // One spare byte, so the read that takes in the whole file also hits EOF;
  // a file that grew since file_size (or one with no size, like a pipe)
  // doubles the buffer.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string out(ec ? 1 : static_cast<std::size_t>(size) + 1, '\0');
  std::size_t got = 0;
  for (;;) {
    in.read(out.data() + got, static_cast<std::streamsize>(out.size() - got));
    got += static_cast<std::size_t>(in.gcount());
    if (!in) break;
    out.resize(2 * out.size());
  }
  if (in.bad()) {
    throw LoadFailure(LoadError::kIo, "durable: read error on " +
                                          path.string());
  }
  out.resize(got);
  return out;
}

std::string read_stream(std::istream& is) {
  std::ostringstream contents;
  contents << is.rdbuf();
  return contents.str();
}

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents) {
  atomic_write_file(path, std::span(&contents, 1));
}

void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::string_view> parts) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  FaultInjector& injector = FaultInjector::instance();
  const std::string key = "path=" + path.string();
  // Crash injection: write only half the payload, skip the rename, throw.
  // The final name keeps its previous content (or stays absent) — exactly
  // what a kill between write() calls produces.
  const bool crash_write = injector.enabled() && injector.fires("io.write", key);
  std::size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::size_t write_len = crash_write ? size / 2 : size;
  ACBM_SPAN_KV("durable.save", "bytes=" + std::to_string(size));

#ifdef ACBM_POSIX_IO
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw WriteFailure("durable: cannot create " + tmp.string() + ": " +
                       std::strerror(errno));
  }
  // The first write_len bytes of the parts, in order, as one gathered
  // write (continued after a short one).
  std::vector<::iovec> iov;
  for (std::string_view part : parts) {
    const std::size_t n = std::min(part.size(), write_len);
    if (n == 0) continue;
    iov.push_back({const_cast<char*>(part.data()), n});
    write_len -= n;
  }
  for (std::size_t at = 0; at < iov.size();) {
    const ::ssize_t n = ::writev(
        fd, iov.data() + at,
        static_cast<int>(std::min<std::size_t>(iov.size() - at, IOV_MAX)));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw WriteFailure("durable: write failed on " + tmp.string() + ": " +
                         std::strerror(saved));
    }
    auto left = static_cast<std::size_t>(n);
    for (; at < iov.size() && left >= iov[at].iov_len; ++at) {
      left -= iov[at].iov_len;
    }
    if (left > 0) {
      iov[at].iov_base = static_cast<char*>(iov[at].iov_base) + left;
      iov[at].iov_len -= left;
    }
  }
  if (crash_write) {
    ::close(fd);
    throw WriteFailure("injected fault: io.write " + key);
  }
  if (injector.enabled() && injector.fires("io.fsync", key)) {
    ::close(fd);
    throw WriteFailure("injected fault: io.fsync " + key);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    throw WriteFailure("durable: fsync failed on " + tmp.string() + ": " +
                       std::strerror(saved));
  }
  ::close(fd);
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw WriteFailure("durable: cannot create " + tmp.string());
    for (std::string_view part : parts) {
      const std::size_t n = std::min(part.size(), write_len);
      out.write(part.data(), static_cast<std::streamsize>(n));
      write_len -= n;
    }
    out.flush();
    if (!out) throw WriteFailure("durable: write failed on " + tmp.string());
  }
  if (crash_write) throw WriteFailure("injected fault: io.write " + key);
  if (injector.enabled() && injector.fires("io.fsync", key)) {
    throw WriteFailure("injected fault: io.fsync " + key);
  }
#endif

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw WriteFailure("durable: rename " + tmp.string() + " -> " +
                       path.string() + " failed: " + ec.message());
  }

  // Crash window between the rename and the directory fsync: the rename is
  // visible to this process but a power loss could still roll it back. The
  // injected fault throws here so callers observe "write failed" while the
  // file may or may not exist under the final name — exactly the ambiguity
  // a real crash produces; recovery must converge either way.
  if (injector.enabled() && injector.fires("io.dirsync", key)) {
    throw WriteFailure("injected fault: io.dirsync " + key);
  }

#ifdef ACBM_POSIX_IO
  // Durability of the rename itself: fsync the containing directory. Without
  // this a power loss after the rename can lose the just-published artifact
  // (the rename lives only in the directory's in-memory metadata).
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : std::filesystem::path(".");
  const int dirfd = ::open(dir.c_str(), O_RDONLY);
  if (dirfd < 0) {
    throw WriteFailure("durable: cannot open directory " + dir.string() +
                       " for fsync: " + std::strerror(errno));
  }
  if (::fsync(dirfd) != 0) {
    const int saved = errno;
    ::close(dirfd);
    // EINVAL: the filesystem genuinely does not support directory fsync
    // (some network/FUSE mounts); there is no stronger primitive available,
    // so publication proceeds. Any other errno is a real durability failure.
    if (saved != EINVAL) {
      throw WriteFailure("durable: directory fsync failed on " + dir.string() +
                         ": " + std::strerror(saved));
    }
  } else {
    ::close(dirfd);
  }
#endif
}

void save_artifact(const std::filesystem::path& path, std::string_view kind,
                   int version, std::string_view payload) {
  const std::string header =
      frame_header(kind, version, std::span(&payload, 1));
  const std::array<std::string_view, 2> framed = {header, payload};
  atomic_write_file(path, framed);
}

void save_artifact(const std::filesystem::path& path, std::string_view kind,
                   int version, std::span<const std::string> parts) {
  // Slot 0 takes the header, once the CRC over the parts is known.
  std::vector<std::string_view> framed(parts.size() + 1);
  std::copy(parts.begin(), parts.end(), framed.begin() + 1);
  const std::string header =
      frame_header(kind, version, std::span(framed).subspan(1));
  framed[0] = header;
  atomic_write_file(path, framed);
}

void LoadReport::write(std::ostream& os) const {
  for (const LoadEvent& event : events) {
    os << "corrupt artifact: " << event.path << " (" << to_string(event.error);
    if (!event.detail.empty()) os << ": " << event.detail;
    os << ")";
    if (!event.quarantined_to.empty()) {
      os << " quarantined to " << event.quarantined_to;
    }
    os << '\n';
  }
  if (generation > 0) {
    os << "fell back to checkpoint generation " << generation << '\n';
  }
}

std::filesystem::path quarantine(const std::filesystem::path& path) {
  for (int n = 1; n < 10000; ++n) {
    const std::filesystem::path dest =
        path.string() + ".corrupt-" + std::to_string(n);
    std::error_code ec;
    if (std::filesystem::exists(dest, ec)) continue;
    std::filesystem::rename(path, dest, ec);
    if (!ec) return dest;
    return {};  // Rename failed (permissions?); leave the file in place.
  }
  return {};
}

std::string load_artifact(const std::filesystem::path& path,
                          std::string_view kind, int min_version,
                          int max_version, LoadReport* report,
                          bool quarantine_on_error) {
  const std::string data = read_file(path);
  if (!looks_framed(data)) {
    throw LoadFailure(LoadError::kBadMagic,
                      "durable: " + path.string() + " is not a framed " +
                          std::string(kind) + " artifact");
  }
  try {
    return unwrap(data, kind, min_version, max_version);
  } catch (const LoadFailure& e) {
    // A merely-newer schema is an intact file: report, don't quarantine.
    if (e.code() == LoadError::kVersionUnsupported) {
      throw LoadFailure(e.code(), path.string() + ": " + e.what());
    }
    if (!quarantine_on_error) {
      throw LoadFailure(e.code(), path.string() + ": " + e.what());
    }
    const std::filesystem::path dest = quarantine(path);
    if (report != nullptr) {
      report->events.push_back(
          {path.string(), e.code(), e.what(), dest.string()});
    }
    std::string detail = path.string() + ": " + e.what();
    if (!dest.empty()) detail += " (quarantined to " + dest.string() + ")";
    throw LoadFailure(e.code(), detail);
  }
}

}  // namespace acbm::core::durable

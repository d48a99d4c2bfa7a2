// The verified-attack dataset: per-attack records (DDoS ID, family, target,
// start timestamp, duration, bot sources) plus hourly per-family activity
// snapshots, mirroring the structure described in §II of the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/as_graph.h"
#include "net/ipv4.h"

namespace acbm::trace {

using EpochSeconds = std::int64_t;

/// Timestamp decomposition used by the models (§III-B: day and hour parts).
struct DayHour {
  int day = 0;   ///< Day index since the start of the observation window.
  int hour = 0;  ///< Hour of day, [0, 24).
};

[[nodiscard]] DayHour decompose_timestamp(EpochSeconds ts,
                                          EpochSeconds window_start);

/// One verified DDoS attack.
struct Attack {
  std::uint64_t id = 0;          ///< Unique DDoS identifier.
  std::uint32_t family = 0;      ///< Index into Dataset::family_names().
  net::Ipv4 target_ip;
  net::Asn target_asn = 0;
  EpochSeconds start = 0;
  double duration_s = 0.0;
  std::vector<net::Ipv4> bots;   ///< Unique source addresses.

  [[nodiscard]] EpochSeconds end() const noexcept {
    return start + static_cast<EpochSeconds>(duration_s);
  }
  [[nodiscard]] std::size_t magnitude() const noexcept { return bots.size(); }
};

/// Hourly per-family activity snapshot (§II-C: 24 hourly reports per day).
struct FamilySnapshot {
  EpochSeconds ts = 0;
  std::uint32_t family = 0;
  std::size_t active_bots = 0;  ///< Unique bots seen in the trailing 24 h.
};

/// What Dataset construction found wrong with its inputs and repaired:
/// non-finite durations are zeroed, negative durations are zeroed,
/// out-of-order start timestamps are sorted, and duplicate attack ids are
/// reassigned to fresh ids past the maximum. A report with total() == 0
/// means the input was already clean.
struct ValidationReport {
  std::size_t nonfinite_durations = 0;  ///< NaN/inf durations zeroed.
  std::size_t negative_durations = 0;   ///< Negative durations zeroed.
  std::size_t out_of_order = 0;         ///< Adjacent start-time inversions.
  std::size_t duplicate_ids = 0;        ///< Attack ids reassigned.

  [[nodiscard]] std::size_t total() const noexcept {
    return nonfinite_durations + negative_durations + out_of_order +
           duplicate_ids;
  }
  [[nodiscard]] bool clean() const noexcept { return total() == 0; }
  /// One human-readable line per nonzero counter.
  void write(std::ostream& os) const;
};

/// Dataset CSV texts of at least this many bytes are parsed (load_csv) and
/// formatted (csv_parts, append_csv), and the bots of a binary block of at
/// least this many bytes are copied (binary_parts), in about
/// core::num_threads() chunks on the thread pool; smaller ones, such as
/// hourly snapshot segments, stay on the calling thread. The bytes are the
/// same either way.
inline constexpr std::size_t kCsvParallelFloor = std::size_t{1} << 20;

/// Splits `text` into at most `parts` consecutive non-empty pieces: piece i
/// ends just after the first '\n' at or after byte (i + 1) * size / parts,
/// and the last piece ends where the text does. These are the chunks
/// load_csv parses concurrently, so no row is ever cut in two.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text,
                                                        std::size_t parts);

/// The two '#' header lines of a dataset CSV.
struct CsvHeader {
  EpochSeconds window_start = 0;
  std::vector<std::string> families;  ///< Empty names dropped.
};

/// The full trace: chronologically sorted attacks plus snapshots.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<std::string> family_names, std::vector<Attack> attacks,
          std::vector<FamilySnapshot> snapshots, EpochSeconds window_start);

  [[nodiscard]] const std::vector<Attack>& attacks() const noexcept {
    return attacks_;
  }
  [[nodiscard]] const std::vector<FamilySnapshot>& snapshots() const noexcept {
    return snapshots_;
  }
  [[nodiscard]] const std::vector<std::string>& family_names() const noexcept {
    return family_names_;
  }
  [[nodiscard]] EpochSeconds window_start() const noexcept {
    return window_start_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return attacks_.size(); }

  /// Indices of all attacks by a family, chronological.
  [[nodiscard]] std::vector<std::size_t> attacks_of_family(
      std::uint32_t family) const;

  /// Indices of all attacks whose target sits in the given AS,
  /// chronological.
  [[nodiscard]] std::vector<std::size_t> attacks_on_asn(net::Asn asn) const;

  /// Distinct target ASNs, ordered by attack count descending.
  [[nodiscard]] std::vector<net::Asn> target_asns() const;

  /// Family index by name; throws std::out_of_range for unknown names.
  [[nodiscard]] std::uint32_t family_index(const std::string& name) const;

  /// Chronological 80/20-style split: the first `train_fraction` of attacks
  /// form the training set (paper §III-C).
  [[nodiscard]] std::pair<Dataset, Dataset> split(double train_fraction) const;

  /// What construction repaired in the input (clean() when nothing).
  [[nodiscard]] const ValidationReport& validation() const noexcept {
    return validation_;
  }

  /// CSV serialization (attacks only; snapshots are derivable). csv_parts
  /// returns the text as ordered parts, the three header lines first, with
  /// the rows of a text at or above kCsvParallelFloor formatted in chunks
  /// concurrently; their concatenation is the same bytes at any thread
  /// count. append_csv appends that text to `out` and returns the number of
  /// lines it wrote (3 + size()); durations are written as %.17g, so they
  /// round-trip exactly. save_csv writes the same bytes to a stream.
  /// load_csv scans the text once (in chunks split by split_lines at or
  /// above the floor) and throws std::invalid_argument on a malformed
  /// header or row, naming the first bad line as a serial scan would: a row
  /// with fewer than the six comma-terminated fields before its bots, a
  /// numeric field with trailing characters, a negative value in an
  /// unsigned field, a malformed address, or a last line with no '\n' (the
  /// writer ends every line in one, so such text was cut short). The stream
  /// overload reads the stream to its end, then parses that text.
  [[nodiscard]] std::vector<std::string> csv_parts() const;
  std::size_t append_csv(std::string& out) const;
  void save_csv(std::ostream& os) const;
  [[nodiscard]] static Dataset load_csv(std::string_view csv);
  [[nodiscard]] static Dataset load_csv(std::istream& is);
  /// One dataset from several CSV texts in one pass: every text's rows in
  /// text order, the longest family list (the texts' lists must agree
  /// where they overlap), the first text's window_start, then one
  /// construction that repairs, sorts and indexes the union. Each text gets
  /// load_csv's checks and messages, including that its rows' family
  /// indices fall within its own list; the first failure throws. For texts
  /// in the form save_csv writes (sorted, unique ids, nothing to repair),
  /// this equals loading each and constructing the union of their attacks.
  /// Throws on an empty span.
  [[nodiscard]] static Dataset load_csv_union(
      std::span<const std::string_view> texts);
  /// Parses only the header lines (no row), with load_csv's checks.
  [[nodiscard]] static CsvHeader load_csv_header(std::string_view csv);

  /// Binary serialization, the dataset block of a model artifact
  /// (core/pipeline.h); CSV stays the interchange format. The block holds,
  /// in host byte order behind a u32 probe (0x01020304): the family count
  /// and each name as a u64 length plus its bytes, window_start, the attack
  /// count and the total bot count; then one fixed-width record per attack
  /// (u64 id, u32 family, u32 target ip, u32 target asn, i64 start, the
  /// duration's IEEE bits as u64, u64 bot count); then every bot as a u32.
  /// binary_parts returns the block as ordered parts: the header and
  /// records, then the bots, in about core::num_threads() parts filled
  /// concurrently when they reach kCsvParallelFloor bytes, else in one; the
  /// concatenation is the same bytes at any thread count. load_binary,
  /// one serial pass, reads every field through memcpy (no
  /// alignment assumed) and throws std::invalid_argument before it
  /// allocates or copies anything when a count exceeds the bytes left, the
  /// probe or a family index is wrong, the bot counts do not sum to the
  /// total, or bytes are left over; it then constructs the dataset, so the
  /// round trip is exact, durations bit for bit.
  [[nodiscard]] std::vector<std::string> binary_parts() const;
  [[nodiscard]] static Dataset load_binary(std::string_view bytes);

 private:
  void reindex();

  std::vector<std::string> family_names_;
  std::vector<Attack> attacks_;              // Sorted by start time.
  std::vector<FamilySnapshot> snapshots_;    // Sorted by ts.
  EpochSeconds window_start_ = 0;
  ValidationReport validation_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_family_;
  std::unordered_map<net::Asn, std::vector<std::size_t>> by_target_asn_;
};

}  // namespace acbm::trace

#include "trace/dataset.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <unordered_set>

#include "core/observe.h"
#include "core/parallel.h"

namespace acbm::trace {

DayHour decompose_timestamp(EpochSeconds ts, EpochSeconds window_start) {
  const EpochSeconds rel = ts - window_start;
  DayHour out;
  out.day = static_cast<int>(rel / 86400);
  out.hour = static_cast<int>((rel % 86400) / 3600);
  if (rel < 0 && rel % 86400 != 0) {
    --out.day;
    out.hour = static_cast<int>(((rel % 86400) + 86400) % 86400 / 3600);
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view text,
                                         std::size_t parts) {
  std::vector<std::string_view> pieces;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= parts && begin < text.size(); ++i) {
    std::size_t end = text.size();
    if (i < parts) {
      const std::size_t eol =
          text.find('\n', std::max(begin, text.size() / parts * i));
      if (eol != std::string_view::npos) end = eol + 1;
    }
    pieces.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return pieces;
}

void ValidationReport::write(std::ostream& os) const {
  if (nonfinite_durations > 0) {
    os << "repaired " << nonfinite_durations
       << " non-finite duration(s) -> 0\n";
  }
  if (negative_durations > 0) {
    os << "repaired " << negative_durations << " negative duration(s) -> 0\n";
  }
  if (out_of_order > 0) {
    os << "sorted " << out_of_order << " out-of-order start timestamp(s)\n";
  }
  if (duplicate_ids > 0) {
    os << "reassigned " << duplicate_ids << " duplicate attack id(s)\n";
  }
}

Dataset::Dataset(std::vector<std::string> family_names,
                 std::vector<Attack> attacks,
                 std::vector<FamilySnapshot> snapshots,
                 EpochSeconds window_start)
    : family_names_(std::move(family_names)),
      attacks_(std::move(attacks)),
      snapshots_(std::move(snapshots)),
      window_start_(window_start) {
  // Validated ingestion: repair what can be repaired, count what was wrong.
  for (Attack& attack : attacks_) {
    if (!std::isfinite(attack.duration_s)) {
      attack.duration_s = 0.0;
      ++validation_.nonfinite_durations;
    } else if (attack.duration_s < 0.0) {
      attack.duration_s = 0.0;
      ++validation_.negative_durations;
    }
  }
  for (std::size_t i = 1; i < attacks_.size(); ++i) {
    if (attacks_[i].start < attacks_[i - 1].start) ++validation_.out_of_order;
  }
  const auto chronological = [](const Attack& a, const Attack& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.id < b.id;
  };
  std::sort(attacks_.begin(), attacks_.end(), chronological);
  // Duplicate ids break cross-referencing; later holders (chronological
  // order) get fresh ids past the maximum. Re-sort afterwards because id is
  // the tie-breaker for simultaneous attacks.
  if (!attacks_.empty()) {
    std::uint64_t max_id = 0;
    for (const Attack& attack : attacks_) max_id = std::max(max_id, attack.id);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(attacks_.size());
    for (Attack& attack : attacks_) {
      if (!seen.insert(attack.id).second) {
        attack.id = ++max_id;
        seen.insert(attack.id);
        ++validation_.duplicate_ids;
      }
    }
    if (validation_.duplicate_ids > 0) {
      std::sort(attacks_.begin(), attacks_.end(), chronological);
    }
  }
  std::sort(snapshots_.begin(), snapshots_.end(),
            [](const FamilySnapshot& a, const FamilySnapshot& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              return a.family < b.family;
            });
  for (const Attack& attack : attacks_) {
    if (attack.family >= family_names_.size()) {
      throw std::invalid_argument("Dataset: attack references unknown family");
    }
  }
  reindex();
}

void Dataset::reindex() {
  by_family_.clear();
  by_target_asn_.clear();
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    by_family_[attacks_[i].family].push_back(i);
    by_target_asn_[attacks_[i].target_asn].push_back(i);
  }
}

std::vector<std::size_t> Dataset::attacks_of_family(
    std::uint32_t family) const {
  const auto it = by_family_.find(family);
  return it == by_family_.end() ? std::vector<std::size_t>{} : it->second;
}

std::vector<std::size_t> Dataset::attacks_on_asn(net::Asn asn) const {
  const auto it = by_target_asn_.find(asn);
  return it == by_target_asn_.end() ? std::vector<std::size_t>{} : it->second;
}

std::vector<net::Asn> Dataset::target_asns() const {
  std::vector<std::pair<net::Asn, std::size_t>> counts;
  counts.reserve(by_target_asn_.size());
  for (const auto& [asn, idx] : by_target_asn_) {
    counts.emplace_back(asn, idx.size());
  }
  std::sort(counts.begin(), counts.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<net::Asn> out;
  out.reserve(counts.size());
  for (const auto& [asn, count] : counts) out.push_back(asn);
  return out;
}

std::uint32_t Dataset::family_index(const std::string& name) const {
  for (std::size_t i = 0; i < family_names_.size(); ++i) {
    if (family_names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  throw std::out_of_range("Dataset::family_index: unknown family " + name);
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction) const {
  if (!(train_fraction > 0.0 && train_fraction < 1.0)) {
    throw std::invalid_argument("Dataset::split: fraction out of (0,1)");
  }
  const auto n_train = static_cast<std::size_t>(
      std::llround(static_cast<double>(attacks_.size()) * train_fraction));
  std::vector<Attack> train_attacks(attacks_.begin(),
                                    attacks_.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<Attack> test_attacks(attacks_.begin() + static_cast<std::ptrdiff_t>(n_train),
                                   attacks_.end());
  const EpochSeconds boundary =
      test_attacks.empty() ? window_start_ : test_attacks.front().start;
  std::vector<FamilySnapshot> train_snaps;
  std::vector<FamilySnapshot> test_snaps;
  for (const FamilySnapshot& snap : snapshots_) {
    (snap.ts < boundary ? train_snaps : test_snaps).push_back(snap);
  }
  return {Dataset(family_names_, std::move(train_attacks),
                  std::move(train_snaps), window_start_),
          Dataset(family_names_, std::move(test_attacks),
                  std::move(test_snaps), window_start_)};
}

namespace {

/// Upper bound on the characters of one attack row: the widest rendering of
/// each of the six fields plus its comma (a %.17g double takes at most 24),
/// the newline, and one address plus separator per bot.
std::size_t row_bound(const Attack& attack) {
  constexpr std::size_t kFields = 20 + 10 + net::kMaxIpv4Chars + 10 + 20 + 24;
  return kFields + 7 + attack.bots.size() * (net::kMaxIpv4Chars + 1);
}

template <typename T>
char* put_number(char* out, char* end, T value) {
  return std::to_chars(out, end, value).ptr;
}

char* put_duration(char* out, char* end, double value) {
  // %.17g, exactly what an ostream at setprecision(17) writes.
  return std::to_chars(out, end, value, std::chars_format::general, 17).ptr;
}

/// The three header lines: window start, family names, column names.
std::string csv_header(EpochSeconds window_start,
                       const std::vector<std::string>& families) {
  std::string out = "#window_start=";
  out += std::to_string(window_start);
  out += "\n#families=";
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (i > 0) out += ';';
    out += families[i];
  }
  out += "\nid,family,target_ip,target_asn,start,duration_s,bots\n";
  return out;
}

/// Appends one row per attack to `out`; `bounds` holds each row's
/// row_bound.
void append_rows(std::span<const Attack> attacks,
                 std::span<const std::size_t> bounds, std::string& out) {
  std::size_t bound = 0;
  for (std::size_t b : bounds) bound += b;
  out.reserve(out.size() + bound);
  for (std::size_t r = 0; r < attacks.size(); ++r) {
    const Attack& attack = attacks[r];
    const std::size_t at = out.size();
    out.resize(at + bounds[r]);
    char* p = out.data() + at;
    char* const end = out.data() + out.size();
    p = put_number(p, end, attack.id);
    *p++ = ',';
    p = put_number(p, end, attack.family);
    *p++ = ',';
    p = net::format_ipv4(p, attack.target_ip);
    *p++ = ',';
    p = put_number(p, end, attack.target_asn);
    *p++ = ',';
    p = put_number(p, end, attack.start);
    *p++ = ',';
    p = put_duration(p, end, attack.duration_s);
    *p++ = ',';
    for (std::size_t i = 0; i < attack.bots.size(); ++i) {
      if (i > 0) *p++ = ';';
      p = net::format_ipv4(p, attack.bots[i]);
    }
    *p++ = '\n';
    out.resize(static_cast<std::size_t>(p - out.data()));
  }
}

[[noreturn]] void csv_error(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("Dataset::load_csv: line " +
                              std::to_string(line_no) + ": " + what);
}

/// Splits off the next line of `text` (the last one may lack its '\n').
std::string_view next_line(std::string_view& text) {
  const std::size_t eol = text.find('\n');
  const std::string_view line = text.substr(0, eol);
  text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
  return line;
}

/// Parses all of `field` as a number: from_chars rejects a sign on an
/// unsigned type, and the end check rejects trailing characters.
template <typename T>
T parse_number(std::string_view field, std::size_t line_no, const char* what) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    csv_error(line_no, std::string("bad ") + what + " '" + std::string(field) +
                           "'");
  }
  return value;
}

net::Ipv4 parse_address(std::string_view field, std::size_t line_no) {
  try {
    return net::parse_ipv4(field);
  } catch (const std::invalid_argument&) {
    csv_error(line_no, "bad address '" + std::string(field) + "'");
  }
}

/// Consumes the two '#' header lines save_csv writes.
DatasetHeader parse_header(std::string_view& text) {
  constexpr std::string_view kWindowTag = "#window_start=";
  constexpr std::string_view kFamiliesTag = "#families=";
  DatasetHeader header;
  if (text.empty() || !text.starts_with(kWindowTag)) {
    throw std::invalid_argument(
        "Dataset::load_csv: missing window_start header");
  }
  header.window_start = parse_number<EpochSeconds>(
      next_line(text).substr(kWindowTag.size()), 1, "window_start");
  if (text.empty() || !text.starts_with(kFamiliesTag)) {
    throw std::invalid_argument("Dataset::load_csv: missing families header");
  }
  std::string_view names = next_line(text).substr(kFamiliesTag.size());
  while (!names.empty()) {
    const std::size_t sep = names.find(';');
    const std::string_view name = names.substr(0, sep);
    if (!name.empty()) header.families.emplace_back(name);
    names.remove_prefix(sep == std::string_view::npos ? names.size()
                                                      : sep + 1);
  }
  return header;
}

/// One attack row: six comma-terminated fields, then the ';'-separated bots
/// (possibly none). A row cut anywhere inside its first six fields lacks a
/// comma and is rejected.
Attack parse_row(std::string_view line, std::size_t line_no) {
  std::array<std::string_view, 6> fields;
  for (std::string_view& field : fields) {
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) {
      csv_error(line_no, "truncated row (fewer than 7 fields)");
    }
    field = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  Attack attack;
  attack.id = parse_number<std::uint64_t>(fields[0], line_no, "id");
  attack.family = parse_number<std::uint32_t>(fields[1], line_no, "family");
  attack.target_ip = parse_address(fields[2], line_no);
  attack.target_asn = parse_number<net::Asn>(fields[3], line_no, "target_asn");
  attack.start = parse_number<EpochSeconds>(fields[4], line_no, "start");
  attack.duration_s = parse_number<double>(fields[5], line_no, "duration_s");
  // Each address is parsed in place and must end at a ';' or the line's
  // end; empty entries are skipped. The addresses gather in a per-thread
  // list first, so the attack's own list is allocated once at its size
  // without a separate pass to count them.
  thread_local std::vector<net::Ipv4> bots;
  bots.clear();
  while (!line.empty()) {
    if (line.front() != ';') {
      net::Ipv4 bot;
      const std::size_t used = net::parse_ipv4_prefix(line, bot);
      if (used == 0 || (used < line.size() && line[used] != ';')) {
        csv_error(line_no, "bad address '" +
                               std::string(line.substr(0, line.find(';'))) +
                               "'");
      }
      bots.push_back(bot);
      line.remove_prefix(used);
    }
    if (!line.empty()) line.remove_prefix(1);
  }
  attack.bots.assign(bots.begin(), bots.end());
  return attack;
}

/// The attacks of `rows`, the rows after the column header whose first line
/// is line `first_line` of the text.
std::vector<Attack> parse_rows(std::string_view rows, std::size_t first_line) {
  std::vector<Attack> attacks;
  if (rows.size() < kCsvParallelFloor) {
    for (std::size_t line_no = first_line; !rows.empty(); ++line_no) {
      const std::string_view line = next_line(rows);
      if (!line.empty()) attacks.push_back(parse_row(line, line_no));
    }
    return attacks;
  }
  const std::size_t chunks = core::num_threads();
  ACBM_SPAN_KV("trace.csv.parse", "chunks=" + std::to_string(chunks));
  // Each chunk stops at its first bad row and records it instead of
  // throwing, so every chunk before the lowest failing one has counted all
  // of its lines.
  struct Chunk {
    std::vector<Attack> attacks;
    std::size_t lines = 0;  ///< Lines read; on failure, the bad row's index.
    std::optional<std::string_view> bad_row;
  };
  const std::vector<std::string_view> pieces = split_lines(rows, chunks);
  std::vector<Chunk> parsed(pieces.size());
  core::parallel_for(0, pieces.size(), [&](std::size_t c) {
    // Filled locally and stored once: neighbouring slots share cache lines.
    Chunk chunk;
    std::string_view text = pieces[c];
    for (; !text.empty(); ++chunk.lines) {
      const std::string_view line = next_line(text);
      if (line.empty()) continue;
      try {
        chunk.attacks.push_back(parse_row(line, chunk.lines));
      } catch (const std::invalid_argument&) {
        chunk.bad_row = line;
        break;
      }
    }
    parsed[c] = std::move(chunk);
  });
  std::size_t line_no = first_line;
  std::size_t count = 0;
  for (const Chunk& chunk : parsed) {
    if (chunk.bad_row) {
      // parse_row is a pure function of the row, so parsing it again at
      // its line number in the whole text throws the serial reader's error.
      (void)parse_row(*chunk.bad_row, line_no + chunk.lines);
    }
    line_no += chunk.lines;
    count += chunk.attacks.size();
  }
  attacks.reserve(count);
  for (Chunk& chunk : parsed) {
    std::move(chunk.attacks.begin(), chunk.attacks.end(),
              std::back_inserter(attacks));
  }
  return attacks;
}

}  // namespace

std::vector<std::string> Dataset::csv_parts() const {
  std::string header = csv_header(window_start_, family_names_);

  std::vector<std::size_t> bounds(attacks_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    bounds[i] = row_bound(attacks_[i]);
    total += bounds[i];
  }
  if (total < kCsvParallelFloor) {
    append_rows(attacks_, bounds, header);
    return {std::move(header)};
  }
  // Chunks of about equal bound, cut at attack boundaries and formatted
  // each into its own part: the parts in order are the serial text.
  const std::size_t chunks = core::num_threads();
  ACBM_SPAN_KV("trace.csv.format", "chunks=" + std::to_string(chunks));
  std::vector<std::size_t> cuts = {0};
  std::size_t acc = 0;
  for (std::size_t i = 0; i < attacks_.size(); ++i) {
    acc += bounds[i];
    if (acc >= total / chunks * cuts.size() && cuts.size() < chunks) {
      cuts.push_back(i + 1);
    }
  }
  cuts.push_back(attacks_.size());
  std::vector<std::string> parts(cuts.size());
  parts[0] = std::move(header);
  core::parallel_for(1, cuts.size(), [&](std::size_t c) {
    const std::size_t lo = cuts[c - 1];
    const std::size_t n = cuts[c] - lo;
    std::string part;  // Stored once: neighbouring slots share cache lines.
    append_rows(std::span(attacks_).subspan(lo, n),
                std::span(bounds).subspan(lo, n), part);
    parts[c] = std::move(part);
  });
  return parts;
}

void Dataset::save_csv(std::ostream& os) const {
  for (const std::string& part : csv_parts()) {
    os.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
}

Dataset Dataset::load_csv(std::string_view csv) {
  DatasetHeader header = parse_header(csv);
  if (csv.empty()) {
    throw std::invalid_argument("Dataset::load_csv: missing column header");
  }
  // save_csv ends every line in '\n'. Text that does not was cut short,
  // maybe inside a row's bots, where a cut can still leave valid addresses
  // ("10.9.0.12" -> "10.9.0.1").
  if (csv.back() != '\n') {
    throw std::invalid_argument(
        "Dataset::load_csv: truncated (last line has no newline)");
  }
  (void)next_line(csv);
  return Dataset(std::move(header.families), parse_rows(csv, 4), {},
                 header.window_start);
}

Dataset Dataset::load_csv(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  return load_csv(text.view());
}

namespace {

/// The binary block's byte-order probe, as the .armm header carries it.
constexpr std::uint32_t kBinaryEndianCheck = 0x01020304;
/// One attack record: id, family, target ip, target asn, start, duration
/// bits, bot count.
constexpr std::size_t kAttackRecordBytes = 8 + 4 + 4 + 4 + 8 + 8 + 8;
static_assert(sizeof(net::Ipv4) == 4 &&
              std::is_trivially_copyable_v<net::Ipv4>);

template <typename T>
char* put(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

[[noreturn]] void binary_error(const std::string& what) {
  throw std::invalid_argument("Dataset::load_binary: " + what);
}

/// Reads fixed-width fields off the front of a binary block; every read
/// checks the bytes left first.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : rest_(bytes) {}

  [[nodiscard]] std::size_t left() const noexcept { return rest_.size(); }

  /// Throws unless `count` items of `width` bytes fit in the bytes left.
  void need(std::uint64_t count, std::size_t width, const char* what) const {
    if (count > rest_.size() / width) {
      binary_error(std::string(what) + " count " + std::to_string(count) +
                   " exceeds the " + std::to_string(rest_.size()) +
                   " bytes left");
    }
  }

  template <typename T>
  T get(const char* what) {
    need(1, sizeof(T), what);
    T value;
    std::memcpy(&value, rest_.data(), sizeof(T));
    rest_.remove_prefix(sizeof(T));
    return value;
  }

  std::string_view take(std::size_t n) {
    const std::string_view out = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return out;
  }

 private:
  std::string_view rest_;
};

/// Reads a block's head off the front of `in`: the probe, the family names
/// and window_start.
DatasetHeader read_header(BinaryReader& in) {
  if (in.get<std::uint32_t>("probe") != kBinaryEndianCheck) {
    binary_error("byte-order probe mismatch (written on another "
                 "architecture, or not a dataset block)");
  }
  DatasetHeader header;
  const auto family_count = in.get<std::uint64_t>("family");
  in.need(family_count, 8, "family");
  header.families.reserve(family_count);
  for (std::uint64_t f = 0; f < family_count; ++f) {
    const auto length = in.get<std::uint64_t>("family name");
    in.need(length, 1, "family name byte");
    header.families.emplace_back(in.take(length));
  }
  header.window_start = in.get<std::int64_t>("window_start");
  return header;
}

/// Decodes the rest of one block after its head, its attacks checked
/// against its own `families`, onto the end of `attacks`.
void read_attacks(BinaryReader& in, std::size_t families,
                  std::vector<Attack>& attacks) {
  const auto attack_count = in.get<std::uint64_t>("attack");
  const auto bot_count = in.get<std::uint64_t>("bot");
  in.need(attack_count, kAttackRecordBytes, "attack");
  BinaryReader records(in.take(attack_count * kAttackRecordBytes));
  in.need(bot_count, sizeof(net::Ipv4), "bot");
  if (in.left() != bot_count * sizeof(net::Ipv4)) {
    binary_error(std::to_string(in.left() - bot_count * sizeof(net::Ipv4)) +
                 " bytes after the last bot");
  }
  std::string_view bot_bytes = in.take(in.left());

  // One pass over the records: each attack's family index and bot count
  // are checked before its bots are allocated and copied.
  const std::size_t first = attacks.size();
  attacks.resize(first + attack_count);
  for (Attack& attack : std::span(attacks).subspan(first)) {
    attack.id = records.get<std::uint64_t>("id");
    attack.family = records.get<std::uint32_t>("family");
    attack.target_ip = net::Ipv4(records.get<std::uint32_t>("target_ip"));
    attack.target_asn = records.get<std::uint32_t>("target_asn");
    attack.start = records.get<std::int64_t>("start");
    attack.duration_s =
        std::bit_cast<double>(records.get<std::uint64_t>("duration_s"));
    const auto bots = records.get<std::uint64_t>("bots");
    if (attack.family >= families) {
      binary_error("attack " + std::to_string(attack.id) + " has family " +
                   std::to_string(attack.family) + " of " +
                   std::to_string(families));
    }
    if (bots > bot_bytes.size() / sizeof(net::Ipv4)) {
      binary_error("bot counts exceed the total of " +
                   std::to_string(bot_count));
    }
    if (bots == 0) continue;
    attack.bots.resize(bots);
    std::memcpy(attack.bots.data(), bot_bytes.data(),
                bots * sizeof(net::Ipv4));
    bot_bytes.remove_prefix(bots * sizeof(net::Ipv4));
  }
  if (!bot_bytes.empty()) {
    binary_error("bot counts sum to " +
                 std::to_string(bot_count -
                                bot_bytes.size() / sizeof(net::Ipv4)) +
                 ", not the total of " + std::to_string(bot_count));
  }
}

/// Cuts `attacks`, holding `total` bots, into consecutive chunks of about
/// equal bot count: one chunk when the bots' bytes stay under
/// kCsvParallelFloor, else up to core::num_threads(). Returns the chunk
/// boundaries, 0 first and attacks.size() last.
std::vector<std::size_t> bot_cuts(std::span<const Attack> attacks,
                                  std::size_t total) {
  const std::size_t chunks = total * sizeof(net::Ipv4) < kCsvParallelFloor
                                 ? 1
                                 : core::num_threads();
  std::vector<std::size_t> cuts = {0};
  std::size_t acc = 0;
  for (std::size_t i = 0; i < attacks.size() && cuts.size() < chunks; ++i) {
    acc += attacks[i].bots.size();
    if (acc >= total / chunks * cuts.size()) cuts.push_back(i + 1);
  }
  cuts.push_back(attacks.size());
  return cuts;
}

}  // namespace

std::vector<std::string> Dataset::binary_parts() const {
  std::size_t head_bytes =
      4 + 8 + 8 + 8 + 8 + attacks_.size() * kAttackRecordBytes;
  for (const std::string& name : family_names_) head_bytes += 8 + name.size();
  std::size_t bots = 0;
  for (const Attack& attack : attacks_) bots += attack.bots.size();
  const std::vector<std::size_t> cuts = bot_cuts(attacks_, bots);
  ACBM_SPAN_KV("trace.binary.encode",
               "chunks=" + std::to_string(cuts.size() - 1));

  std::string head(head_bytes, '\0');
  char* p = put(head.data(), kBinaryEndianCheck);
  p = put<std::uint64_t>(p, family_names_.size());
  for (const std::string& name : family_names_) {
    p = put<std::uint64_t>(p, name.size());
    p = std::copy(name.begin(), name.end(), p);
  }
  p = put<std::int64_t>(p, window_start_);
  p = put<std::uint64_t>(p, attacks_.size());
  p = put<std::uint64_t>(p, bots);
  for (const Attack& attack : attacks_) {
    p = put<std::uint64_t>(p, attack.id);
    p = put<std::uint32_t>(p, attack.family);
    p = put<std::uint32_t>(p, attack.target_ip.value);
    p = put<std::uint32_t>(p, attack.target_asn);
    p = put<std::int64_t>(p, attack.start);
    p = put(p, std::bit_cast<std::uint64_t>(attack.duration_s));
    p = put<std::uint64_t>(p, attack.bots.size());
  }
  // The bots, one part per chunk, each filled on its own pool thread: the
  // parts in order are the same bytes at any thread count.
  std::vector<std::string> parts(cuts.size());
  parts[0] = std::move(head);
  core::parallel_for(1, cuts.size(), [&](std::size_t c) {
    const std::span<const Attack> chunk =
        std::span(attacks_).subspan(cuts[c - 1], cuts[c] - cuts[c - 1]);
    std::size_t n = 0;
    for (const Attack& attack : chunk) n += attack.bots.size();
    std::string part(n * sizeof(net::Ipv4), '\0');
    char* b = part.data();
    for (const Attack& attack : chunk) {
      if (attack.bots.empty()) continue;
      const std::size_t bytes = attack.bots.size() * sizeof(net::Ipv4);
      std::memcpy(b, attack.bots.data(), bytes);
      b += bytes;
    }
    parts[c] = std::move(part);
  });
  return parts;
}

Dataset Dataset::load_binary(std::span<const std::string_view> blocks) {
  std::size_t bytes = 0;
  for (const std::string_view block : blocks) bytes += block.size();
  ACBM_SPAN_KV("trace.binary.decode", "bytes=" + std::to_string(bytes));
  if (blocks.empty()) binary_error("no block");
  std::vector<std::string> families;
  std::vector<Attack> attacks;
  EpochSeconds window_start = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    BinaryReader in(blocks[i]);
    DatasetHeader header = read_header(in);
    read_attacks(in, header.families.size(), attacks);
    if (i == 0) window_start = header.window_start;
    if (header.families.size() > families.size()) {
      families = std::move(header.families);
    }
  }
  return Dataset(std::move(families), std::move(attacks), {}, window_start);
}

DatasetHeader Dataset::load_binary_header(std::string_view block) {
  BinaryReader in(block);
  return read_header(in);
}

}  // namespace acbm::trace

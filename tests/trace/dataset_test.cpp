#include "trace/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace acbm::trace {
namespace {

constexpr EpochSeconds kStart = 1343779200;  // 2012-08-01.

Attack make_attack(std::uint64_t id, std::uint32_t family, net::Asn asn,
                   EpochSeconds start, double duration = 600.0) {
  Attack a;
  a.id = id;
  a.family = family;
  a.target_ip = net::Ipv4(10, 0, 0, static_cast<std::uint8_t>(id));
  a.target_asn = asn;
  a.start = start;
  a.duration_s = duration;
  a.bots = {net::Ipv4(172, 16, 0, 1), net::Ipv4(172, 16, 0, 2)};
  return a;
}

Dataset make_dataset() {
  std::vector<Attack> attacks{
      make_attack(3, 0, 100, kStart + 7200),
      make_attack(1, 1, 200, kStart + 100),
      make_attack(2, 0, 100, kStart + 3600),
      make_attack(4, 1, 300, kStart + 90000),
  };
  return Dataset({"FamA", "FamB"}, std::move(attacks), {}, kStart);
}

TEST(DecomposeTimestamp, DayAndHourParts) {
  const DayHour a = decompose_timestamp(kStart, kStart);
  EXPECT_EQ(a.day, 0);
  EXPECT_EQ(a.hour, 0);
  const DayHour b = decompose_timestamp(kStart + 86400 + 3 * 3600 + 59, kStart);
  EXPECT_EQ(b.day, 1);
  EXPECT_EQ(b.hour, 3);
  const DayHour c = decompose_timestamp(kStart + 23 * 3600 + 3599, kStart);
  EXPECT_EQ(c.day, 0);
  EXPECT_EQ(c.hour, 23);
}

TEST(Dataset, SortsAttacksChronologically) {
  const Dataset ds = make_dataset();
  ASSERT_EQ(ds.size(), 4u);
  for (std::size_t i = 0; i + 1 < ds.size(); ++i) {
    EXPECT_LE(ds.attacks()[i].start, ds.attacks()[i + 1].start);
  }
  EXPECT_EQ(ds.attacks().front().id, 1u);
}

TEST(Dataset, RejectsUnknownFamilyIndex) {
  std::vector<Attack> attacks{make_attack(1, 7, 100, kStart)};
  EXPECT_THROW(Dataset({"OnlyFam"}, std::move(attacks), {}, kStart),
               std::invalid_argument);
}

TEST(Dataset, FamilyIndexLookup) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.family_index("FamA"), 0u);
  EXPECT_EQ(ds.family_index("FamB"), 1u);
  EXPECT_THROW((void)ds.family_index("Nope"), std::out_of_range);
}

TEST(Dataset, AttacksOfFamilyAreChronological) {
  const Dataset ds = make_dataset();
  const auto fam0 = ds.attacks_of_family(0);
  ASSERT_EQ(fam0.size(), 2u);
  EXPECT_LT(ds.attacks()[fam0[0]].start, ds.attacks()[fam0[1]].start);
  EXPECT_TRUE(ds.attacks_of_family(9).empty());
}

TEST(Dataset, AttacksOnAsn) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.attacks_on_asn(100).size(), 2u);
  EXPECT_EQ(ds.attacks_on_asn(200).size(), 1u);
  EXPECT_TRUE(ds.attacks_on_asn(999).empty());
}

TEST(Dataset, TargetAsnsOrderedByVolume) {
  const Dataset ds = make_dataset();
  const auto asns = ds.target_asns();
  ASSERT_EQ(asns.size(), 3u);
  EXPECT_EQ(asns.front(), 100u);  // Two attacks.
}

TEST(Dataset, SplitPreservesChronologyAndProportion) {
  const Dataset ds = make_dataset();
  const auto [train, test] = ds.split(0.75);
  EXPECT_EQ(train.size(), 3u);
  EXPECT_EQ(test.size(), 1u);
  EXPECT_LE(train.attacks().back().start, test.attacks().front().start);
  EXPECT_EQ(train.family_names(), ds.family_names());
  EXPECT_EQ(train.window_start(), ds.window_start());
}

TEST(Dataset, SplitRejectsBadFraction) {
  const Dataset ds = make_dataset();
  EXPECT_THROW((void)ds.split(0.0), std::invalid_argument);
  EXPECT_THROW((void)ds.split(1.0), std::invalid_argument);
}

TEST(Dataset, CsvRoundTrip) {
  const Dataset ds = make_dataset();
  std::stringstream ss;
  ds.save_csv(ss);
  const Dataset back = Dataset::load_csv(ss);
  ASSERT_EQ(back.size(), ds.size());
  EXPECT_EQ(back.family_names(), ds.family_names());
  EXPECT_EQ(back.window_start(), ds.window_start());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Attack& a = ds.attacks()[i];
    const Attack& b = back.attacks()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.target_ip, b.target_ip);
    EXPECT_EQ(a.target_asn, b.target_asn);
    EXPECT_EQ(a.start, b.start);
    EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
    EXPECT_EQ(a.bots, b.bots);
  }
}

TEST(Dataset, LoadCsvRejectsGarbage) {
  std::stringstream ss("not a dataset\n");
  EXPECT_THROW((void)Dataset::load_csv(ss), std::invalid_argument);
}

constexpr std::string_view kCsvHead =
    "#window_start=1343779200\n#families=FamA;FamB\n"
    "id,family,target_ip,target_asn,start,duration_s,bots\n";

/// kCsvHead plus one attack row.
std::string csv_with_row(std::string_view row) {
  return std::string(kCsvHead) + std::string(row) + "\n";
}

TEST(Dataset, LoadCsvStreamAndViewAgree) {
  std::ostringstream os;
  make_dataset().save_csv(os);
  const std::string text = os.str();
  std::istringstream is(text);
  const Dataset from_stream = Dataset::load_csv(is);
  const Dataset from_view = Dataset::load_csv(text);
  std::ostringstream a;
  std::ostringstream b;
  from_stream.save_csv(a);
  from_view.save_csv(b);
  EXPECT_EQ(a.str(), text);
  EXPECT_EQ(b.str(), text);
}

TEST(Dataset, LoadCsvAcceptsARowWithNoBots) {
  const Dataset ds =
      Dataset::load_csv(csv_with_row("7,1,10.0.0.7,300,1343779300,12.5,"));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.attacks()[0].id, 7u);
  EXPECT_EQ(ds.attacks()[0].family, 1u);
  EXPECT_DOUBLE_EQ(ds.attacks()[0].duration_s, 12.5);
  EXPECT_TRUE(ds.attacks()[0].bots.empty());
}

TEST(Dataset, LoadCsvRejectsTruncatedRows) {
  // A short row must not take the last field it has for the missing ones
  // (start = duration = 5 here).
  EXPECT_THROW((void)Dataset::load_csv(csv_with_row("1,0,10.0.0.1,5")),
               std::invalid_argument);
  // Six fields but no bots column.
  EXPECT_THROW(
      (void)Dataset::load_csv(csv_with_row("1,0,10.0.0.1,5,1343779300,600")),
      std::invalid_argument);
}

TEST(Dataset, LoadCsvRejectsPartlyConsumedNumbers) {
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,0,10.0.0.1,5,1343779300,12.5x,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,0,10.0.0.1,5 ,1343779300,600,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   "#window_start=1343779200z\n#families=FamA\nheader\n"),
               std::invalid_argument);
}

TEST(Dataset, LoadCsvRejectsNegativeAndOverflowingUnsignedFields) {
  // An id of -1 used to wrap to 18446744073709551615.
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("-1,0,10.0.0.1,5,1343779300,600,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,-1,10.0.0.1,5,1343779300,600,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,0,10.0.0.1,-5,1343779300,600,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,4294967296,10.0.0.1,5,1343779300,600,")),
               std::invalid_argument);
  // start is signed: a pre-window timestamp still parses.
  EXPECT_EQ(Dataset::load_csv(csv_with_row("1,0,10.0.0.1,5,-60,600,"))
                .attacks()[0]
                .start,
            -60);
}

TEST(Dataset, LoadCsvRejectsBadAddresses) {
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,0,10.0.0,5,1343779300,600,")),
               std::invalid_argument);
  EXPECT_THROW((void)Dataset::load_csv(
                   csv_with_row("1,0,10.0.0.1,5,1343779300,600,1.2.3.4;5.6.")),
               std::invalid_argument);
}

TEST(Dataset, LoadCsvRejectsEveryPrefixEndingInsideARow) {
  std::vector<Attack> attacks{
      make_attack(1, 0, 100, kStart + 100, 12.25),
      make_attack(2, 1, 200, kStart + 3600),
      make_attack(3, 0, 100, kStart + 7200),
  };
  attacks[1].bots.clear();
  // Cut inside its last octet, "172.16.0.12" leaves a valid "172.16.0.1".
  attacks[2].bots.push_back(net::Ipv4(172, 16, 0, 12));
  std::ostringstream os;
  Dataset({"FamA", "FamB"}, std::move(attacks), {}, kStart).save_csv(os);
  const std::string csv = os.str();

  std::size_t row = csv.find('\n', csv.find('\n', csv.find('\n') + 1) + 1) + 1;
  std::size_t in_bots = 0;
  while (row < csv.size()) {
    // A prefix that ends on a row boundary is itself a valid CSV.
    EXPECT_NO_THROW((void)Dataset::load_csv(std::string_view(csv).substr(0, row)));
    // One past the sixth comma: the bots field starts there.
    std::size_t bots = row;
    for (int comma = 0; comma < 6; ++comma) bots = csv.find(',', bots) + 1;
    const std::size_t next = csv.find('\n', row) + 1;
    // Every cut inside the row, the bots and the ';' after a bot included.
    for (std::size_t end = row + 1; end < next; ++end) {
      EXPECT_THROW((void)Dataset::load_csv(std::string_view(csv).substr(0, end)),
                   std::invalid_argument)
          << "prefix of " << end << " bytes: '" << csv.substr(row, end - row)
          << "'";
      if (end > bots) ++in_bots;
    }
    row = next;
  }
  EXPECT_GT(in_bots, 40u);
  EXPECT_EQ(Dataset::load_csv(csv).size(), 3u);
}

TEST(Dataset, LoadCsvHeaderReadsOnlyTheHeaderLines) {
  const CsvHeader header = Dataset::load_csv_header(
      csv_with_row("this row is not parsed"));
  EXPECT_EQ(header.window_start, 1343779200);
  EXPECT_EQ(header.families, (std::vector<std::string>{"FamA", "FamB"}));
  EXPECT_THROW((void)Dataset::load_csv_header("#families=FamA\n"),
               std::invalid_argument);
}

TEST(DatasetValidation, CleanInputReportsClean) {
  std::vector<Attack> attacks{
      make_attack(1, 0, 100, kStart + 100),
      make_attack(2, 0, 100, kStart + 3600),
  };
  const Dataset ds = Dataset({"FamA"}, std::move(attacks), {}, kStart);
  EXPECT_TRUE(ds.validation().clean());
  EXPECT_EQ(ds.validation().total(), 0u);
}

TEST(DatasetValidation, CountsOutOfOrderTimestamps) {
  const Dataset ds = make_dataset();  // Constructed deliberately shuffled.
  EXPECT_FALSE(ds.validation().clean());
  EXPECT_GT(ds.validation().out_of_order, 0u);
  EXPECT_EQ(ds.validation().duplicate_ids, 0u);
  for (std::size_t i = 0; i + 1 < ds.size(); ++i) {
    EXPECT_LE(ds.attacks()[i].start, ds.attacks()[i + 1].start);
  }
}

TEST(DatasetValidation, RepairsNonfiniteAndNegativeDurations) {
  std::vector<Attack> attacks{
      make_attack(1, 0, 100, kStart + 100,
                  std::numeric_limits<double>::quiet_NaN()),
      make_attack(2, 0, 100, kStart + 200,
                  std::numeric_limits<double>::infinity()),
      make_attack(3, 0, 100, kStart + 300, -50.0),
      make_attack(4, 0, 100, kStart + 400, 600.0),
  };
  const Dataset ds = Dataset({"FamA"}, std::move(attacks), {}, kStart);
  EXPECT_EQ(ds.validation().nonfinite_durations, 2u);
  EXPECT_EQ(ds.validation().negative_durations, 1u);
  EXPECT_DOUBLE_EQ(ds.attacks()[0].duration_s, 0.0);
  EXPECT_DOUBLE_EQ(ds.attacks()[1].duration_s, 0.0);
  EXPECT_DOUBLE_EQ(ds.attacks()[2].duration_s, 0.0);
  EXPECT_DOUBLE_EQ(ds.attacks()[3].duration_s, 600.0);
}

TEST(DatasetValidation, ReassignsDuplicateIdsPastTheMaximum) {
  std::vector<Attack> attacks{
      make_attack(5, 0, 100, kStart + 100),
      make_attack(5, 0, 200, kStart + 3600),
      make_attack(9, 0, 300, kStart + 7200),
  };
  const Dataset ds = Dataset({"FamA"}, std::move(attacks), {}, kStart);
  EXPECT_EQ(ds.validation().duplicate_ids, 1u);
  // Chronologically first holder keeps the id; the later one gets a fresh
  // id past the maximum.
  EXPECT_EQ(ds.attacks()[0].id, 5u);
  EXPECT_EQ(ds.attacks()[1].id, 10u);
  EXPECT_EQ(ds.attacks()[2].id, 9u);
  std::unordered_set<std::uint64_t> ids;
  for (const Attack& a : ds.attacks()) {
    EXPECT_TRUE(ids.insert(a.id).second) << "duplicate id " << a.id;
  }
}

TEST(DatasetValidation, WriteListsOnlyNonzeroCounters) {
  std::vector<Attack> attacks{
      make_attack(1, 0, 100, kStart + 100, -1.0),
      make_attack(2, 0, 100, kStart + 200),
  };
  const Dataset ds = Dataset({"FamA"}, std::move(attacks), {}, kStart);
  std::ostringstream os;
  ds.validation().write(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("1 negative duration"), std::string::npos);
  EXPECT_EQ(text.find("non-finite"), std::string::npos);
  EXPECT_EQ(text.find("duplicate"), std::string::npos);
}

TEST(DatasetValidation, CorruptCsvRoundTripsThroughRepair) {
  // A dataset written with a NaN duration loads back repaired.
  std::vector<Attack> attacks{
      make_attack(1, 0, 100, kStart + 100,
                  std::numeric_limits<double>::quiet_NaN()),
      make_attack(2, 0, 100, kStart + 200),
  };
  const Dataset dirty = Dataset({"FamA"}, std::move(attacks), {}, kStart);
  EXPECT_EQ(dirty.validation().nonfinite_durations, 1u);
  std::stringstream ss;
  dirty.save_csv(ss);
  const Dataset back = Dataset::load_csv(ss);
  // The repair happened at construction, so the round trip is clean.
  EXPECT_TRUE(back.validation().clean());
  EXPECT_DOUBLE_EQ(back.attacks()[0].duration_s, 0.0);
}

/// The stream writer the to_chars one replaced (durations through an
/// ostream at setprecision(17), octets through operator<<): the bytes
/// append_csv and save_csv must reproduce.
std::string reference_csv(const Dataset& ds) {
  const auto put_address = [](std::ostream& os, net::Ipv4 addr) {
    os << ((addr.value >> 24) & 0xFF) << '.' << ((addr.value >> 16) & 0xFF)
       << '.' << ((addr.value >> 8) & 0xFF) << '.' << (addr.value & 0xFF);
  };
  std::ostringstream os;
  os << std::setprecision(17);
  os << "#window_start=" << ds.window_start() << "\n#families=";
  for (std::size_t i = 0; i < ds.family_names().size(); ++i) {
    os << ds.family_names()[i] << (i + 1 < ds.family_names().size() ? ";" : "");
  }
  os << "\nid,family,target_ip,target_asn,start,duration_s,bots\n";
  for (const Attack& attack : ds.attacks()) {
    os << attack.id << ',' << attack.family << ',';
    put_address(os, attack.target_ip);
    os << ',' << attack.target_asn << ',' << attack.start << ','
       << attack.duration_s << ',';
    for (std::size_t i = 0; i < attack.bots.size(); ++i) {
      if (i > 0) os << ';';
      put_address(os, attack.bots[i]);
    }
    os << '\n';
  }
  return os.str();
}

TEST(DatasetCsvWriter, MatchesTheStreamReferenceByteForByte) {
  std::mt19937_64 rng(20170605);
  std::vector<double> durations = {
      0.0,     5e-324, 1e-300, 1e21,   1.0,     600.0, 86400.0,
      0.1,     1.0 / 3.0,      9007199254740992.0,     123456789012.0,
      1e-5,    2.5e15, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min()};
  while (durations.size() < 400) {
    // Random bit patterns cover every exponent; half are then rounded to
    // exact integers, the common case in a trace.
    double d = std::bit_cast<double>(rng());
    if (!std::isfinite(d)) continue;
    d = std::fabs(d);
    if (rng() % 2 == 0) d = std::round(std::fmod(d, 1e7));
    durations.push_back(d);
  }
  constexpr std::array<std::uint8_t, 6> kOctets = {0, 9, 10, 99, 100, 255};
  const auto octet = [&] {
    return rng() % 3 == 0 ? static_cast<std::uint8_t>(rng())
                          : kOctets[rng() % kOctets.size()];
  };
  const auto address = [&] {
    return net::Ipv4(octet(), octet(), octet(), octet());
  };
  std::vector<Attack> attacks;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    Attack a;
    a.id = i % 7 == 0 ? rng() : i;
    a.family = static_cast<std::uint32_t>(rng() % 3);
    a.target_ip = address();
    a.target_asn = static_cast<net::Asn>(rng());
    // Chronological, from negative timestamps through kStart and past it.
    a.start = -kStart + static_cast<EpochSeconds>(i) * 2 * kStart /
                            static_cast<EpochSeconds>(durations.size()) +
              static_cast<EpochSeconds>(rng() % 1000);
    a.duration_s = durations[i];
    const std::size_t bots = i % 5 == 0 ? 0 : rng() % 9;
    for (std::size_t b = 0; b < bots; ++b) a.bots.push_back(address());
    attacks.push_back(std::move(a));
  }
  const Dataset ds({"FamA", "FamB", "FamC"}, std::move(attacks), {}, kStart);
  ASSERT_TRUE(ds.validation().clean());
  const std::string expected = reference_csv(ds);

  std::string text = "prefix";
  const std::size_t lines = ds.append_csv(text);
  ASSERT_EQ(text.substr(0, 6), "prefix");
  EXPECT_EQ(text.substr(6), expected);
  EXPECT_EQ(lines, static_cast<std::size_t>(
                       std::count(expected.begin(), expected.end(), '\n')));
  std::ostringstream os;
  ds.save_csv(os);
  EXPECT_EQ(os.str(), expected);

  // The text loads back to the same attacks, durations bit for bit.
  const Dataset back = Dataset::load_csv(expected);
  ASSERT_EQ(back.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Attack& a = ds.attacks()[i];
    const Attack& b = back.attacks()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.target_ip, b.target_ip);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.duration_s),
              std::bit_cast<std::uint64_t>(b.duration_s));
    EXPECT_EQ(a.bots, b.bots);
  }
  std::string again;
  back.append_csv(again);
  EXPECT_EQ(again, expected);
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += part;
  return out;
}

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.family_names(), b.family_names());
  EXPECT_EQ(a.window_start(), b.window_start());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Attack& x = a.attacks()[i];
    const Attack& y = b.attacks()[i];
    EXPECT_EQ(x.id, y.id) << i;
    EXPECT_EQ(x.family, y.family) << i;
    EXPECT_EQ(x.target_ip, y.target_ip) << i;
    EXPECT_EQ(x.target_asn, y.target_asn) << i;
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.duration_s),
              std::bit_cast<std::uint64_t>(y.duration_s))
        << i;
    EXPECT_EQ(x.bots, y.bots) << i;
  }
}

/// Binary round trip: the loaded dataset equals `ds` field by field, and
/// encoding it again gives the same bytes.
void expect_binary_round_trip(const Dataset& ds) {
  const std::string bytes = join(ds.binary_parts());
  const Dataset back = Dataset::load_binary(bytes);
  expect_same_dataset(ds, back);
  EXPECT_TRUE(join(back.binary_parts()) == bytes);
}

TEST(Dataset, BinaryCodecRoundTrips) {
  std::mt19937_64 rng(20170606);
  std::vector<double> durations = {
      0.0, -0.0, 5e-324, 1e-300, std::numeric_limits<double>::max(),
      1.0 / 3.0, 600.0};
  while (durations.size() < 300) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) durations.push_back(std::fabs(d));
  }
  std::vector<Attack> attacks;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    Attack a;
    a.id = i % 7 == 0 ? rng() : i;
    a.family = static_cast<std::uint32_t>(rng() % 4);
    a.target_ip = net::Ipv4(static_cast<std::uint32_t>(rng()));
    a.target_asn = static_cast<net::Asn>(rng());
    a.start = -kStart + static_cast<EpochSeconds>(i) * 2 * kStart /
                            static_cast<EpochSeconds>(durations.size());
    a.duration_s = durations[i];
    const std::size_t bots = i % 5 == 0 ? 0 : rng() % 40;
    for (std::size_t b = 0; b < bots; ++b) {
      a.bots.emplace_back(static_cast<std::uint32_t>(rng()));
    }
    attacks.push_back(std::move(a));
  }
  // Names CSV could not carry: separators and an empty name.
  const Dataset ds({"Fam;A", "Fam,B", "", "Dirt Jumper"}, std::move(attacks),
                   {}, kStart);
  ASSERT_TRUE(ds.validation().clean());
  ASSERT_EQ(std::bit_cast<std::uint64_t>(ds.attacks()[1].duration_s),
            std::bit_cast<std::uint64_t>(-0.0));
  expect_binary_round_trip(ds);
  expect_binary_round_trip(make_dataset());
  // Every attack without bots, and datasets without attacks or families.
  std::vector<Attack> botless = make_dataset().attacks();
  for (Attack& a : botless) a.bots.clear();
  expect_binary_round_trip(Dataset({"FamA", "FamB"}, std::move(botless), {},
                                   kStart));
  expect_binary_round_trip(Dataset({"FamA"}, {}, {}, kStart));
  expect_binary_round_trip(Dataset());
}

/// Offsets into the binary block of make_dataset(): the attack count (the
/// bot count follows it) and the first attack record.
constexpr std::size_t kAttackCountAt = 4 + 8 + (8 + 4) * 2 + 8;
constexpr std::size_t kRecordsAt = kAttackCountAt + 16;
constexpr std::size_t kRecordBytes = 44;

template <typename T>
std::string with(std::string bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  return bytes;
}

template <typename T>
T read_at(const std::string& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

TEST(Dataset, MalformedBinaryIsTyped) {
  const Dataset ds = make_dataset();
  const std::string bytes = join(ds.binary_parts());
  ASSERT_EQ(read_at<std::uint64_t>(bytes, kAttackCountAt), ds.size());
  ASSERT_EQ(read_at<std::uint64_t>(bytes, kAttackCountAt + 8), 8u);
  ASSERT_EQ(bytes.size(), kRecordsAt + 4 * kRecordBytes + 8 * 4);
  const auto expect_rejected = [](const std::string& block,
                                  const std::string& what) {
    EXPECT_THROW((void)Dataset::load_binary(block), std::invalid_argument)
        << what;
  };
  // Every cut short of the whole block, and one byte too many.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    expect_rejected(bytes.substr(0, n), "cut at " + std::to_string(n));
  }
  expect_rejected(bytes + '\0', "trailing byte");
  // Counts far past the bytes: rejected before anything is allocated.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 60;
  expect_rejected(with(bytes, 4, kHuge), "family count 2^60");
  expect_rejected(with(bytes, 12, kHuge), "family name length 2^60");
  expect_rejected(with(bytes, kAttackCountAt, kHuge), "attack count 2^60");
  expect_rejected(with(bytes, kAttackCountAt + 8, kHuge), "bot count 2^60");
  expect_rejected(with(bytes, kAttackCountAt, ~std::uint64_t{0}),
                  "attack count 2^64 - 1");
  expect_rejected(with(bytes, kRecordsAt + 36, kHuge), "attack bots 2^60");
  // Byte order, family index and the bot total.
  expect_rejected(with(bytes, 0, std::uint32_t{0x04030201}), "byte order");
  expect_rejected(with(bytes, kRecordsAt + 8, std::uint32_t{2}),
                  "family index 2 of 2");
  expect_rejected(with(bytes, kRecordsAt + 36, std::uint64_t{3}),
                  "bot counts sum past the total");
  expect_rejected(with(bytes, kRecordsAt + 36, std::uint64_t{1}),
                  "bot counts sum short of the total");
  // The intact block still loads.
  EXPECT_NO_THROW((void)Dataset::load_binary(bytes));
}

TEST(Attack, EndAndMagnitude) {
  const Attack a = make_attack(1, 0, 100, kStart, 450.0);
  EXPECT_EQ(a.end(), kStart + 450);
  EXPECT_EQ(a.magnitude(), 2u);
}

}  // namespace
}  // namespace acbm::trace

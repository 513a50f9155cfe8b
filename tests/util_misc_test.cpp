// Tests for the time base, string helpers, and binary I/O primitives.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_hash.hpp"
#include "util/io.hpp"
#include "util/strings.hpp"
#include "util/timebase.hpp"

namespace iotscope::util {
namespace {

// ---------------- timebase ----------------

TEST(AnalysisWindow, BoundsAndContainment) {
  EXPECT_EQ(AnalysisWindow::kHours, 143);
  EXPECT_EQ(AnalysisWindow::end() - AnalysisWindow::start(),
            143 * kSecondsPerHour);
  EXPECT_TRUE(AnalysisWindow::contains(AnalysisWindow::start()));
  EXPECT_TRUE(AnalysisWindow::contains(AnalysisWindow::end() - 1));
  EXPECT_FALSE(AnalysisWindow::contains(AnalysisWindow::end()));
  EXPECT_FALSE(AnalysisWindow::contains(AnalysisWindow::start() - 1));
}

TEST(AnalysisWindow, StartIsApril12_2017Utc) {
  EXPECT_EQ(format_utc(AnalysisWindow::start()), "2017-04-12 00:00:00");
}

TEST(AnalysisWindow, IntervalOfMapsHourBoundaries) {
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::start()), 0);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::start() + 3599), 0);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::start() + 3600), 1);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::end() - 1), 142);
}

TEST(AnalysisWindow, IntervalOfRejectsOutOfWindowTimestamps) {
  // Regression: these used to clamp to hours 0/142, silently folding
  // stray records into the edge intervals of every hourly series.
  EXPECT_EQ(AnalysisWindow::interval_of(0), AnalysisWindow::kOutOfWindow);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::start() - 1),
            AnalysisWindow::kOutOfWindow);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::end()),
            AnalysisWindow::kOutOfWindow);
  EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::end() + 999999),
            AnalysisWindow::kOutOfWindow);
  EXPECT_LT(AnalysisWindow::kOutOfWindow, 0);
}

TEST(AnalysisWindow, IntervalStartInvertsIntervalOf) {
  for (int h = 0; h < AnalysisWindow::kHours; ++h) {
    EXPECT_EQ(AnalysisWindow::interval_of(AnalysisWindow::interval_start(h)),
              h);
  }
}

TEST(AnalysisWindow, DayOfInterval) {
  EXPECT_EQ(AnalysisWindow::day_of_interval(0), 0);
  EXPECT_EQ(AnalysisWindow::day_of_interval(23), 0);
  EXPECT_EQ(AnalysisWindow::day_of_interval(24), 1);
  EXPECT_EQ(AnalysisWindow::day_of_interval(142), 5);
  EXPECT_EQ(AnalysisWindow::day_of_interval(-3), 0);
}

TEST(Timebase, FormatWindowDay) {
  EXPECT_EQ(format_window_day(0), "APR-12");
  EXPECT_EQ(format_window_day(5), "APR-17");
  EXPECT_EQ(format_window_day(99), "APR-17");  // clamped
}

// ---------------- strings ----------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(to_lower("TeLnEt/23"), "telnet/23");
  EXPECT_TRUE(starts_with("flowtuple-0042.ift", "flowtuple-"));
  EXPECT_FALSE(starts_with("flow", "flowtuple"));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(26881), "26,881");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(Strings, HumanCount) {
  EXPECT_EQ(human_count(950), "950");
  EXPECT_EQ(human_count(26881), "26.9K");
  EXPECT_EQ(human_count(141300000), "141.3M");
  EXPECT_EQ(human_count(2.5e9), "2.5B");
}

TEST(Strings, PercentAndFixed) {
  EXPECT_EQ(percent(26.881), "26.9%");
  EXPECT_EQ(percent(2.52, 2), "2.52%");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

// ---------------- binary io ----------------

TEST(Io, IntegerRoundTripAllWidths) {
  std::stringstream ss;
  write_u8(ss, 0xAB);
  write_u16(ss, 0xBEEF);
  write_u32(ss, 0xDEADBEEF);
  write_u64(ss, 0x0123456789ABCDEFULL);
  EXPECT_EQ(read_u8(ss), 0xAB);
  EXPECT_EQ(read_u16(ss), 0xBEEF);
  EXPECT_EQ(read_u32(ss), 0xDEADBEEFu);
  EXPECT_EQ(read_u64(ss), 0x0123456789ABCDEFULL);
}

TEST(Io, LittleEndianOnDisk) {
  std::stringstream ss;
  write_u32(ss, 0x01020304);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
}

TEST(Io, ReadPastEndThrows) {
  std::stringstream ss;
  write_u16(ss, 7);
  read_u16(ss);
  EXPECT_THROW(read_u8(ss), IoError);
}

TEST(Io, StringRoundTripIncludingEmbeddedNulAndUnicode) {
  std::stringstream ss;
  const std::string original("a\0b\xc3\xa9", 4);
  write_string(ss, original);
  EXPECT_EQ(read_string(ss), original);
}

TEST(Io, StringSanityCapEnforced) {
  std::stringstream ss;
  write_string(ss, std::string(64, 'x'));
  EXPECT_THROW(read_string(ss, 10), IoError);
}

TEST(Io, TruncatedStringThrows) {
  std::stringstream ss;
  write_u32(ss, 100);  // claims 100 bytes, provides none
  EXPECT_THROW(read_string(ss), IoError);
}

TEST(Io, FileRoundTripAndMissingFile) {
  TempDir dir;
  const auto path = dir.path() / "blob.bin";
  write_file(path, "hello\0world");
  EXPECT_EQ(read_file(path), "hello");  // std::string ctor stops at NUL here
  write_file(path, std::string("a\0b", 3));
  EXPECT_EQ(read_file(path).size(), 3u);
  EXPECT_THROW(read_file(dir.path() / "absent"), IoError);
  write_file(path, "");
  EXPECT_EQ(read_file(path), "");
  // A directory opens on Linux but has no file size to read.
  EXPECT_THROW(read_file(dir.path()), IoError);
}

TEST(Io, FileReaderReadsSequentiallyAndReportsShortReads) {
  TempDir dir;
  const auto path = dir.path() / "f.bin";
  write_file(path, "abcdefgh");
  FileReader file(path);
  EXPECT_EQ(file.size(), 8u);
  char buf[8] = {};
  file.read_exact(buf, 3);
  EXPECT_EQ(std::string(buf, 3), "abc");
  EXPECT_EQ(file.read_some(buf, sizeof buf), 5u);  // only to the end
  EXPECT_EQ(std::string(buf, 5), "defgh");
  EXPECT_EQ(file.read_some(buf, sizeof buf), 0u);
  EXPECT_THROW(file.read_exact(buf, 1), IoError);
  EXPECT_THROW(FileReader(dir.path() / "absent"), IoError);
  EXPECT_THROW(FileReader(dir.path()), IoError);
}

TEST(Io, TempDirCreatesAndCleansUp) {
  std::filesystem::path captured;
  {
    TempDir dir("iotscope-test");
    captured = dir.path();
    EXPECT_TRUE(std::filesystem::exists(captured));
    write_file(captured / "f.txt", "x");
  }
  EXPECT_FALSE(std::filesystem::exists(captured));
}

// ---------------- block codec cursor ----------------

TEST(ByteCursor, WriterReaderRoundTripAllWidths) {
  std::string buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  const unsigned char raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof raw);
  ASSERT_EQ(buf.size(), 1u + 2 + 4 + 8 + 3);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  const unsigned char* tail = r.bytes(3);
  EXPECT_EQ(tail[0], 1);
  EXPECT_EQ(tail[2], 3);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCursor, WriterMatchesStreamPrimitivesByteForByte) {
  // The block writer must lay down exactly the bytes the stream
  // primitives do — the two codec paths share one on-disk format.
  std::string buf;
  ByteWriter w(buf);
  w.u16(0x1234);
  w.u32(0xCAFEBABE);
  w.u64(0x1122334455667788ULL);
  std::ostringstream os;
  write_u16(os, 0x1234);
  write_u32(os, 0xCAFEBABE);
  write_u64(os, 0x1122334455667788ULL);
  EXPECT_EQ(buf, os.str());
}

TEST(ByteCursor, ReaderThrowsOnOverrunWithoutAdvancing) {
  const std::string buf("\x01\x02\x03", 3);
  ByteReader r(buf);
  EXPECT_THROW(r.u32(), IoError);
  EXPECT_THROW(r.bytes(4), IoError);
  // A failed read must not consume input.
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW(r.u16(), IoError);
  EXPECT_EQ(r.u8(), 0x03);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), IoError);
}

// ---------------- flat hash containers ----------------

TEST(FlatHash, SetInsertContainsAndDuplicates) {
  FlatSet<std::uint32_t> set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(7));
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));  // duplicate
  EXPECT_TRUE(set.insert(0));   // zero is a valid key (epoch marks empties)
  EXPECT_TRUE(set.contains(7));
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatHash, EpochClearForgetsEverythingWithoutShrinking) {
  FlatSet<std::uint32_t> set;
  for (std::uint32_t i = 0; i < 100; ++i) set.insert(i);
  EXPECT_EQ(set.size(), 100u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_FALSE(set.contains(i));
  // Reuse after clear: stale slots must be treated as empty, and
  // re-inserting must report "fresh" again.
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_TRUE(set.insert(i));
  EXPECT_EQ(set.size(), 100u);
}

TEST(FlatHash, SetMatchesUnorderedReferenceUnderChurn) {
  std::mt19937_64 rng(99);
  FlatSet<std::uint64_t> set;
  std::unordered_set<std::uint64_t> reference;
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t key = rng() % 1500;  // force duplicates
      EXPECT_EQ(set.insert(key), reference.insert(key).second);
    }
    ASSERT_EQ(set.size(), reference.size());
    std::size_t visited = 0;
    set.for_each([&](std::uint64_t key) {
      ++visited;
      EXPECT_TRUE(reference.count(key));
    });
    EXPECT_EQ(visited, reference.size());
    for (std::uint64_t probe = 0; probe < 2000; ++probe) {
      ASSERT_EQ(set.contains(probe), reference.count(probe) != 0);
    }
    set.clear();
    reference.clear();
  }
}

TEST(FlatHash, InsertAllUnionsLiveKeysAndReportsEachNewOnce) {
  // A lane cleared by epoch keeps its stale slots; only its live keys
  // may reach the union, and on_new must fire exactly for the keys the
  // destination did not hold.
  std::mt19937_64 rng(7);
  FlatSet<std::uint64_t> merged;
  std::unordered_set<std::uint64_t> reference;
  FlatSet<std::uint64_t> lane;
  for (int epoch = 0; epoch < 8; ++epoch) {
    lane.clear();
    std::unordered_set<std::uint64_t> lane_keys;
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t key = rng() % 10000;
      lane.insert(key);
      lane_keys.insert(key);
    }
    std::unordered_set<std::uint64_t> reported;
    merged.insert_all(lane, [&](std::uint64_t key) {
      EXPECT_TRUE(reported.insert(key).second) << key;
    });
    std::unordered_set<std::uint64_t> expected;
    for (const std::uint64_t key : lane_keys) {
      if (reference.insert(key).second) expected.insert(key);
    }
    EXPECT_EQ(reported, expected);
    ASSERT_EQ(merged.size(), reference.size());
  }
}

TEST(FlatHash, InsertAllStaysLinearFoldingALargeLaneManyTimes) {
  // The consolidating publish folds every lane's pair set into one
  // persistent set. Walked in slot order, a large lane packs into one
  // probe cluster of a destination that grows while it arrives — the
  // first fold into an empty set would take over ten seconds here. With
  // the destination pre-sized, folding costs what inserting the same
  // keys in arbitrary order costs.
  constexpr int kRounds = 4;
  constexpr std::uint64_t kLaneKeys = 1u << 19;
  std::vector<std::uint64_t> keys(kRounds * kLaneKeys);
  std::mt19937_64 rng(11);
  for (auto& key : keys) key = rng();

  using Clock = std::chrono::steady_clock;
  const auto baseline_start = Clock::now();
  {
    FlatSet<std::uint64_t> direct;
    direct.reserve(keys.size());
    for (const std::uint64_t key : keys) direct.insert(key);
    ASSERT_EQ(direct.size(), keys.size());
  }
  const auto baseline = Clock::now() - baseline_start;

  FlatSet<std::uint64_t> merged;
  FlatSet<std::uint64_t> lane;
  std::size_t fresh = 0;
  const auto fold_start = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    lane.clear();
    for (std::uint64_t i = 0; i < kLaneKeys; ++i) {
      lane.insert(keys[round * kLaneKeys + i]);
    }
    merged.insert_all(lane, [&fresh](std::uint64_t) { ++fresh; });
  }
  const auto folded = Clock::now() - fold_start;
  EXPECT_EQ(fresh, keys.size());
  EXPECT_EQ(merged.size(), keys.size());
  // The fold also builds the lanes (about 2.5x the baseline), so allow a
  // wide margin; quadratic probing overshoots it by an order of
  // magnitude.
  EXPECT_LT(folded, 10 * baseline + std::chrono::milliseconds(100));
}

TEST(FlatHash, MapOperatorBracketAndFind) {
  FlatMap<std::uint32_t, std::uint64_t> map;
  EXPECT_EQ(map.find(5), nullptr);
  map[5] = 50;
  map[5] += 1;
  map[9];  // value-initialized
  ASSERT_NE(map.find(5), nullptr);
  EXPECT_EQ(*map.find(5), 51u);
  ASSERT_NE(map.find(9), nullptr);
  EXPECT_EQ(*map.find(9), 0u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.insert(7, 70));
  EXPECT_FALSE(map.insert(7, 71));  // already present, value untouched
  EXPECT_EQ(*map.find(7), 70u);
}

TEST(FlatHash, MapMatchesUnorderedReferenceUnderChurnAndGrowth) {
  std::mt19937_64 rng(123);
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t key = rng() % 3000;
      map[key] += 1;
      reference[key] += 1;
    }
    ASSERT_EQ(map.size(), reference.size());
    map.for_each([&](std::uint64_t key, const std::uint64_t& value) {
      auto it = reference.find(key);
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(value, it->second);
    });
    map.clear();
    reference.clear();
  }
}

}  // namespace
}  // namespace iotscope::util

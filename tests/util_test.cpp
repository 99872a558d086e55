#include <gtest/gtest.h>

#include <sstream>

#include "util/bytes.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/strings.h"

namespace curtain::util {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, SplitSingleField) {
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(Strings, SplitEmptyString) {
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitTrailingDelimiter) {
  EXPECT_EQ(split("a,b,", ','), (std::vector<std::string>{"a", "b", ""}));
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"www", "example", "com"};
  EXPECT_EQ(join(parts, "."), "www.example.com");
}

TEST(Strings, JoinEmpty) {
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hello\t\n"), "hello");
}

TEST(Strings, TrimAllWhitespace) {
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("AT&T-pgw-3", "AT&T"));
  EXPECT_FALSE(starts_with("pgw-AT&T", "AT&T"));
  EXPECT_FALSE(starts_with("AT", "AT&T"));
}

TEST(Strings, ParseU64Valid) {
  EXPECT_EQ(parse_u64("12345"), 12345u);
  EXPECT_EQ(parse_u64("0"), 0u);
}

TEST(Strings, ParseU64Invalid) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_FALSE(parse_u64("-3").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

// --- bytes -----------------------------------------------------------------

TEST(Bytes, WriterBigEndian) {
  ByteWriter w;
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0], 0x12);
  EXPECT_EQ(d[1], 0x34);
  EXPECT_EQ(d[2], 0xde);
  EXPECT_EQ(d[5], 0xef);
}

TEST(Bytes, ReaderRoundTrip) {
  ByteWriter w;
  w.put_u8(7);
  w.put_u16(300);
  w.put_u32(70000);
  w.put_string("hi");
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u16(), 300);
  EXPECT_EQ(r.get_u32(), 70000u);
  EXPECT_EQ(r.get_string(2), "hi");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderOverrunSetsError) {
  const std::vector<uint8_t> data{1, 2};
  ByteReader r(data);
  EXPECT_EQ(r.get_u32(), 0u);
  EXPECT_FALSE(r.ok());
  // Sticky: further reads also fail.
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, PatchU16Backpatches) {
  ByteWriter w;
  w.put_u16(0);
  w.put_u8(42);
  w.patch_u16(0, 0xbeef);
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u16(), 0xbeef);
}

TEST(Bytes, SeekPastEndFails) {
  const std::vector<uint8_t> data{1, 2, 3};
  ByteReader r(data);
  r.seek(4);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, SeekWithinBoundsOk) {
  const std::vector<uint8_t> data{1, 2, 3};
  ByteReader r(data);
  r.seek(2);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.get_u8(), 3);
}

// --- csv ---------------------------------------------------------------

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterRow) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row({"a", "b,c"});
  EXPECT_EQ(out.str(), "a,\"b,c\"\n");
}

TEST(Csv, TypedRowFormatsNumbers) {
  std::ostringstream out;
  CsvWriter w(out);
  w.typed_row(std::string("x"), 42, 2.5);
  EXPECT_EQ(out.str(), "x,42,2.5\n");
}

// --- flags -------------------------------------------------------------

TEST(Flags, EnvDoubleFallback) {
  unsetenv("CURTAIN_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 1.5);
  setenv("CURTAIN_TEST_D", "2.25", 1);
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 2.25);
  setenv("CURTAIN_TEST_D", "junk", 1);
  EXPECT_DOUBLE_EQ(env_double("CURTAIN_TEST_D", 1.5), 1.5);
  unsetenv("CURTAIN_TEST_D");
}

TEST(Flags, EnvU64) {
  setenv("CURTAIN_TEST_U", "77", 1);
  EXPECT_EQ(env_u64("CURTAIN_TEST_U", 5), 77u);
  unsetenv("CURTAIN_TEST_U");
  EXPECT_EQ(env_u64("CURTAIN_TEST_U", 5), 5u);
}

TEST(Flags, CampaignScaleClamped) {
  setenv("CURTAIN_SCALE", "7", 1);
  EXPECT_DOUBLE_EQ(campaign_scale(), 1.0);
  setenv("CURTAIN_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(campaign_scale(), 0.05);
  unsetenv("CURTAIN_SCALE");
}

}  // namespace
}  // namespace curtain::util

// Tests for src/io: RFC-4180 CSV parsing/writing (quoting, CRLF, embedded
// newlines), the write/parse round trip on adversarial fields, and the
// clustered-table CSV mapping the CLI tool relies on.
#include <gtest/gtest.h>

#include <random>

#include "io/csv.h"

namespace ustl {
namespace {

TEST(CsvParseTest, SimpleRowsAndFields) {
  auto rows = ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ((*rows)[1], (CsvRow{"1", "2", "3"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto rows = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (CsvRow{"1", "2"}));
}

TEST(CsvParseTest, QuotedFieldsWithCommasAndNewlines) {
  auto rows = ParseCsv("\"a,b\",\"line1\nline2\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a,b", "line1\nline2", "say \"hi\""}));
}

TEST(CsvParseTest, CrLfLineEndings) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a", "b"}));
  EXPECT_EQ((*rows)[1], (CsvRow{"c", "d"}));
}

TEST(CsvParseTest, BareCrEndsRow) {
  auto rows = ParseCsv("a\rb\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (CsvRow{"a"}));
  EXPECT_EQ((*rows)[1], (CsvRow{"b"}));
}

TEST(CsvParseTest, EmptyFieldsSurvive) {
  auto rows = ParseCsv(",a,\n,,\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (CsvRow{"", "a", ""}));
  EXPECT_EQ((*rows)[1], (CsvRow{"", "", ""}));
}

TEST(CsvParseTest, EmptyDocumentHasNoRows) {
  auto rows = ParseCsv("");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(CsvParseTest, UnterminatedQuoteIsAnError) {
  EXPECT_FALSE(ParseCsv("\"abc\n").ok());
}

TEST(CsvParseTest, QuoteInsideUnquotedFieldIsAnError) {
  EXPECT_FALSE(ParseCsv("ab\"c,d\n").ok());
}

TEST(CsvWriteTest, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscapeField("plain"), "plain");
  EXPECT_EQ(CsvEscapeField("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvEscapeField("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvEscapeField("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(WriteCsvRow({"a", "b,c"}), "a,\"b,c\"");
}

class CsvRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripTest, RandomDocumentsRoundTrip) {
  std::mt19937_64 rng(GetParam());
  static const char alphabet[] = "ab,\"\n\r x9";
  auto random_field = [&]() {
    std::string field;
    const size_t len = rng() % 6;
    for (size_t i = 0; i < len; ++i) {
      field.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    // A bare CR inside an unquoted written field would be read back as a
    // row break; CsvEscapeField quotes it, so any content round-trips.
    return field;
  };
  for (int round = 0; round < 30; ++round) {
    std::vector<CsvRow> rows;
    const size_t num_rows = 1 + rng() % 5;
    for (size_t r = 0; r < num_rows; ++r) {
      CsvRow row;
      const size_t num_fields = 1 + rng() % 4;
      for (size_t f = 0; f < num_fields; ++f) {
        row.push_back(random_field());
      }
      // An all-empty single-field last row is indistinguishable from no
      // row; keep at least one visible character in the first field.
      if (row.size() == 1 && row[0].empty()) row[0] = "x";
      rows.push_back(std::move(row));
    }
    auto parsed = ParseCsv(WriteCsv(rows));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Values(3u, 14u, 15u, 92u));

TEST(ClusteredCsvTest, GroupsRowsByKeyInFirstAppearanceOrder) {
  auto clustered = ReadClusteredCsv(
      "name,cluster,city\n"
      "ann,K2,boston\n"
      "bob,K1,nyc\n"
      "anne,K2,boston\n",
      "cluster");
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();
  EXPECT_EQ(clustered->table.column_names(),
            (std::vector<std::string>{"name", "city"}));
  ASSERT_EQ(clustered->table.num_clusters(), 2u);
  EXPECT_EQ(clustered->cluster_keys, (std::vector<std::string>{"K2", "K1"}));
  EXPECT_EQ(clustered->table.cluster(0).size(), 2u);
  EXPECT_EQ(clustered->table.cluster(0)[1],
            (std::vector<std::string>{"anne", "boston"}));
  EXPECT_EQ(clustered->table.cluster(1)[0],
            (std::vector<std::string>{"bob", "nyc"}));
}

TEST(ClusteredCsvTest, RoundTripsThroughWrite) {
  ClusteredCsv clustered;
  clustered.cluster_column = "id";
  clustered.table = Table({"value"});
  size_t c = clustered.table.AddCluster();
  clustered.cluster_keys.push_back("k,1");  // key needing quoting
  clustered.table.AddRecord(c, {"9th St"});
  clustered.table.AddRecord(c, {"9 Street"});

  auto back = ReadClusteredCsv(WriteClusteredCsv(clustered), "id");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cluster_keys, clustered.cluster_keys);
  ASSERT_EQ(back->table.num_clusters(), 1u);
  EXPECT_EQ(back->table.cluster(0), clustered.table.cluster(0));
}

TEST(ClusteredCsvTest, MissingKeyColumnIsAnError) {
  EXPECT_FALSE(ReadClusteredCsv("a,b\n1,2\n", "cluster").ok());
}

TEST(ClusteredCsvTest, RepeatedKeyColumnIsAnError) {
  Result<ClusteredCsv> clustered =
      ReadClusteredCsv("cluster,cluster\n1,a\n", "cluster");
  ASSERT_FALSE(clustered.ok());
  EXPECT_EQ(clustered.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClusteredCsvTest, RaggedRowIsAnError) {
  EXPECT_FALSE(
      ReadClusteredCsv("cluster,a\nk1,1\nk2\n", "cluster").ok());
}

TEST(ClusteredCsvTest, HeaderOnlyYieldsEmptyTable) {
  auto clustered = ReadClusteredCsv("cluster,a\n", "cluster");
  ASSERT_TRUE(clustered.ok());
  EXPECT_EQ(clustered->table.num_clusters(), 0u);
}

TEST(FileIoTest, WriteThenReadBack) {
  const std::string path = ::testing::TempDir() + "/ustl_io_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, "a,b\n1,2\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "a,b\n1,2\n");
}

TEST(FileIoTest, MissingFileIsNotFound) {
  auto content = ReadFileToString("/nonexistent/ustl/nope.csv");
  EXPECT_FALSE(content.ok());
}

}  // namespace
}  // namespace ustl

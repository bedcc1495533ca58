// Tests for the CSV reader/writer, including failure injection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv.h"

namespace sablock::data {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(ParseCsvLineTest, PlainFields) {
  std::vector<std::string> f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(ParseCsvLineTest, QuotedFieldsWithCommasAndQuotes) {
  std::vector<std::string> f =
      ParseCsvLine(R"("hello, world","say ""hi""",plain)");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "hello, world");
  EXPECT_EQ(f[1], "say \"hi\"");
  EXPECT_EQ(f[2], "plain");
}

TEST(ParseCsvLineTest, EmptyFields) {
  std::vector<std::string> f = ParseCsvLine(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& s : f) EXPECT_TRUE(s.empty());
}

TEST(EscapeCsvFieldTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(EscapeCsvField("plain"), "plain");
  EXPECT_EQ(EscapeCsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(EscapeCsvField("q\"q"), "\"q\"\"q\"");
}

TEST(CsvRoundTripTest, WritesAndReadsBack) {
  Dataset d{Schema({"name", "note"})};
  d.Add({{"alice", "likes, commas"}}, 0);
  d.Add({{"bob", "quote \" inside"}}, 0);
  d.Add({{"carol", ""}}, 1);

  std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, d, "entity_id").ok());

  Dataset back;
  Status s = ReadCsv(path, "entity_id", &back);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.Value(0, "name"), "alice");
  EXPECT_EQ(back.Value(0, "note"), "likes, commas");
  EXPECT_EQ(back.Value(1, "note"), "quote \" inside");
  EXPECT_TRUE(back.IsMatch(0, 1));
  EXPECT_FALSE(back.IsMatch(0, 2));
}

// Values holding every character EscapeCsvField quotes for come back
// byte-exact, and so do the entity ids.
TEST(CsvRoundTripTest, QuotedCommasQuotesAndLineBreaksAreByteExact) {
  const std::vector<std::vector<std::string>> rows = {
      {"a,b", "say \"hi\""},
      {"line\nbreak", "crlf\r\nbreak"},
      {"\n", "\r\n"},
      {"ends with cr\r", "\"\r\n,\"\n"},
      {"", "plain"},
  };
  // Numbered by first appearance, as ReadCsv numbers labels.
  const EntityId entities[] = {0, 1, 0, 2, 1};
  Dataset d{Schema({"x", "y"})};
  for (size_t r = 0; r < rows.size(); ++r) d.Add({rows[r]}, entities[r]);
  const std::string path = TempPath("multiline_roundtrip.csv");
  ASSERT_TRUE(WriteCsv(path, d, "entity").ok());

  Dataset back;
  Status s = ReadCsv(path, "entity", &back);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(back.size(), rows.size());
  for (RecordId id = 0; id < back.size(); ++id) {
    EXPECT_EQ(back.Value(id, "x"), rows[id][0]) << "row " << id;
    EXPECT_EQ(back.Value(id, "y"), rows[id][1]) << "row " << id;
    EXPECT_EQ(back.entity(id), d.entity(id)) << "row " << id;
  }
}

TEST(CsvReadTest, QuotedLineBreakContinuesTheRow) {
  std::string path = TempPath("quoted_newline.csv");
  WriteFile(path, "id,v,w\r\n1,\"a\nb\",x\r\n2,\"c\r\n\r\nd\",y\r\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Value(0, "v"), "a\nb");
  EXPECT_EQ(d.Value(0, "w"), "x");
  EXPECT_EQ(d.Value(1, "v"), "c\r\n\r\nd");
  EXPECT_EQ(d.Value(1, "w"), "y");
}

TEST(CsvReadTest, ErrorsNameTheRowsFirstLine) {
  std::string path = TempPath("ragged_multiline.csv");
  WriteFile(path, "a,b\n1,2\n\"x\ny\",2,3\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 3 has 3 fields"), std::string::npos)
      << s.message();

  WriteFile(path, "a,b\n1,\"never\nclosed\n");
  s = ReadCsv(path, "", &d);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 2"), std::string::npos) << s.message();
}

TEST(CsvReadTest, WithoutEntityColumn) {
  std::string path = TempPath("plain.csv");
  WriteFile(path, "a,b\n1,2\n3,4\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "", &d).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.entity(0), kUnknownEntity);
}

TEST(CsvReadTest, SkipsBlankLinesAndCrLf) {
  std::string path = TempPath("crlf.csv");
  WriteFile(path, "a,b\r\n1,2\r\n\r\n3,4\r\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "", &d).ok());
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Value(1, "b"), "4");
}

TEST(CsvReadTest, MissingFileFails) {
  Dataset d;
  Status s = ReadCsv("/nonexistent/dir/file.csv", "", &d);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("cannot open"), std::string::npos);
}

TEST(CsvReadTest, EmptyFileFails) {
  std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  Dataset d;
  EXPECT_FALSE(ReadCsv(path, "", &d).ok());
}

TEST(CsvReadTest, RaggedRowFails) {
  std::string path = TempPath("ragged.csv");
  WriteFile(path, "a,b\n1,2,3\n");
  Dataset d;
  Status s = ReadCsv(path, "", &d);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("row 2"), std::string::npos);
}

TEST(CsvReadTest, MissingEntityColumnFails) {
  std::string path = TempPath("noentity.csv");
  WriteFile(path, "a,b\n1,2\n");
  Dataset d;
  EXPECT_FALSE(ReadCsv(path, "entity_id", &d).ok());
}

TEST(CsvReadTest, EntityLabelsGroupRecords) {
  std::string path = TempPath("labels.csv");
  WriteFile(path, "id,name\ne1,foo\ne2,bar\ne1,foo2\n");
  Dataset d;
  ASSERT_TRUE(ReadCsv(path, "id", &d).ok());
  ASSERT_EQ(d.size(), 3u);
  EXPECT_TRUE(d.IsMatch(0, 2));
  EXPECT_FALSE(d.IsMatch(0, 1));
  // The entity column is consumed, not part of the schema.
  EXPECT_EQ(d.schema().IndexOf("id"), -1);
}

}  // namespace
}  // namespace sablock::data

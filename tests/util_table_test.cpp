#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace geomcast::util {
namespace {

TEST(TableTest, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, BasicRendering) {
  Table table({"name", "value"});
  table.begin_row().add_cell("alpha").add_integer(42);
  table.begin_row().add_cell("beta").add_number(3.5);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("3.5"), std::string::npos);
}

TEST(TableTest, ColumnsAligned) {
  Table table({"a", "b"});
  table.begin_row().add_cell("longvalue").add_cell("x");
  table.begin_row().add_cell("y").add_cell("z");
  std::istringstream lines(table.to_string());
  std::string first, second, third, fourth;
  std::getline(lines, first);
  std::getline(lines, second);
  std::getline(lines, third);
  std::getline(lines, fourth);
  EXPECT_EQ(first.size(), third.size());
  EXPECT_EQ(third.size(), fourth.size());
}

TEST(TableTest, AddCellBeforeRowThrows) {
  Table table({"x"});
  EXPECT_THROW(table.add_cell("oops"), std::logic_error);
}

TEST(TableTest, TooManyCellsThrows) {
  Table table({"only"});
  table.begin_row().add_cell("fine");
  EXPECT_THROW(table.add_cell("extra"), std::logic_error);
}

TEST(TableTest, RowAndColumnCounts) {
  Table table({"a", "b", "c"});
  EXPECT_EQ(table.column_count(), 3u);
  EXPECT_EQ(table.row_count(), 0u);
  table.begin_row().add_cell("1").add_cell("2").add_cell("3");
  EXPECT_EQ(table.row_count(), 1u);
}

TEST(TableTest, CsvBasic) {
  Table table({"a", "b"});
  table.begin_row().add_cell("1").add_cell("2");
  EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, JsonRowsAreObjectsKeyedByTheHeader) {
  Table table({"D", "avg", "tree"});
  table.begin_row().add_integer(2).add_number(21.97, 2).add_cell("yes");
  table.begin_row().add_integer(-3).add_cell("1e5").add_cell("say \"hi\"\n");
  table.begin_row().add_cell("007").add_cell("nan").add_cell("");
  table.begin_row().add_cell("1.").add_cell(".5").add_cell("-");
  std::ostringstream json;
  table.print_json(json);
  EXPECT_EQ(json.str(),
            "[\n  {\"D\": 2, \"avg\": 21.97, \"tree\": \"yes\"},"
            "\n  {\"D\": -3, \"avg\": 1e5, \"tree\": \"say \\\"hi\\\"\\u000a\"},"
            "\n  {\"D\": \"007\", \"avg\": \"nan\", \"tree\": \"\"},"
            "\n  {\"D\": \"1.\", \"avg\": \".5\", \"tree\": \"-\"}\n]\n");
}

TEST(TableTest, CsvEscapesCommasAndQuotes) {
  Table table({"text"});
  table.begin_row().add_cell("hello, world");
  table.begin_row().add_cell("say \"hi\"");
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"hello, world\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, IntegerFormatting) {
  Table table({"n"});
  table.begin_row().add_integer(-7);
  EXPECT_NE(table.to_string().find("-7"), std::string::npos);
}

TEST(TableTest, NumberRoundsToMaxDecimals) {
  Table table({"v"});
  table.begin_row().add_number(2.71828, 2);
  EXPECT_NE(table.to_string().find("2.72"), std::string::npos);
}

}  // namespace
}  // namespace geomcast::util

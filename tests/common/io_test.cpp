// CSV, ASCII table and CLI parser tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace wormsched {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ctest runs every case as its own process, possibly in parallel, so
// each case writes a file named after itself: a shared name let one
// case's TearDown delete or overwrite another case's file.
class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/ws_csv_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    csv.header({"flow", "bytes"});
    csv.row(0, 4096);
    csv.row(1, 8192);
    EXPECT_EQ(csv.rows_written(), 3u);
  }
  EXPECT_EQ(slurp(path_), "flow,bytes\n0,4096\n1,8192\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.row("plain", "with,comma", "with\"quote");
  }
  EXPECT_EQ(slurp(path_), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST_F(CsvTest, MixedTypesFormatted) {
  {
    CsvWriter csv(path_);
    csv.row("x", 1.5, 7u, -3);
  }
  EXPECT_EQ(slurp(path_), "x,1.5,7,-3\n");
}

TEST(CsvWriterError, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t("Title");
  t.set_header({"name", "value"});
  t.add_row("a", 1);
  t.add_row("longer", 22);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
  // Every data line has the same width.
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  std::getline(is, line);  // title
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(AsciiTable, RuleInsertsSeparator) {
  AsciiTable t;
  t.set_header({"a"});
  t.add_row(1);
  t.add_rule();
  t.add_row(2);
  const std::string s = t.to_string();
  // header rule + top + mid + bottom = 4 separator lines
  std::size_t rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty() && line[0] == '+') ++rules;
  EXPECT_EQ(rules, 4u);
}

TEST(Fixed, FormatsWithPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(CliParser, ParsesOptionsAndFlags) {
  CliParser cli("test");
  cli.add_option("cycles", "run length", "1000");
  cli.add_option("rate", "injection rate", "0.5");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--cycles", "5000", "--verbose",
                        "--rate=0.25"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_uint("cycles"), 5000u);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.25);
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(CliParser, StrayPositionalFails) {
  // A token that is no option's value used to be kept and ignored, so
  // `network --cycles 10 mesh8x8` ran the default topology.
  CliParser cli("test");
  cli.add_option("cycles", "run length", "1000");
  cli.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--cycles", "10", "--verbose", "pos1"};
  EXPECT_EXIT(cli.parse(5, argv), ::testing::ExitedWithCode(2),
              "^unexpected argument 'pos1'\n$");
}

TEST(CliParser, DefaultsApplyWhenAbsent) {
  CliParser cli("test");
  cli.add_option("n", "count", "42");
  cli.add_flag("quiet", "silence");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_FALSE(cli.get_flag("quiet"));
}

// parse() owns argv's exit contract: a bad option exits 2 with one
// "option --NAME: ..." line, --help exits 0.
TEST(CliParser, UnknownOptionFails) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_EXIT(cli.parse(3, argv), ::testing::ExitedWithCode(2),
              "^option --nope: unknown option\n$");
}

TEST(CliParser, MissingValueFails) {
  CliParser cli("test");
  cli.add_option("n", "count", "1");
  const char* argv[] = {"prog", "--n"};
  EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(2),
              "^option --n: expects a value\n$");
}

TEST(CliParser, HelpExits0) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(0), "^$");
}

// --- Strict numeric parsing (regressions: stoll/stoull/stod accepted
// trailing junk, silently wrapped negatives into unsigned, and threw
// uncaught out_of_range on overflow). -----------------------------------

TEST(CliParserStrictDeathTest, TrailingJunkExitsWithMessage) {
  CliParser cli("test");
  cli.add_option("cycles", "run length", "1000");
  const char* argv[] = {"prog", "--cycles=10x"};
  cli.parse(2, argv);
  EXPECT_EXIT((void)cli.get_uint("cycles"), ::testing::ExitedWithCode(2),
              "option --cycles: '10x' is not a non-negative integer");
}

TEST(CliParserStrictDeathTest, NegativeUnsignedDoesNotWrap) {
  // Pre-fix, std::stoull("-1") wrapped to 2^64-1 and a sweep would try to
  // run 18 quintillion seeds.
  CliParser cli("test");
  cli.add_option("seeds", "seed count", "1");
  const char* argv[] = {"prog", "--seeds=-1"};
  cli.parse(2, argv);
  EXPECT_EXIT((void)cli.get_uint("seeds"), ::testing::ExitedWithCode(2),
              "option --seeds: '-1' is not a non-negative integer");
}

TEST(CliParserStrictDeathTest, IntegerOverflowExits) {
  CliParser cli("test");
  cli.add_option("n", "count", "0");
  const char* argv[] = {"prog", "--n=99999999999999999999"};
  cli.parse(2, argv);
  EXPECT_EXIT((void)cli.get_int("n"), ::testing::ExitedWithCode(2),
              "overflows a signed 64-bit integer");
}

TEST(CliParserStrictDeathTest, DoubleJunkExits) {
  CliParser cli("test");
  cli.add_option("rate", "rate", "0.5");
  const char* argv[] = {"prog", "--rate", "1.5q"};
  cli.parse(3, argv);
  EXPECT_EXIT((void)cli.get_double("rate"), ::testing::ExitedWithCode(2),
              "option --rate: '1.5q' is not a number");
}

TEST(CliParserStrictDeathTest, EmptyValueExits) {
  CliParser cli("test");
  cli.add_option("n", "count", "0");
  const char* argv[] = {"prog", "--n="};
  cli.parse(2, argv);
  EXPECT_EXIT((void)cli.get_int("n"), ::testing::ExitedWithCode(2),
              "is not an integer");
}

TEST(CliParserStrict, ValidNumbersStillParse) {
  CliParser cli("test");
  cli.add_option("a", "", "0");
  cli.add_option("b", "", "0");
  cli.add_option("c", "", "0");
  const char* argv[] = {"prog", "--a=-7", "--b=18446744073709551615",
                        "--c=2.5e-3"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_int("a"), -7);
  EXPECT_EQ(cli.get_uint("b"), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(cli.get_double("c"), 2.5e-3);
}

// --- Flag inline-value validation (regression: --audit=on parsed fine
// but get_flag read it back as false). ----------------------------------

TEST(CliParserFlags, UnrecognizedInlineValueFailsParse) {
  CliParser cli("test");
  cli.add_flag("audit", "auditing");
  const char* argv[] = {"prog", "--audit=on"};
  EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(2),
              "^option --audit: 'on' is not a flag value");
}

TEST(CliParserFlags, RecognizedInlineValuesParse) {
  for (const auto& [value, expected] :
       {std::pair<const char*, bool>{"true", true},
        {"1", true},
        {"yes", true},
        {"false", false},
        {"0", false},
        {"no", false}}) {
    CliParser cli("test");
    cli.add_flag("audit", "auditing");
    const std::string arg = std::string("--audit=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    cli.parse(2, argv);
    EXPECT_EQ(cli.get_flag("audit"), expected) << arg;
  }
}

TEST(CliParser, ItemsReturnsEffectiveValues) {
  CliParser cli("test");
  cli.add_option("cycles", "run length", "1000");
  cli.add_option("rate", "rate", "0.5");
  cli.add_flag("audit", "auditing");
  const char* argv[] = {"prog", "--cycles", "250", "--audit"};
  cli.parse(4, argv);
  const auto items = cli.items();
  ASSERT_EQ(items.size(), 3u);
  // std::map order: audit, cycles, rate.
  EXPECT_EQ(items[0], (std::pair<std::string, std::string>{"audit", "true"}));
  EXPECT_EQ(items[1], (std::pair<std::string, std::string>{"cycles", "250"}));
  EXPECT_EQ(items[2], (std::pair<std::string, std::string>{"rate", "0.5"}));
}

TEST(CliParserChoice, BareTakesNextTokenOnlyWhenItIsAChoice) {
  CliParser cli("test");
  cli.add_choice_flag("audit", "audit mode", {"incremental", "full", "off"},
                      "incremental", "off");
  cli.add_flag("verbose", "chatty");
  // `--audit off` reads the choice; before it kept `off` aside and
  // audited incrementally.
  const char* with_choice[] = {"prog", "--audit", "off"};
  cli.parse(3, with_choice);
  EXPECT_EQ(cli.get("audit"), "off");
  // A following option is not a choice: the flag reads bare.
  const char* with_option[] = {"prog", "--audit", "--verbose"};
  cli.parse(3, with_option);
  EXPECT_EQ(cli.get("audit"), "incremental");
  EXPECT_TRUE(cli.get_flag("verbose"));
  // Any other token is a stray positional.
  const char* with_file[] = {"prog", "--audit", "run.json"};
  EXPECT_EXIT(cli.parse(3, with_file), ::testing::ExitedWithCode(2),
              "^unexpected argument 'run.json'\n$");
}

TEST(CliParserChoice, InlineValueValidatedAgainstChoices) {
  CliParser cli("test");
  cli.add_choice_flag("audit", "audit mode", {"incremental", "full", "off"},
                      "incremental", "off");
  const char* argv[] = {"prog", "--audit=full"};
  cli.parse(2, argv);
  EXPECT_EQ(cli.get("audit"), "full");
}

TEST(CliParserChoice, UnknownChoiceFailsParse) {
  CliParser cli("test");
  cli.add_choice_flag("audit", "audit mode", {"incremental", "full", "off"},
                      "incremental", "off");
  const char* argv[] = {"prog", "--audit=sometimes"};
  EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(2),
              "^option --audit: 'sometimes' is not one of "
              "incremental\\|full\\|off\n$");
}

TEST(CliParserChoice, AbsentReadsBackDefault) {
  CliParser cli("test");
  cli.add_choice_flag("audit", "audit mode", {"incremental", "full", "off"},
                      "incremental", "off");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get("audit"), "off");
}

TEST(CliParserChoice, UsageListsChoicesAndBareMeaning) {
  CliParser cli("test");
  cli.add_choice_flag("audit", "audit mode", {"incremental", "full", "off"},
                      "incremental", "off");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("incremental|full|off"), std::string::npos);
  EXPECT_NE(usage.find("bare: incremental"), std::string::npos);
}

TEST(CliParser, UsageListsOptions) {
  CliParser cli("my tool");
  cli.add_option("alpha", "the alpha", "1");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("my tool"), std::string::npos);
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("default: 1"), std::string::npos);
}

}  // namespace
}  // namespace wormsched

#include "src/util/cli.hpp"

#include <gtest/gtest.h>

#include "src/util/table.hpp"

namespace bgl::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, KeyValueForms) {
  const Cli cli = make({"--shape", "8x8x8", "--bytes=4096"});
  EXPECT_EQ(cli.get("shape", ""), "8x8x8");
  EXPECT_EQ(cli.get_int("bytes", 0), 4096);
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, BareFlagBeforeAnotherOption) {
  const Cli cli = make({"--full", "--seed", "3"});
  EXPECT_TRUE(cli.has("full"));
  EXPECT_TRUE(cli.get_bool("full", false));
  EXPECT_EQ(cli.get_int("seed", 0), 3);
}

TEST(Cli, BoolValueForms) {
  const Cli cli = make({"--a=0", "--b=false", "--c=yes", "--d=1"});
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_TRUE(cli.get_bool("d", false));
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, DoubleValues) {
  const Cli cli = make({"--factor", "2.5"});
  EXPECT_DOUBLE_EQ(cli.get_double("factor", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 1.5), 1.5);
}

TEST(Cli, PositionalArguments) {
  const Cli cli = make({"first", "--opt", "v", "second"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, ValidateRejectsUnknownOptions) {
  Cli cli = make({"--typo", "1"});
  cli.describe("real", "a real option");
  EXPECT_EXIT(cli.validate(), ::testing::ExitedWithCode(2),
              "prog: error: unknown option: --typo");
}

TEST(Cli, ValidateAcceptsDescribedOptions) {
  Cli cli = make({"--real", "1"});
  cli.describe("real", "a real option");
  EXPECT_NO_THROW(cli.validate());
}

TEST(ParseIntList, Basics) {
  EXPECT_EQ(parse_int_list("8,64,512"), (std::vector<std::int64_t>{8, 64, 512}));
  EXPECT_EQ(parse_int_list("42"), (std::vector<std::int64_t>{42}));
  EXPECT_TRUE(parse_int_list("").empty());
  EXPECT_EQ(parse_int_list("1,,2"), (std::vector<std::int64_t>{1, 2}));
}

// Values must parse in full: "12x" silently running as 12 once turned a
// typo'd --seed into a valid but wrong experiment. A malformed value is a
// usage error: a message on stderr and exit 2, never an abort.
TEST(Cli, IntValuesRejectTrailingJunk) {
  for (const std::string bad : {"12x", "x12", "1.5", "0x10", "12 "}) {
    const std::string arg = "--seed=" + bad;
    const Cli cli = make({arg.c_str()});
    EXPECT_EXIT((void)cli.get_int("seed", 0), ::testing::ExitedWithCode(2), "error:")
        << "'" << bad << "'";
  }
  // The error names the offending option so the user can find it.
  const Cli cli = make({"--seed=12x"});
  EXPECT_EXIT((void)cli.get_int("seed", 0), ::testing::ExitedWithCode(2),
              "prog: error: option --seed: expected an integer, got '12x'");
}

TEST(Cli, IntValuesAcceptNegativesAndRejectOverflow) {
  EXPECT_EQ(make({"--n=-42"}).get_int("n", 0), -42);
  EXPECT_EXIT((void)make({"--n=99999999999999999999999"}).get_int("n", 0),
              ::testing::ExitedWithCode(2), "error:");
}

// A bounded read rejects what the caller's field cannot hold instead of
// letting a narrowing cast wrap it ("--fifos 264" once ran with 8 FIFOs,
// "--bytes -1" with 2^64 - 1 bytes).
TEST(Cli, BoundedIntValues) {
  EXPECT_EQ(make({"--fifos=1"}).get_int("fifos", 8, 1, 255), 1);
  EXPECT_EQ(make({"--fifos=255"}).get_int("fifos", 8, 1, 255), 255);
  EXPECT_EQ(make({}).get_int("fifos", 8, 1, 255), 8);
  EXPECT_EXIT((void)make({"--fifos=256"}).get_int("fifos", 8, 1, 255),
              ::testing::ExitedWithCode(2),
              "prog: error: option --fifos: must be in \\[1, 255\\], got 256");
  EXPECT_EXIT((void)make({"--fifos=0"}).get_int("fifos", 8, 1, 255),
              ::testing::ExitedWithCode(2), "option --fifos: must be in .*, got 0");
  EXPECT_EXIT((void)make({"--bytes=-1"}).get_int("bytes", 240, 0, 4096),
              ::testing::ExitedWithCode(2), "option --bytes: must be in .*, got -1");
  // A malformed value is still reported as malformed.
  EXPECT_EXIT((void)make({"--fifos=2x"}).get_int("fifos", 8, 1, 255),
              ::testing::ExitedWithCode(2), "option --fifos: expected an integer");
}

TEST(Cli, DoubleValuesRejectTrailingJunk) {
  for (const std::string bad : {"2.5x", "x2.5", "1e"}) {
    const std::string arg = "--factor=" + bad;
    const Cli cli = make({arg.c_str()});
    EXPECT_EXIT((void)cli.get_double("factor", 0.0), ::testing::ExitedWithCode(2), "error:")
        << "'" << bad << "'";
  }
  EXPECT_DOUBLE_EQ(make({"--factor=2.5e1"}).get_double("factor", 0.0), 25.0);
}

TEST(Cli, IntListValues) {
  const Cli cli = make({"--sizes", "8,64"});
  EXPECT_EQ(cli.get_int_list("sizes", "1"), (std::vector<std::int64_t>{8, 64}));
  EXPECT_EQ(cli.get_int_list("missing", "1,2"), (std::vector<std::int64_t>{1, 2}));
  const Cli bad = make({"--sizes", "8,x"});
  EXPECT_EXIT((void)bad.get_int_list("sizes", "1"), ::testing::ExitedWithCode(2),
              "prog: error: option --sizes: expected an integer, got 'x'");
}

// "--sizes 8,-8" once ran a 2^64 - 8 byte point after the cast to uint64.
TEST(Cli, BoundedIntListValues) {
  EXPECT_EQ(make({"--sizes", "0,4096"}).get_int_list("sizes", "1", 0, 4096),
            (std::vector<std::int64_t>{0, 4096}));
  EXPECT_EQ(make({}).get_int_list("sizes", "8,64", 0, 4096),
            (std::vector<std::int64_t>{8, 64}));
  EXPECT_EXIT((void)make({"--sizes", "8,-8"}).get_int_list("sizes", "1", 0, 4096),
              ::testing::ExitedWithCode(2),
              "prog: error: option --sizes: entries must be in \\[0, 4096\\], got -8");
  EXPECT_EXIT((void)make({"--sizes", "4097"}).get_int_list("sizes", "1", 0, 4096),
              ::testing::ExitedWithCode(2), "option --sizes: entries must be in .*, got 4097");
  EXPECT_EXIT((void)make({"--sizes", "8,x"}).get_int_list("sizes", "1", 0, 4096),
              ::testing::ExitedWithCode(2), "option --sizes: expected an integer");
}

TEST(ParseIntList, RejectsJunkEntries) {
  EXPECT_THROW(parse_int_list("8,64x,512"), std::runtime_error);
  EXPECT_THROW(parse_int_list("abc"), std::runtime_error);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "450"});
  table.add_row({"beta", "6.48"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric cells right-aligned: "  450" ends at the column edge.
  EXPECT_NE(out.find("  450 |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NO_THROW(table.render());
}

TEST(Fmt, Bytes) {
  EXPECT_EQ(fmt_bytes(8), "8B");
  EXPECT_EQ(fmt_bytes(1024), "1KB");
  EXPECT_EQ(fmt_bytes(4096), "4KB");
  EXPECT_EQ(fmt_bytes(1536), "1536B");
  EXPECT_EQ(fmt_bytes(2 * 1024 * 1024), "2MB");
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(99.94, 1), "99.9");
  EXPECT_EQ(fmt(5.0, 0), "5");
}

}  // namespace
}  // namespace bgl::util

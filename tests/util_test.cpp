// Unit tests for src/util: bit helpers, U256 arithmetic, RNG determinism,
// table and CSV formatting, and the strict command-line parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/args.h"
#include "util/bitops.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/u256.h"

namespace sdlc {
namespace {

TEST(Bitops, BitExtraction) {
    EXPECT_EQ(bit(0b1010, 0), 0u);
    EXPECT_EQ(bit(0b1010, 1), 1u);
    EXPECT_EQ(bit(0b1010, 3), 1u);
    EXPECT_EQ(bit(~uint64_t{0}, 63), 1u);
}

TEST(Bitops, MaskLow) {
    EXPECT_EQ(mask_low(0), 0u);
    EXPECT_EQ(mask_low(1), 1u);
    EXPECT_EQ(mask_low(8), 0xffu);
    EXPECT_EQ(mask_low(64), ~uint64_t{0});
}

TEST(Bitops, CeilDiv) {
    EXPECT_EQ(ceil_div(8, 2), 4);
    EXPECT_EQ(ceil_div(9, 2), 5);
    EXPECT_EQ(ceil_div(1, 4), 1);
    EXPECT_EQ(ceil_div(0, 4), 0);
}

TEST(Bitops, IsPow2) {
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(64));
    EXPECT_FALSE(is_pow2(0));
    EXPECT_FALSE(is_pow2(12));
}

TEST(U256, AddCarriesAcrossLimbs) {
    U256 a(~uint64_t{0});
    U256 b(1);
    const U256 s = add(a, b);
    EXPECT_EQ(s.w[0], 0u);
    EXPECT_EQ(s.w[1], 1u);
    EXPECT_EQ(s.w[2], 0u);
}

TEST(U256, SubInverseOfAdd) {
    U256 a(0x123456789abcdefull);
    U256 b(0xfedcba987654321ull);
    EXPECT_EQ(sub(add(a, b), b), a);
}

TEST(U256, ShlAcrossLimbBoundary) {
    U256 a(1);
    const U256 s = shl(a, 130);
    EXPECT_EQ(s.w[0], 0u);
    EXPECT_EQ(s.w[1], 0u);
    EXPECT_EQ(s.w[2], 4u);
}

TEST(U256, ShlBy256IsZero) {
    EXPECT_TRUE(shl(U256(42), 256).is_zero());
}

TEST(U256, Mul128MatchesNativeFor64Bit) {
    const uint64_t a = 0xdeadbeefcafebabeull;
    const uint64_t b = 0x123456789abcdef0ull;
    const U256 p = mul_128(a, 0, b, 0);
    const unsigned __int128 ref = static_cast<unsigned __int128>(a) * b;
    EXPECT_EQ(p.w[0], static_cast<uint64_t>(ref));
    EXPECT_EQ(p.w[1], static_cast<uint64_t>(ref >> 64));
    EXPECT_EQ(p.w[2], 0u);
}

TEST(U256, Mul128FullWidth) {
    // (2^127) * (2^127) = 2^254.
    U256 p = mul_128(0, uint64_t{1} << 63, 0, uint64_t{1} << 63);
    U256 expected;
    expected.set_bit(254);
    EXPECT_EQ(p, expected);
}

TEST(U256, MulDistributesOverAdd) {
    // (a + b) * c == a*c + b*c for random-ish 128-bit values.
    const uint64_t c_lo = 0x7777777777777777ull, c_hi = 0x1111;
    const U256 ac = mul_128(5, 9, c_lo, c_hi);
    const U256 bc = mul_128(11, 2, c_lo, c_hi);
    const U256 sum_c = mul_128(16, 11, c_lo, c_hi);
    EXPECT_EQ(add(ac, bc), sum_c);
}

TEST(U256, LessComparesHighLimbsFirst) {
    U256 a(5);
    U256 b;
    b.set_bit(200);
    EXPECT_TRUE(less(a, b));
    EXPECT_FALSE(less(b, a));
    EXPECT_FALSE(less(a, a));
}

TEST(U256, ToHex) {
    EXPECT_EQ(to_hex(U256(0)), "0");
    EXPECT_EQ(to_hex(U256(0xabc)), "abc");
    U256 big;
    big.set_bit(128);
    EXPECT_EQ(to_hex(big), "100000000000000000000000000000000");
}

TEST(U256, ToDoubleSmallExact) {
    EXPECT_DOUBLE_EQ(to_double(U256(12345)), 12345.0);
}

TEST(U256, BitRoundTrip) {
    U256 v;
    v.set_bit(0);
    v.set_bit(63);
    v.set_bit(64);
    v.set_bit(255);
    EXPECT_EQ(v.bit(0), 1u);
    EXPECT_EQ(v.bit(1), 0u);
    EXPECT_EQ(v.bit(63), 1u);
    EXPECT_EQ(v.bit(64), 1u);
    EXPECT_EQ(v.bit(255), 1u);
}

TEST(Rng, DeterministicForSeed) {
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Xoshiro256 a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
    Xoshiro256 rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound) {
    Xoshiro256 rng(9);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(TextTable, AlignsColumns) {
    TextTable t({"A", "LongHeader"});
    t.add_row({"xx", "1"});
    t.add_row({"y", "22"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("A   LongHeader"), std::string::npos);
    EXPECT_NE(s.find("xx  1"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
    TextTable t({"A", "B"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
    EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Format, FixedAndPercent) {
    EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
    EXPECT_EQ(fmt_fixed(2.0, 0), "2");
    EXPECT_EQ(fmt_percent(0.4911, 2), "49.11");
}

TEST(Csv, EscapesSpecialCells) {
    const std::string path = testing::TempDir() + "/sdlc_csv_test.csv";
    {
        CsvWriter w(path);
        w.write_row({"plain", "with,comma", "with\"quote"});
        w.close();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "plain,\"with,comma\",\"with\"\"quote\"");
    std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

cli::Args parse(std::vector<const char*> argv) {
    argv.insert(argv.begin(), "tool");
    return cli::Args(static_cast<int>(argv.size()), argv.data(), 1,
                {"--n", "--seed", "--x", "--name"}, {"--flag"});
}

TEST(Args, ReadsDeclaredValuesAndFlags) {
    const cli::Args args = parse({"--n", "12", "--flag", "--seed", "0x1f", "--x", "2.5"});
    EXPECT_FALSE(args.help());
    EXPECT_TRUE(args.flag("--flag"));
    EXPECT_TRUE(args.has("--n"));
    EXPECT_FALSE(args.has("--name"));
    EXPECT_EQ(args.get_int("--n", 0), 12);
    EXPECT_EQ(args.get_uint64("--seed", 0), 0x1fu);
    EXPECT_EQ(args.get_double("--x", 0.0), 2.5);
    EXPECT_EQ(args.get("--name", "dflt"), "dflt");
    EXPECT_EQ(args.get_long("--name", 7), 7);
    EXPECT_TRUE(parse({"--n", "1", "--help", "--bogus"}).help());
}

TEST(Args, RejectsUnknownKeysAndMissingValues) {
    EXPECT_THROW(parse({"--nn", "1"}), cli::UsageError);
    EXPECT_THROW(parse({"--n"}), cli::UsageError);
    EXPECT_THROW(parse({"stray"}), cli::UsageError);
}

TEST(Args, RejectsMalformedNumbers) {
    for (const char* bad : {"4x", "abc", "", "-1", "1.5", "99999999999999999999"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW((void)parse({"--n", bad}).get_long("--n", 0), cli::UsageError);
    }
    EXPECT_THROW((void)parse({"--n", "3000000000"}).get_int("--n", 0), cli::UsageError);
    for (const char* bad : {"0x", "-5", "12z", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW((void)parse({"--seed", bad}).get_uint64("--seed", 0), cli::UsageError);
    }
    for (const char* bad : {"1.5.", "nan", "inf", "-0.5", "x"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW((void)parse({"--x", bad}).get_double("--x", 0.0), cli::UsageError);
    }
    EXPECT_EQ(cli::Args::parse_long("--widths", "16"), 16);
    EXPECT_THROW((void)cli::Args::parse_long("--widths", "1 6"), cli::UsageError);
}

}  // namespace
}  // namespace sdlc

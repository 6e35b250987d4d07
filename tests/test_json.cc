/**
 * @file
 * Unit tests for the JSON document model behind the artifact
 * pipeline: construction, serialization, escaping, number
 * round-tripping (byte for byte the output of the precision search
 * jsonNumber() replaced), and the strict parser.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"

namespace contest
{
namespace
{

TEST(Json, ScalarKindsAndAccessors)
{
    EXPECT_TRUE(JsonValue{}.isNull());
    EXPECT_TRUE(JsonValue::boolean(true).asBool());
    EXPECT_FALSE(JsonValue::boolean(false).asBool());
    EXPECT_DOUBLE_EQ(JsonValue::number(2.5).asNumber(), 2.5);
    EXPECT_EQ(JsonValue::str("hi").asString(), "hi");
}

TEST(Json, ObjectPreservesInsertionOrderAndOverwrites)
{
    JsonValue o = JsonValue::object();
    o.set("z", JsonValue::number(1));
    o.set("a", JsonValue::number(2));
    o.set("z", JsonValue::number(3)); // overwrite keeps position
    ASSERT_EQ(o.size(), 2u);
    EXPECT_EQ(o.members()[0].first, "z");
    EXPECT_EQ(o.members()[1].first, "a");
    EXPECT_DOUBLE_EQ(o.at("z").asNumber(), 3.0);
    EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(Json, CompactDump)
{
    JsonValue o = JsonValue::object();
    o.set("name", JsonValue::str("fig06"));
    JsonValue a = JsonValue::array();
    a.push(JsonValue::number(1));
    a.push(JsonValue::boolean(false));
    a.push(JsonValue{});
    o.set("xs", std::move(a));
    EXPECT_EQ(o.dump(0),
              "{\"name\": \"fig06\", \"xs\": [1, false, null]}");
}

TEST(Json, EscapingRoundTrips)
{
    const std::string nasty =
        "quote\" backslash\\ newline\n tab\t bell\x07 end";
    JsonValue v = JsonValue::str(nasty);
    std::string text = v.dump(0);
    // Control characters must be escaped in the wire form.
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_NE(text.find("\\u0007"), std::string::npos);

    std::string err;
    JsonValue back = JsonValue::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.asString(), nasty);
}

TEST(Json, NumbersRoundTripBitIdentical)
{
    for (double v :
         {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 3.141592653589793,
          2.718281828459045e-10, 1.7976931348623157e308,
          5e-324, 400000.0, -2009.0}) {
        std::string text = jsonNumber(v);
        std::string err;
        JsonValue back = JsonValue::parse(text, &err);
        EXPECT_TRUE(err.empty()) << text << ": " << err;
        // Bit-identical round trip, not merely approximate.
        EXPECT_EQ(back.asNumber(), v) << text;
    }
}

TEST(Json, IntegersPrintWithoutFraction)
{
    EXPECT_EQ(jsonNumber(400000.0), "400000");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(0.0), "0");
}

/** The number formatting jsonNumber() must reproduce byte for byte:
 *  %.0f for integers below 2^53, else every %.*g precision from 1
 *  up until strtod gives back the bits. */
std::string
precisionSearchNumber(double v)
{
    if (!std::isfinite(v))
        return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "nan");
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

TEST(Json, NumbersMatchThePrecisionSearch)
{
    using Limits = std::numeric_limits<double>;
    Rng rng(2009);
    std::vector<double> values;
    // Random bit patterns (the non-finite ones included).
    for (int i = 0; i < 20000; ++i)
        values.push_back(std::bit_cast<double>(rng.next()));
    // Short decimals, the shape of most simulation outputs.
    for (int i = 0; i < 60000; ++i)
        values.push_back(static_cast<double>(rng.below(10'000'000))
                         / std::pow(10.0, rng.below(12)));
    // Every power of two and both of its neighbours.
    for (int e = Limits::min_exponent - Limits::digits;
         e < Limits::max_exponent; ++e) {
        const double p = std::ldexp(1.0, e);
        values.push_back(p);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, Limits::infinity()));
    }
    // Subnormals and the extremes.
    for (int i = 0; i < 5000; ++i)
        values.push_back(std::bit_cast<double>(
            rng.next() & ((std::uint64_t{1} << 52) - 1)));
    for (double v :
         {Limits::denorm_min(), Limits::min(),
          std::nextafter(Limits::min(), 0.0), Limits::max(),
          Limits::epsilon(), 9.007199254740992e15, 0.0,
          Limits::infinity(), Limits::quiet_NaN()})
        values.push_back(v);
    // And the negative of each.
    const std::size_t positives = values.size();
    for (std::size_t i = 0; i < positives; ++i)
        values.push_back(-values[i]);

    std::size_t mismatches = 0;
    for (double v : values) {
        const std::string got = jsonNumber(v);
        const std::string want = precisionSearchNumber(v);
        if (got != want && ++mismatches <= 10)
            ADD_FAILURE() << std::bit_cast<std::uint64_t>(v) << ": "
                          << got << " vs " << want;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(Json, DocumentRoundTrip)
{
    JsonValue o = JsonValue::object();
    o.set("schema", JsonValue::number(1));
    o.set("title", JsonValue::str("Figure 6: contesting"));
    JsonValue rows = JsonValue::array();
    for (int i = 0; i < 3; ++i) {
        JsonValue row = JsonValue::array();
        row.push(JsonValue::str("bench" + std::to_string(i)));
        row.push(JsonValue::number(1.5 + i));
        rows.push(std::move(row));
    }
    o.set("rows", std::move(rows));

    for (int indent : {0, 2, 4}) {
        std::string err;
        JsonValue back = JsonValue::parse(o.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.dump(0), o.dump(0));
    }
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\" 1}", "{\"a\":}", "[1 2]", "tru",
          "\"unterminated", "{\"a\":1} trailing", "1e999",
          "{'single': 1}"}) {
        std::string err;
        JsonValue v = JsonValue::parse(bad, &err);
        EXPECT_FALSE(err.empty()) << "accepted: " << bad;
        EXPECT_TRUE(v.isNull());
    }
}

TEST(Json, ParserBoundsNestingDepth)
{
    // One level under the limit parses; one level over fails with an
    // error instead of exhausting the stack (the daemon feeds the
    // parser untrusted network bytes).
    auto nested = [](int levels) {
        std::string doc(static_cast<std::size_t>(levels), '[');
        doc += "1";
        doc.append(static_cast<std::size_t>(levels), ']');
        return doc;
    };
    std::string err;
    JsonValue ok = JsonValue::parse(
        nested(JsonValue::maxParseDepth), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(ok.isArray());

    JsonValue over = JsonValue::parse(
        nested(JsonValue::maxParseDepth + 1), &err);
    EXPECT_FALSE(err.empty());
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    EXPECT_TRUE(over.isNull());

    // A megabyte of '[' — the classic parser-killer — must also
    // fail cleanly, and fast.
    JsonValue bomb = JsonValue::parse(
        std::string(1u << 20, '['), &err);
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(bomb.isNull());

    // Deep objects hit the same bound as deep arrays.
    std::string obj_doc;
    for (int i = 0; i < JsonValue::maxParseDepth + 1; ++i)
        obj_doc += "{\"k\":";
    JsonValue deep_obj = JsonValue::parse(obj_doc, &err);
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(deep_obj.isNull());
}

TEST(Json, ParserRejectsTruncatedNetworkFrames)
{
    // Prefixes of a valid document — what a connection drop
    // mid-frame would hand the daemon — must all error cleanly.
    const std::string doc =
        "{\"kind\": \"contest\", \"cores\": [\"gcc\", \"twolf\"]}";
    for (std::size_t cut = 1; cut < doc.size(); ++cut) {
        std::string err;
        JsonValue v = JsonValue::parse(doc.substr(0, cut), &err);
        EXPECT_FALSE(err.empty())
            << "accepted prefix: " << doc.substr(0, cut);
        EXPECT_TRUE(v.isNull());
    }
}

TEST(Json, ParserHandlesUnicodeEscapes)
{
    std::string err;
    JsonValue v = JsonValue::parse("\"a\\u00e9b\\u20acc\"", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.asString(), "a\xC3\xA9"
                            "b\xE2\x82\xAC"
                            "c");
}

TEST(Json, ParseAcceptsWhitespaceEverywhere)
{
    std::string err;
    JsonValue v = JsonValue::parse(
        " \n { \"a\" : [ 1 , 2 ] , \"b\" : null } \t", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.at("a").size(), 2u);
    EXPECT_TRUE(v.at("b").isNull());
}

} // namespace
} // namespace contest

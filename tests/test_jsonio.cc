// JSON module tests: serialization, strict parsing, escaping, fuzz safety —
// and the measurement-run JSONL round trip.
#include <gtest/gtest.h>

#include "jsonio/json.h"
#include "report/aggregate.h"
#include "report/results_io.h"
#include "simnet/rng.h"

namespace dnslocate::jsonio {
namespace {

TEST(Json, DumpScalars) {
  EXPECT_EQ(Value().dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(-7).dump(), "-7");
  EXPECT_EQ(Value(2.5).dump(), "2.5");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(Json, DumpContainers) {
  Array array{Value(1), Value("two"), Value(nullptr)};
  EXPECT_EQ(Value(array).dump(), "[1,\"two\",null]");
  Object object;
  object["b"] = 2;
  object["a"] = Value(Array{});
  EXPECT_EQ(Value(object).dump(), "{\"a\":[],\"b\":2}");  // sorted keys
}

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(escape("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, ParseScalars) {
  EXPECT_EQ(*parse("null"), Value());
  EXPECT_EQ(*parse("true"), Value(true));
  EXPECT_EQ(*parse(" 42 "), Value(42));
  EXPECT_EQ(*parse("-2.5e2"), Value(-250.0));
  EXPECT_EQ(*parse("\"x\""), Value("x"));
}

TEST(Json, ParseNested) {
  auto value = parse(R"({"a":[1,{"b":"c"},false],"d":null})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ((*value)["a"].as_array().size(), 3u);
  EXPECT_EQ((*value)["a"].as_array()[1]["b"].as_string(), "c");
  EXPECT_TRUE((*value)["d"].is_null());
  EXPECT_TRUE((*value)["missing"].is_null());
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(parse(R"("a\nb\"c\\dA")")->as_string(), "a\nb\"c\\dA");
  // BMP unicode escape becomes UTF-8.
  EXPECT_EQ(parse(R"("é")")->as_string(), "\xc3\xa9");
}

struct BadJson : ::testing::TestWithParam<const char*> {};
TEST_P(BadJson, Rejected) {
  ParseError error;
  EXPECT_FALSE(parse(GetParam(), &error).has_value()) << GetParam();
}
INSTANTIATE_TEST_SUITE_P(Corpus, BadJson,
                         ::testing::Values("", "{", "}", "[1,", "[1 2]", "{\"a\":}",
                                           "{\"a\" 1}", "tru", "\"unterminated", "01x",
                                           "{\"a\":1}extra", "[1],", "nul", "\"bad\\q\"",
                                           "\"bad\\u12\""));

TEST(Json, ParseErrorsCarryLineColumnAndContext) {
  // The error points at the offending byte: line, column, and a snippet
  // with the failure position marked, so API layers can name the field.
  ParseError error;
  EXPECT_FALSE(parse("{\"probes\": 5,\n \"orgs\": [,]}", &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.offset, 24u);
  EXPECT_EQ(error.column, 11u);
  EXPECT_NE(error.context.find("-->"), std::string::npos);
  EXPECT_NE(error.context.find("\"orgs\": ["), std::string::npos);
  std::string described = describe(error);
  EXPECT_NE(described.find("line 2, column 11 (byte 24)"), std::string::npos);
  EXPECT_NE(described.find("near `"), std::string::npos);

  // Multi-line whitespace folds so the snippet stays one line.
  EXPECT_EQ(error.context.find('\n'), std::string::npos);

  // Offsets clamp at end-of-input (truncated documents).
  ParseError eof_error;
  EXPECT_FALSE(parse("{\"a\": ", &eof_error).has_value());
  EXPECT_EQ(eof_error.offset, 6u);
  EXPECT_EQ(eof_error.line, 1u);
  EXPECT_EQ(eof_error.column, 7u);
  EXPECT_NE(eof_error.context.find("{\"a\": -->"), std::string::npos);

  // Long documents clip the window with ellipses on both sides.
  std::string long_doc = "[" + std::string(100, '1') + "x" + std::string(100, '1') + "]";
  ParseError long_error;
  EXPECT_FALSE(parse(long_doc, &long_error).has_value());
  EXPECT_EQ(long_error.context.substr(0, 3), "...");
  EXPECT_EQ(long_error.context.substr(long_error.context.size() - 3), "...");
}

TEST(Json, RoundTripsItsOwnOutput) {
  auto original = parse(R"({"n":[1,2.5,-3],"s":"e\"sc","o":{"k":true}})");
  ASSERT_TRUE(original.has_value());
  auto reparsed = parse(original->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, *original);
}

TEST(Json, DeepNestingIsBounded) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse(deep).has_value());  // depth cap, no stack overflow
  std::string fine(50, '[');
  fine += std::string(50, ']');
  EXPECT_TRUE(parse(fine).has_value());
}

TEST(Json, RandomBytesNeverCrash) {
  simnet::Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    std::string garbage(rng.uniform(48), ' ');
    for (auto& c : garbage)
      c = static_cast<char>(32 + rng.uniform(95));
    (void)parse(garbage);
  }
}

}  // namespace
}  // namespace dnslocate::jsonio

namespace dnslocate::report {
namespace {

TEST(ResultsIo, RoundTripPreservesAggregation) {
  // Measure a small fleet, export JSONL, reload, and check every aggregate
  // the report layer computes is identical.
  atlas::FleetConfig config;
  config.scale = 0.02;
  auto fleet = atlas::generate_fleet(config);
  auto run = atlas::run_fleet(fleet);

  std::string jsonl = run_to_jsonl(run);
  auto loaded = run_from_jsonl(jsonl);
  ASSERT_TRUE(loaded.ok()) << loaded.errors[0];
  ASSERT_EQ(loaded.run.records.size(), run.records.size());

  EXPECT_EQ(loaded.run.intercepted_count(), run.intercepted_count());
  for (auto location :
       {core::InterceptorLocation::cpe, core::InterceptorLocation::isp,
        core::InterceptorLocation::unknown})
    EXPECT_EQ(loaded.run.count_location(location), run.count_location(location));

  EXPECT_EQ(render_table4(loaded.run).render(), render_table4(run).render());
  EXPECT_EQ(render_table5(loaded.run).render(), render_table5(run).render());
  EXPECT_EQ(render_figure3(loaded.run).render(), render_figure3(run).render());
  EXPECT_EQ(render_figure4(figure4_by_org(loaded.run)).render(),
            render_figure4(figure4_by_org(run)).render());
  auto a = accuracy_matrix(loaded.run);
  auto b = accuracy_matrix(run);
  EXPECT_EQ(a.correct(), b.correct());
  EXPECT_EQ(a.total(), b.total());
}

TEST(ResultsIo, BadLinesAreReportedAndSkipped) {
  auto loaded = run_from_jsonl(
      "not json\n{\"probe_id\":1,\"location\":\"cpe\",\"outcome\":\"ok\"}\n[1,2]\n");
  EXPECT_EQ(loaded.errors.size(), 2u);
  ASSERT_EQ(loaded.run.records.size(), 1u);
  EXPECT_EQ(loaded.run.records[0].verdict.location, core::InterceptorLocation::cpe);
}

TEST(ResultsIo, EmptyInput) {
  auto loaded = run_from_jsonl("");
  EXPECT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.run.records.empty());
}

}  // namespace
}  // namespace dnslocate::report

// Fuzz-ish negative tests for spec::from_json: truncated input,
// duplicate keys, wrong-typed fields, unknown keys and unsupported
// schema versions must each fail with a precise error — never UB,
// never a partially-filled spec.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "photecc/math/json.hpp"
#include "photecc/spec/spec.hpp"

namespace spec = photecc::spec;

namespace {

/// The SpecError message for a document, or "(accepted)".
std::string spec_error_of(const std::string& document) {
  try {
    (void)spec::from_json(document);
  } catch (const spec::SpecError& e) {
    return e.what();
  }
  return "(accepted)";
}

}  // namespace

TEST(SpecParseErrors, TruncatedDocumentsThrowParseError) {
  const std::string canonical = spec::ExperimentSpec{}.to_json();
  // Every strict prefix must fail cleanly with ParseError or SpecError
  // (short prefixes can be valid JSON — "{" is not, but a prefix ending
  // after a full value is impossible here since the document is an
  // object that only closes at the end).
  for (std::size_t length = 0; length + 1 < canonical.size(); ++length) {
    const std::string prefix = canonical.substr(0, length);
    EXPECT_THROW((void)spec::from_json(prefix),
                 photecc::math::json::ParseError)
        << "prefix length " << length;
  }
}

TEST(SpecParseErrors, MissingVersionIsRejected) {
  const std::string message = spec_error_of("{}");
  EXPECT_NE(message.find("photecc_spec"), std::string::npos);
  EXPECT_NE(message.find("required"), std::string::npos);
}

TEST(SpecParseErrors, UnknownSchemaVersionIsRejected) {
  const std::string message = spec_error_of(R"js({"photecc_spec": 5})js");
  EXPECT_NE(message.find("unsupported schema version 5"), std::string::npos);
  EXPECT_NE(message.find("supported: 1..4"), std::string::npos);
}

TEST(SpecParseErrors, FutureSchemaFailsOnVersionNotOnUnknownKeys) {
  // A version-5 document with version-5-only keys must report the
  // version mismatch, not whichever unknown key comes first.
  const std::string message = spec_error_of(
      R"js({"future_field": true, "photecc_spec": 5})js");
  EXPECT_NE(message.find("unsupported schema version"), std::string::npos);
}

TEST(SpecParseErrors, EveryAcceptedSchemaVersionParses) {
  // v1 (no environments), v2 (no network/trace), v3 (no cooling) and
  // v4 documents all parse; the writer emits the smallest version
  // expressing the spec.
  for (const char* version : {"1", "2", "3", "4"}) {
    const auto parsed = spec::from_json(
        std::string(R"js({"photecc_spec": )js") + version + "}");
    EXPECT_EQ(parsed, spec::ExperimentSpec{}) << version;
  }
}

TEST(SpecParseErrors, V3FeaturesInsideOlderDocumentsPointAtTheVersion) {
  // The network section and the trace traffic kind both need v3.
  const std::string network_message = spec_error_of(
      R"js({"photecc_spec": 2, "network": {"kind": "tiled"}})js");
  EXPECT_NE(network_message.find("photecc_spec"), std::string::npos);
  EXPECT_NE(network_message.find("schema version >= 3"), std::string::npos);

  const std::string trace_message = spec_error_of(
      R"js({"photecc_spec": 2, "axes": {"traffic": [)js"
      R"js({"kind": "trace", "path": "a.trace"}]}})js");
  EXPECT_NE(trace_message.find("photecc_spec"), std::string::npos);
  EXPECT_NE(trace_message.find("schema version >= 3"), std::string::npos);
}

TEST(SpecParseErrors, TraceTrafficRejectsGeneratorFields) {
  const std::string message = spec_error_of(
      R"js({"photecc_spec": 3, "axes": {"traffic": [)js"
      R"js({"kind": "trace", "path": "a.trace", "rate_msgs_per_s": 1e8}]}})js");
  EXPECT_NE(message.find("not valid for kind 'trace'"), std::string::npos);

  const std::string path_message = spec_error_of(
      R"js({"photecc_spec": 3, "axes": {"traffic": [)js"
      R"js({"kind": "uniform", "path": "a.trace"}]}})js");
  EXPECT_NE(path_message.find("only valid for kind 'trace'"),
            std::string::npos);
}

TEST(SpecParseErrors, NetworkSectionIsValidated) {
  const std::string kind_message = spec_error_of(
      R"js({"photecc_spec": 3, "network": {"kind": "mesh"}})js");
  EXPECT_NE(kind_message.find("unknown network kind 'mesh'"),
            std::string::npos);

  const std::string mapping_message = spec_error_of(
      R"js({"photecc_spec": 3, "network": {"kind": "tiled",)js"
      R"js( "mapping": "torus"}})js");
  EXPECT_NE(mapping_message.find("network.mapping"), std::string::npos);

  const std::string codes_message = spec_error_of(
      R"js({"photecc_spec": 3, "network": {"kind": "tiled",)js"
      R"js( "channel_count": 2, "channel_codes": ["H(7,4)"]}})js");
  EXPECT_NE(codes_message.find("one code per channel"), std::string::npos);

  const std::string unknown_code_message = spec_error_of(
      R"js({"photecc_spec": 3, "network": {"kind": "tiled",)js"
      R"js( "channel_count": 2, "channel_codes": ["H(7,4)", "X(1,1)"]}})js");
  EXPECT_NE(unknown_code_message.find("network.channel_codes[1]"),
            std::string::npos);

  const std::string missing_kind_message =
      spec_error_of(R"js({"photecc_spec": 3, "network": {}})js");
  EXPECT_NE(missing_kind_message.find("network.kind"), std::string::npos);
}

TEST(SpecParseErrors, NocEvaluatorRejectsMoreTilesThanOnis) {
  // The shipped network spec (16 tiles) forced onto the single-channel
  // 'noc' evaluator: the paper link has 12 ONIs, so tiles 12..15 would
  // have no ONI to send from.
  std::ifstream in(PHOTECC_SOURCE_DIR "/examples/specs/network.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string document = buffer.str();
  const std::string evaluator = R"js("evaluator": "auto")js";
  ASSERT_NE(document.find(evaluator), std::string::npos);
  document.replace(document.find(evaluator), evaluator.size(),
                   R"js("evaluator": "noc")js");
  const std::string message = spec_error_of(document);
  EXPECT_NE(message.find("network.tile_count"), std::string::npos)
      << message;
  EXPECT_NE(message.find("exceeds the smallest ONI count 12"),
            std::string::npos)
      << message;

  // Up to the ONI count the 'noc' evaluator runs the network's traffic.
  const std::string tiles = R"js("tile_count": 16)js";
  ASSERT_NE(document.find(tiles), std::string::npos);
  document.replace(document.find(tiles), tiles.size(),
                   R"js("tile_count": 12)js");
  EXPECT_EQ(spec_error_of(document), "(accepted)");
}

TEST(SpecParseErrors, EnvironmentsInsideV1DocumentPointAtTheVersion) {
  const std::string message = spec_error_of(
      R"js({"photecc_spec": 1, "axes": {"environments": [)js"
      R"js({"kind": "constant", "activity": 0.5}]}})js");
  EXPECT_NE(message.find("photecc_spec"), std::string::npos);
  EXPECT_NE(message.find("schema version >= 2"), std::string::npos);
}

TEST(SpecParseErrors, EnvironmentEntryErrorsCarryTheFieldPath) {
  // Keys of another kind are rejected (the round-trip rule).
  EXPECT_NE(
      spec_error_of(
          R"js({"photecc_spec": 2, "axes": {"environments": [)js"
          R"js({"kind": "constant", "tau_s": 1e-6}]}})js")
          .find("axes.environments[0].tau_s"),
      std::string::npos);
  // Missing kind.
  EXPECT_NE(spec_error_of(R"js({"photecc_spec": 2, "axes": )js"
                          R"js({"environments": [{"activity": 0.5}]}})js")
                .find("axes.environments[0].kind"),
            std::string::npos);
  // Unknown kind lists the known ones.
  EXPECT_NE(spec_error_of(R"js({"photecc_spec": 2, "axes": )js"
                          R"js({"environments": [{"kind": "diurnal"}]}})js")
                .find("self-heating"),
            std::string::npos);
  // Out-of-range values surface with the entry path (the env factory's
  // message, rewrapped).
  EXPECT_NE(
      spec_error_of(
          R"js({"photecc_spec": 2, "axes": {"environments": [)js"
          R"js({"kind": "constant", "activity": 1.5}]}})js")
          .find("axes.environments[0]"),
      std::string::npos);
  // Ramp endpoints must be ordered.
  EXPECT_NE(
      spec_error_of(
          R"js({"photecc_spec": 2, "axes": {"environments": [)js"
          R"js({"kind": "ramp", "start_s": 1e-6, "end_s": 1e-7,)js"
          R"js( "from_activity": 0.2, "to_activity": 0.8}]}})js")
          .find("ramp end <= start"),
      std::string::npos);
}

TEST(SpecParseErrors, NonIntegerVersionIsRejected) {
  EXPECT_NE(spec_error_of(R"js({"photecc_spec": "1"})js").find("photecc_spec"),
            std::string::npos);
  EXPECT_NE(spec_error_of(R"js({"photecc_spec": 1.5})js").find("photecc_spec"),
            std::string::npos);
}

TEST(SpecParseErrors, DuplicateKeysAreRejectedByTheReader) {
  EXPECT_THROW(
      (void)spec::from_json(
          R"js({"photecc_spec": 1, "threads": 1, "threads": 2})js"),
      photecc::math::json::ParseError);
  EXPECT_THROW(
      (void)spec::from_json(
          R"js({"photecc_spec": 1, "axes": {"codes": ["H(7,4)"], )js"
          R"js("codes": ["w/o ECC"]}})js"),
      photecc::math::json::ParseError);
}

TEST(SpecParseErrors, WrongTypedFieldsNameTheField) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"js({"photecc_spec": 1, "name": 3})js", "name"},
      {R"js({"photecc_spec": 1, "evaluator": []})js", "evaluator"},
      {R"js({"photecc_spec": 1, "threads": "many"})js", "threads"},
      {R"js({"photecc_spec": 1, "threads": -1})js", "threads"},
      {R"js({"photecc_spec": 1, "base": []})js", "base"},
      {R"js({"photecc_spec": 1, "base": {"seed": 1.5}})js", "base.seed"},
      {R"js({"photecc_spec": 1, "base": {"link": 6}})js", "base.link"},
      {R"js({"photecc_spec": 1, "base": {"noc_horizon_s": "fast"}})js",
       "base.noc_horizon_s"},
      {R"js({"photecc_spec": 1, "axes": 5})js", "axes"},
      {R"js({"photecc_spec": 1, "axes": {"codes": "H(7,4)"}})js", "axes.codes"},
      {R"js({"photecc_spec": 1, "axes": {"codes": [7]}})js", "axes.codes[0]"},
      {R"js({"photecc_spec": 1, "axes": {"ber_targets": [1e-9, "x"]}})js",
       "axes.ber_targets[1]"},
      {R"js({"photecc_spec": 1, "axes": {"oni_counts": [8, 8.5]}})js",
       "axes.oni_counts[1]"},
      {R"js({"photecc_spec": 1, "axes": {"laser_gating": [true, 1]}})js",
       "axes.laser_gating[1]"},
      {R"js({"photecc_spec": 1, "axes": {"traffic": [{"kind": 4}]}})js",
       "axes.traffic[0].kind"},
      {R"js({"photecc_spec": 1, "objectives": [{"metric": true}]})js",
       "objectives[0].metric"},
  };
  for (const auto& [document, field] : cases) {
    const std::string message = spec_error_of(document);
    EXPECT_NE(message.find(field), std::string::npos)
        << "document " << document << " reported: " << message;
  }
}

TEST(SpecParseErrors, UnknownKeysNameThePathAndTheAlternatives) {
  const std::string top = spec_error_of(R"js({"photecc_spec": 1, "bers": []})js");
  EXPECT_NE(top.find("bers"), std::string::npos);
  EXPECT_NE(top.find("unknown key"), std::string::npos);
  EXPECT_NE(top.find("axes"), std::string::npos);  // suggests valid keys

  const std::string nested = spec_error_of(
      R"js({"photecc_spec": 1, "axes": {"code": ["H(7,4)"]}})js");
  EXPECT_NE(nested.find("axes.code"), std::string::npos);
  EXPECT_NE(nested.find("codes"), std::string::npos);

  const std::string base = spec_error_of(
      R"js({"photecc_spec": 1, "base": {"sed": 1}})js");
  EXPECT_NE(base.find("base.sed"), std::string::npos);
}

TEST(SpecParseErrors, EmptyAxisArraysAreRejected) {
  const std::string message = spec_error_of(
      R"js({"photecc_spec": 1, "axes": {"codes": []}})js");
  EXPECT_NE(message.find("axes.codes"), std::string::npos);
  EXPECT_NE(message.find("must not be empty"), std::string::npos);
}

TEST(SpecParseErrors, SemanticValidationRunsAfterParse) {
  EXPECT_NE(spec_error_of(
                R"js({"photecc_spec": 1, "axes": {"codes": ["X(9,9)"]}})js")
                .find("axes.codes[0]"),
            std::string::npos);
  EXPECT_NE(spec_error_of(
                R"js({"photecc_spec": 1, "axes": {"ber_targets": [0.6]}})js")
                .find("outside the BER range"),
            std::string::npos);
  EXPECT_NE(spec_error_of(
                R"js({"photecc_spec": 1, "base": {"link": "nope"}})js")
                .find("unknown link variant"),
            std::string::npos);
  EXPECT_NE(spec_error_of(
                R"js({"photecc_spec": 1, "axes": {"modulations": ["qam"]}})js")
                .find("unknown modulation"),
            std::string::npos);
}

TEST(SpecParseErrors, HotspotFieldsOnUniformTrafficAreRejected) {
  const std::string message = spec_error_of(
      R"js({"photecc_spec": 1, "axes": {"traffic": [)js"
      R"js({"kind": "uniform", "hotspot": 3}]}})js");
  EXPECT_NE(message.find("axes.traffic[0]"), std::string::npos);
  EXPECT_NE(message.find("hotspot"), std::string::npos);
}

TEST(SpecParseErrors, MissingTrafficKindIsRejected) {
  const std::string message = spec_error_of(
      R"js({"photecc_spec": 1, "axes": {"traffic": [)js"
      R"js({"rate_msgs_per_s": 1e8}]}})js");
  EXPECT_NE(message.find("axes.traffic[0].kind"), std::string::npos);
  EXPECT_NE(message.find("required"), std::string::npos);
}

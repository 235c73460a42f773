/// Locks the hovald wire protocol (service/protocol.hpp): every encoder's
/// output parses back to the same message, and the parsers follow the
/// strict no-accept-then-misparse discipline — unknown types, unknown
/// keys, missing fields and type mismatches all throw ServiceError with a
/// diagnostic naming the offence.

#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/json.hpp"

namespace hoval::service {
namespace {

Json demo_spec() {
  Json spec = Json::object();
  spec.set("algorithm", Json::parse(R"({"name": "ate", "params": {"n": 9}})"));
  return spec;
}

// --- client messages -------------------------------------------------------

TEST(ServiceProtocol, HelloRoundTrips) {
  const ClientMessage m = parse_client_message(encode_hello());
  EXPECT_EQ(m.type, ClientMessage::Type::kHello);
  EXPECT_EQ(m.version, kProtocolVersion);
}

TEST(ServiceProtocol, SubmitRoundTrips) {
  const Json spec = demo_spec();
  const ClientMessage m =
      parse_client_message(encode_submit(3, /*sweep=*/false, spec,
                                         /*progress=*/true));
  EXPECT_EQ(m.type, ClientMessage::Type::kSubmit);
  EXPECT_EQ(m.id, 3);
  EXPECT_FALSE(m.sweep);
  EXPECT_TRUE(m.progress);
  EXPECT_TRUE(m.spec == spec);

  const ClientMessage sweep =
      parse_client_message(encode_submit(0, /*sweep=*/true, spec,
                                         /*progress=*/false));
  EXPECT_TRUE(sweep.sweep);
  EXPECT_FALSE(sweep.progress);
}

TEST(ServiceProtocol, EncodeSubmitBytesAreTheMessageDump) {
  // The envelope's bytes are the compact dump of the message document in
  // this key order, for both kinds, with and without progress; an
  // encoder that splices the spec's dump must keep them.
  const Json spec = demo_spec();
  for (const bool sweep : {false, true}) {
    for (const bool progress : {false, true}) {
      Json message = Json::object();
      message.set("type", "submit");
      message.set("id", 7);
      message.set("kind", sweep ? "sweep" : "scenario");
      message.set("spec", spec);
      if (progress) message.set("progress", true);
      EXPECT_EQ(encode_submit(7, sweep, spec, progress), message.dump());
    }
  }
}

TEST(ServiceProtocol, CancelRoundTrips) {
  const ClientMessage m = parse_client_message(encode_cancel(7));
  EXPECT_EQ(m.type, ClientMessage::Type::kCancel);
  EXPECT_EQ(m.id, 7);
}

TEST(ServiceProtocol, ClientParserRejectsGarbage) {
  const char* bad[] = {
      "",                                            // not JSON
      "42",                                          // not an object
      "{}",                                          // no type
      R"({"type": "frobnicate"})",                   // unknown type
      R"({"type": 3})",                              // type not a string
      R"({"type": "hello"})",                        // missing version
      R"({"type": "hello", "version": "1"})",        // version not an int
      R"({"type": "hello", "version": 1, "x": 1})",  // unknown key
      R"({"type": "submit", "id": 1})",              // missing kind/spec
      R"({"type": "submit", "id": 1, "kind": "scenario"})",  // missing spec
      R"({"type": "submit", "id": 1, "kind": "batch",
          "spec": {}})",                             // unknown kind
      R"({"type": "submit", "id": 1, "kind": "scenario",
          "spec": 9})",                              // spec not an object
      R"({"type": "submit", "id": 1.5, "kind": "scenario",
          "spec": {}})",                             // fractional id
      R"({"type": "submit", "id": 1, "kind": "scenario",
          "spec": {}, "progress": 1})",              // progress not a bool
      R"({"type": "cancel"})",                       // missing id
      R"({"type": "cancel", "id": 1, "extra": 0})",  // unknown key
      // server frames are not client frames
      R"({"type": "result", "id": 1, "cache_hit": false, "result": {}})",
  };
  for (const char* text : bad)
    EXPECT_THROW(parse_client_message(text), ServiceError) << text;
}

// --- server messages -------------------------------------------------------

TEST(ServiceProtocol, ServerHelloRoundTrips) {
  const ServerMessage m = parse_server_message(encode_server_hello());
  EXPECT_EQ(m.type, ServerMessage::Type::kHello);
  EXPECT_EQ(m.version, kProtocolVersion);
}

TEST(ServiceProtocol, ProgressRoundTrips) {
  const ServerMessage m = parse_server_message(encode_progress(2, 640, 2000));
  EXPECT_EQ(m.type, ServerMessage::Type::kProgress);
  EXPECT_EQ(m.id, 2);
  EXPECT_EQ(m.completed, 640);
  EXPECT_EQ(m.total, 2000);
}

TEST(ServiceProtocol, ResultRoundTrips) {
  const Json result = Json::parse(R"({"runs": 5, "violations": []})");
  const ServerMessage m =
      parse_server_message(encode_result(4, /*cache_hit=*/true, result));
  EXPECT_EQ(m.type, ServerMessage::Type::kResult);
  EXPECT_EQ(m.id, 4);
  EXPECT_TRUE(m.cache_hit);
  EXPECT_TRUE(m.result == result);
}

TEST(ServiceProtocol, ErrorRoundTrips) {
  const ServerMessage m = parse_server_message(encode_error(-1, "boom"));
  EXPECT_EQ(m.type, ServerMessage::Type::kError);
  EXPECT_EQ(m.id, -1);
  EXPECT_EQ(m.what, "boom");
}

TEST(ServiceProtocol, EncodeResultTextSplicesVerbatim) {
  // The text splice is what keeps a cached reply byte-identical to the
  // first one: encode_result_text over a dump must equal encode_result
  // over the document, byte for byte, for both result shapes.
  const Json object = Json::parse(R"({"b": [1, 2], "a": "x"})");
  EXPECT_EQ(encode_result_text(9, false, object.dump()),
            encode_result(9, false, object));
  const Json array = Json::parse(R"([{"runs": 1}, {"runs": 2}])");
  EXPECT_EQ(encode_result_text(0, true, array.dump()),
            encode_result(0, true, array));
}

TEST(ServiceProtocol, ServerParserRejectsGarbage) {
  const char* bad[] = {
      "",
      "[]",
      R"({"type": "hello"})",                        // missing version
      R"({"type": "progress", "id": 1})",            // missing counters
      R"({"type": "progress", "id": 1, "completed": 1,
          "total": "all"})",                         // total not an int
      R"({"type": "result", "id": 1})",              // missing result
      R"({"type": "result", "id": 1, "cache_hit": "yes",
          "result": {}})",                           // cache_hit not a bool
      R"({"type": "error", "id": 1})",               // missing what
      R"({"type": "error", "id": 1, "what": 3})",    // what not a string
      R"({"type": "error", "id": 1, "what": "x", "y": 0})",  // unknown key
      // client frames are not server frames
      R"({"type": "submit", "id": 1, "kind": "scenario", "spec": {}})",
  };
  for (const char* text : bad)
    EXPECT_THROW(parse_server_message(text), ServiceError) << text;
}

}  // namespace
}  // namespace hoval::service

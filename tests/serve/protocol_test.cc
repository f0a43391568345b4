// Wire-protocol unit tests: both request forms, strictness on malformed
// input, and byte-exact response round trips (the transport's half of
// the serve byte-identity contract).

#include "serve/protocol.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace tpiin {
namespace {

TEST(ProtocolTest, ParsesJsonRequest) {
  Result<Request> req = ParseRequestLine(
      R"({"verb": "groups", "company": "C0017", "id": 7})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->verb, "groups");
  EXPECT_EQ(req->company, "C0017");
  EXPECT_EQ(req->id, 7);
  EXPECT_EQ(req->sub, -1);
}

TEST(ProtocolTest, ParsesQueryRequest) {
  Result<Request> req =
      ParseRequestLine("rescore?sub=3&deadline_ms=500&id=12");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->verb, "rescore");
  EXPECT_EQ(req->sub, 3);
  EXPECT_EQ(req->deadline_ms, 500);
  EXPECT_EQ(req->id, 12);
}

TEST(ProtocolTest, BareVerbAndWhitespaceTolerance) {
  Result<Request> req = ParseRequestLine("  healthz \r");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->verb, "healthz");

  req = ParseRequestLine("  {\"verb\": \"stats\"}  ");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->verb, "stats");
}

TEST(ProtocolTest, BudgetFieldsInBothForms) {
  Result<Request> json = ParseRequestLine(
      R"({"verb": "groups", "max_sub_nodes": 100, "max_sub_arcs": 200,)"
      R"( "sub_slice_ms": 50})");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  Result<Request> query = ParseRequestLine(
      "groups?max_sub_nodes=100&max_sub_arcs=200&sub_slice_ms=50");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(json->max_sub_nodes, query->max_sub_nodes);
  EXPECT_EQ(json->max_sub_arcs, query->max_sub_arcs);
  EXPECT_EQ(json->sub_slice_ms, query->sub_slice_ms);
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  // Every rejection is InvalidArgument: the server answers it with a
  // status:error line and keeps the connection.
  const char* bad[] = {
      "",                                  // empty
      "   ",                               // whitespace only
      R"({"verb": "groups")",              // unterminated object
      R"({"verb": })",                     // missing value
      R"({"company": "X"})",               // missing verb
      R"({"verb": "groups", "frob": 1})",  // unknown key
      R"({"verb": 7})",                    // verb must be a string
      R"({"verb": "groups"} trailing)",    // trailing bytes
      R"({"verb": "g\x"})",                // unknown escape
      R"({"sub": "three", "verb": "rescore"})",  // int field as string
      "groups?company",                    // query term without '='
      "groups?sub=abc",                    // bad integer
      "?company=X",                        // empty verb
      "groups?verb=explain",               // verb belongs before '?'
      R"({"id": 99999999999999999999, "verb": "x"})",  // overflow
  };
  for (const char* line : bad) {
    Result<Request> req = ParseRequestLine(line);
    EXPECT_FALSE(req.ok()) << "accepted: " << line;
    if (!req.ok()) {
      EXPECT_TRUE(req.status().IsInvalidArgument()) << line;
    }
  }
}

TEST(ProtocolTest, JsonStringEscapes) {
  Result<Request> req = ParseRequestLine(
      R"({"verb": "groups", "company": "a\"b\\c\ndA"})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->company, "a\"b\\c\ndA");

  EXPECT_FALSE(
      ParseRequestLine(R"({"verb": "x", "company": "\ud800"})").ok())
      << "surrogates must be rejected, not mis-decoded";
}

TEST(ProtocolTest, SerializeFixedKeyOrder) {
  Response resp;
  resp.id = 7;
  // std::string temporaries (move-assigned) rather than const char*
  // assignment: GCC 12's -Wmaybe-uninitialized misfires on the
  // char-pointer assign path when everything inlines into this body.
  resp.verb = std::string("groups");
  resp.status = std::string("ok");
  resp.payload = std::string("line1\nline2\n");
  EXPECT_EQ(SerializeResponse(resp),
            R"({"id":7,"verb":"groups","status":"ok",)"
            R"("payload":"line1\nline2\n"})");

  Response error;
  error.verb = "explain";
  error.status = "error";
  error.error = "no node labeled \"X\"";
  // No payload key for errors; id absent when negative.
  EXPECT_EQ(SerializeResponse(error),
            R"({"verb":"explain","status":"error",)"
            R"("error":"no node labeled \"X\""})");
}

TEST(ProtocolTest, SerializeIncludesRequestIdOnlyWhenSet) {
  // The request ID rides between id and verb; an empty ID is omitted
  // entirely, so responses minted without one keep their old bytes.
  Response resp;
  resp.id = 7;
  resp.request_id = "c3-r12";
  resp.verb = "groups";
  resp.status = "ok";
  resp.payload = "x\n";
  EXPECT_EQ(SerializeResponse(resp),
            R"({"id":7,"req":"c3-r12","verb":"groups","status":"ok",)"
            R"("payload":"x\n"})");

  resp.request_id.clear();
  EXPECT_EQ(SerializeResponse(resp),
            R"({"id":7,"verb":"groups","status":"ok","payload":"x\n"})");
}

TEST(ProtocolTest, ParseResponseReadsRequestId) {
  Result<Response> with = ParseResponseLine(
      R"({"id":1,"req":"c2-r9","verb":"healthz","status":"ok",)"
      R"("payload":"ok\n"})");
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(with->request_id, "c2-r9");

  Result<Response> without =
      ParseResponseLine(R"({"verb":"healthz","status":"ok"})");
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  EXPECT_TRUE(without->request_id.empty());
}

TEST(ProtocolTest, ResponseRoundTripIsByteExact) {
  // The payload IS the batch artifact; any byte lost or changed in the
  // serialize/parse round trip would break the identity contract.
  Response resp;
  resp.id = 3;
  resp.verb = "groups";
  resp.status = "degraded";
  std::string payload;
  for (int c = 1; c < 128; ++c) payload.push_back(static_cast<char>(c));
  payload += "  trailing spaces and a tab\t\nand \"quotes\"\\backslash";
  resp.payload = payload;

  Result<Response> parsed = ParseResponseLine(SerializeResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, 3);
  EXPECT_EQ(parsed->verb, "groups");
  EXPECT_EQ(parsed->status, "degraded");
  EXPECT_EQ(parsed->payload, payload);
}

std::string Concatenated(const FramedResponse& framed) {
  std::string line = framed.head;
  if (framed.body != nullptr) line += *framed.body;
  return line + framed.tail;
}

TEST(ProtocolTest, FramedPartsAreTheSerializedLine) {
  // Every status, each with and without a shared escaped body: the
  // three parts concatenate to SerializeResponse plus the terminator,
  // and sharing the body changes no byte.
  for (const char* status : {"ok", "degraded", "error", "busy"}) {
    Response resp;
    resp.id = 5;
    // std::string temporaries, as in SerializeFixedKeyOrder (GCC 12's
    // char-pointer assign warnings).
    resp.request_id = std::string("c1-r2");
    resp.verb = std::string("groups");
    resp.status = std::string(status);
    resp.payload = std::string("g1 \"quoted\"\tC1\\C2\n\x01\n");
    if (resp.status == "error" || resp.status == "busy") {
      resp.error = std::string("over \"capacity\"");
    }
    const std::string line = SerializeResponse(resp);
    EXPECT_EQ(Concatenated(FrameResponse(resp)), line + "\n") << status;
    EXPECT_EQ(FrameResponse(resp).body, nullptr) << status;

    resp.escaped_payload =
        std::make_shared<const std::string>(JsonEscape(resp.payload));
    const FramedResponse shared = FrameResponse(resp);
    EXPECT_EQ(Concatenated(shared), line + "\n") << status;
    EXPECT_EQ(SerializeResponse(resp), line) << status;
    const bool has_payload = resp.status == "ok" || resp.status == "degraded";
    // The body is the response's own string, not a copy of it.
    EXPECT_EQ(shared.body, has_payload ? resp.escaped_payload : nullptr)
        << status;
    EXPECT_EQ(shared.size(), line.size() + 1) << status;
  }
}

TEST(ProtocolTest, LargeEscapedPayloadRoundTrips) {
  // Long plain runs between escapes, as in a susGroup.txt export.
  std::string payload;
  for (int i = 0; i < 20000; ++i) {
    payload += 'C';
    payload += std::to_string(i);
    payload += " -> [simple] \"p\\";
    payload += std::to_string(i % 7);
    payload += "\"\t\n";
  }
  Response resp;
  resp.status = std::string("ok");
  resp.payload = payload;
  Result<Response> parsed = ParseResponseLine(SerializeResponse(resp));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->payload, payload);

  // A raw control byte inside a plain run is still refused.
  EXPECT_FALSE(
      ParseResponseLine("{\"status\":\"ok\",\"payload\":\"abcdefgh\x01\"}")
          .ok());
}

TEST(ProtocolTest, ParseResponseRequiresStatus) {
  EXPECT_FALSE(ParseResponseLine(R"({"verb":"groups"})").ok());
  EXPECT_FALSE(ParseResponseLine("not json").ok());
  EXPECT_FALSE(ParseResponseLine(R"({"status":"ok","zzz":"?"})").ok());
  Result<Response> ok = ParseResponseLine(R"({"status":"busy"})");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, "busy");
  EXPECT_EQ(ok->id, -1);
}

TEST(ProtocolTest, VerbTableLookupAndList) {
  for (const ServeVerb& verb : kServeVerbs) {
    SCOPED_TRACE(std::string(verb.name));
    EXPECT_EQ(FindVerb(verb.name), &verb);
    EXPECT_EQ(std::string(verb.span), "serve." + std::string(verb.name));
  }
  EXPECT_EQ(FindVerb("other"), nullptr);
  EXPECT_EQ(FindVerb("Groups"), nullptr);
  EXPECT_EQ(FindVerb(""), nullptr);
  EXPECT_EQ(ServeVerbList(),
            "groups, explain, rescore, stats, slow, metrics, healthz, reload");
  const Status unknown = UnknownVerbError("x1");
  EXPECT_TRUE(unknown.IsInvalidArgument());
  EXPECT_EQ(unknown.message(),
            "unknown verb: x1 (expected " + ServeVerbList() + ")");
}

}  // namespace
}  // namespace tpiin

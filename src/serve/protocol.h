#ifndef TPIIN_SERVE_PROTOCOL_H_
#define TPIIN_SERVE_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tpiin {

/// Wire protocol of the `tpiin serve` query daemon: newline-delimited
/// JSON over a TCP stream. Each request is one line, each response is
/// one line; a connection may carry any number of request/response
/// pairs in order (the one-shot `tpiin_client` sends a single pair).
///
/// A request line is either a flat JSON object
///
///   {"verb": "groups", "company": "C0017", "id": 7}
///
/// or, for hand-driven sessions (nc/telnet), the equivalent query form
///
///   groups?company=C0017&id=7
///
/// Recognized fields (everything else is rejected as malformed):
///   verb          one of kServeVerbs below
///   company       company label (groups filter; required by explain)
///   sub           subTPIIN emission index (required by rescore)
///   id            opaque caller tag, echoed in the response
///   path          snapshot file for the reload verb (empty = revalidate
///                 and reload the serving generation's own path)
///   deadline_ms   per-request wall-clock budget (RunBudget)
///   sub_slice_ms  per-subTPIIN pattern-walk budget
///   max_sub_nodes / max_sub_arcs
///                 structural caps; subTPIINs over a cap are skipped
///                 deterministically and the response degrades
///
/// The response is always a flat JSON object with a fixed key order:
///
///   {"id": 7, "req": "c3-r2", "verb": "groups", "status": "ok",
///    "payload": "..."}
///
///   req      server-assigned request ID "c<conn>-r<seq>" (connection
///            serial, then request serial within it, both 1-based).
///            The same ID names the request in the access log, the
///            trace and the slow ring, so one grep correlates a
///            response with the server-side record of producing it.
///
///   status   ok        complete answer; payload carries the result
///            degraded  sound but partial answer (a budget bound);
///                      payload is still present
///            busy      refused by admission control; retry later
///            error     malformed request or a handler error; `error`
///                      carries the message and payload is absent
///
/// For `groups`, `explain` and `rescore` the payload is text that is
/// byte-identical to the corresponding batch CLI artifact (susGroup.txt
/// lines, the `tpiin explain` dossier, the rescore report); the daemon
/// verbs' payloads are described at Server::AnswerDaemonVerb.
struct Request {
  std::string verb;
  std::string company;
  /// Candidate snapshot file for the `reload` verb; empty = reload the
  /// path the serving generation came from.
  std::string path;
  int64_t sub = -1;  ///< -1 = absent.
  int64_t id = -1;   ///< -1 = absent; echoed verbatim when >= 0.
  int64_t deadline_ms = 0;
  int64_t sub_slice_ms = 0;
  int64_t max_sub_nodes = 0;
  int64_t max_sub_arcs = 0;
};

struct Response {
  int64_t id = -1;
  /// Server-assigned request ID ("c3-r2"); empty = omitted from the
  /// wire form (responses built outside a server, unit tests).
  std::string request_id;
  std::string verb;
  std::string status;  ///< "ok" | "degraded" | "busy" | "error".
  /// The raw payload text (what the verb's batch artifact holds).
  std::string payload;
  /// Optional: `payload` already JSON-escaped (it must equal
  /// JsonEscape(payload)), shared with the cache that owns it. When set,
  /// framing sends these bytes as they are instead of escaping
  /// `payload` again, so a cached multi-megabyte answer is neither
  /// copied nor re-escaped on its way to the socket.
  std::shared_ptr<const std::string> escaped_payload;
  std::string error;

  bool ok() const { return status == "ok"; }
};

/// A response's wire line in three parts: `head` + `*body` (when
/// non-null) + `tail` is the line, and `tail` ends in the '\n'
/// terminator. `body` is the response's shared escaped_payload; a
/// payload without one is escaped into `head`. The transport hands the
/// three parts to one vectored write.
struct FramedResponse {
  std::string head;
  std::shared_ptr<const std::string> body;
  std::string tail;

  size_t size() const {
    return head.size() + (body ? body->size() : 0) + tail.size();
  }
};

/// The serve verbs; each enumerator is its kServeVerbs row's index.
enum class VerbId {
  kGroups, kExplain, kRescore, kStats, kSlow, kMetrics, kHealthz, kReload
};

/// Who answers a verb: the Server itself (the verb speaks about the
/// daemon, its traffic or its generations) or the serving generation's
/// QueryService (the verb reads the network).
enum class VerbSide { kDaemon, kService };

struct ServeVerb {
  VerbId id;
  std::string_view name;  ///< Wire name: the request's `verb`.
  const char* span;       ///< Trace-span name (static storage).
  VerbSide side;
};

/// The verb table. Dispatch, trace spans, the per-verb metric families,
/// the unknown-verb message and the CLI usage text all read this array.
inline constexpr std::array<ServeVerb, 8> kServeVerbs = {{
    {VerbId::kGroups, "groups", "serve.groups", VerbSide::kService},
    {VerbId::kExplain, "explain", "serve.explain", VerbSide::kService},
    {VerbId::kRescore, "rescore", "serve.rescore", VerbSide::kService},
    {VerbId::kStats, "stats", "serve.stats", VerbSide::kDaemon},
    {VerbId::kSlow, "slow", "serve.slow", VerbSide::kDaemon},
    {VerbId::kMetrics, "metrics", "serve.metrics", VerbSide::kDaemon},
    {VerbId::kHealthz, "healthz", "serve.healthz", VerbSide::kDaemon},
    {VerbId::kReload, "reload", "serve.reload", VerbSide::kDaemon},
}};
static_assert([] {
  for (size_t i = 0; i < kServeVerbs.size(); ++i) {
    if (static_cast<size_t>(kServeVerbs[i].id) != i) return false;
  }
  return true;
}());

/// The table row named `name`, or null for a verb the protocol does
/// not define.
const ServeVerb* FindVerb(std::string_view name);

/// "groups, explain, ..., reload": the table's wire names in order.
std::string ServeVerbList();

/// The InvalidArgument every side answers a verb outside the table
/// with; the message echoes `verb` and lists the table.
Status UnknownVerbError(std::string_view verb);

/// Parses one request line (either form, leading/trailing whitespace and
/// a trailing '\r' tolerated). Malformed input — bad JSON, an unknown
/// key, a missing verb — is an InvalidArgument; the server answers it
/// with a `status: error` response and keeps the connection.
Result<Request> ParseRequestLine(std::string_view line);

/// Frames `response` as its single-line JSON form plus the '\n'
/// terminator. Key order is fixed so responses are byte-stable for
/// tests and diffs.
FramedResponse FrameResponse(const Response& response);

/// The framed line as one string, without the terminator.
std::string SerializeResponse(const Response& response);

/// Parses a response line (the client side). InvalidArgument on
/// malformed JSON or a missing status.
Result<Response> ParseResponseLine(std::string_view line);

}  // namespace tpiin

#endif  // TPIIN_SERVE_PROTOCOL_H_

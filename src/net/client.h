// Blocking HTTP client for the network front door (src/net/server.h).
//
// Test and bench infrastructure, not a user-facing SDK: one connection,
// synchronous request/response over keep-alive, plus typed wrappers for the
// workflow endpoints (submit, status poll, result fetch that parses the
// schema+CSV payload back into Tables). Error handling favors surfacing the
// raw HTTP status so tests can assert on 429 vs 503 directly.

#ifndef MUSKETEER_SRC_NET_CLIENT_H_
#define MUSKETEER_SRC_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/eval.h"
#include "src/net/http.h"

namespace musketeer {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // One synchronous exchange on the keep-alive connection.
  StatusOr<HttpResponseParser::Response> Request(const HttpRequest& request);

  struct SubmitOptions {
    std::string tenant{};     // "" = default tenant
    std::string workflow_id = "net-anon";
    std::string language = "beer";
    int64_t deadline_ms = 0;  // 0 = service default
    // Sends X-Incremental: 1 — the service reuses fingerprint-matched jobs
    // from a prior submission of the same workflow (delta run).
    bool incremental = false;
  };

  // What POST /submit answered, whatever the verdict. status 202 = accepted
  // (ticket/state valid); 429/503 = rejected (reject_reason/error valid).
  struct SubmitReply {
    int status = 0;
    uint64_t ticket = 0;
    std::string state;
    std::string reject_reason;
    std::string error;
  };

  // Transport-level failures only surface as non-OK Status; an HTTP-level
  // rejection is a successful SubmitReply with status 429/503.
  StatusOr<SubmitReply> SubmitWorkflow(const SubmitOptions& options,
                                       const std::string& source);

  // GET /status/<id> → state name ("QUEUED", "RUNNING", "DONE", ...).
  StatusOr<std::string> StateOf(uint64_t ticket);

  // POST /cancel/<id> → state after the cancel request.
  StatusOr<std::string> Cancel(uint64_t ticket);

  // Polls /status until the state is terminal; DeadlineExceeded on timeout.
  StatusOr<std::string> WaitTerminal(uint64_t ticket,
                                     std::chrono::milliseconds timeout);

  // GET /result/<id>, parsing each output's schema spec + CSV text back into
  // a Table. Only valid for DONE tickets (other states surface the server's
  // error).
  StatusOr<TableMap> FetchResult(uint64_t ticket);

  // GET <path> → body for 200 responses (used for /metrics, /trace, /stats).
  StatusOr<std::string> Get(const std::string& path);

  // ---- relation exchange (the peer-to-peer shard transport) ----

  // GET /relations → sorted relation names in the peer's DFS.
  StatusOr<std::vector<std::string>> ListRelations();

  // GET /relation/<name>, parsing schema spec + CSV (+ scale) back into a
  // Table. NotFound when the peer does not hold the relation.
  StatusOr<TablePtr> FetchRelation(const std::string& name);

  // PUT /relation/<name> with the table as CSV + X-Schema/X-Scale headers.
  Status PushRelation(const std::string& name, const Table& table);

 private:
  int fd_ = -1;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_NET_CLIENT_H_

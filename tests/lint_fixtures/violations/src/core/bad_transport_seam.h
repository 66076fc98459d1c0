// Violation fixture for R6's transport half (single-acceptance-seam): the
// capability face and the batch interface regrowing single-query
// execution virtuals. Each virtual below that takes or returns one query is
// a finding; the capability check is not.
#pragma once

namespace dnslocate::core {

struct Message {};
struct QueryResult {};
struct Endpoint {};
class QueryBatch;

class QueryTransport {
 public:
  virtual ~QueryTransport() = default;
  [[nodiscard]] virtual bool supports_ttl() const { return false; }
  virtual QueryResult query(const Endpoint& server, const Message& message) = 0;
};

class AsyncQueryTransport {
 public:
  virtual ~AsyncQueryTransport() = default;
  virtual void run(QueryBatch& batch) = 0;
  virtual void send_one(const Endpoint& server,
                        const Message& message) = 0;
};

}  // namespace dnslocate::core

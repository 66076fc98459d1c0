// The transport interfaces as they should stay: capability virtuals on
// QueryTransport, one batch virtual on AsyncQueryTransport, and the
// sanctioned one-at-a-time base whose protected query() sits behind run().
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
};

class AsyncQueryTransport {
 public:
  virtual ~AsyncQueryTransport() = default;
  virtual void run(QueryBatch& batch) = 0;
  [[nodiscard]] virtual QueryTransport& transport() = 0;
};

class SequentialTransport : public QueryTransport, public AsyncQueryTransport {
 public:
  void run(QueryBatch& batch) override;
  [[nodiscard]] QueryTransport& transport() override { return *this; }

 protected:
  virtual QueryResult query(const Endpoint& server, const Message& message) = 0;
};

}  // namespace dnslocate::core

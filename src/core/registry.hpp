// Service registry: the application layer's operation table. Handlers are
// plain functions over typed values — they know nothing about SOAP,
// threads, or packing, which is the paper's "no change to services code"
// requirement (§3.2): the same handler serves traditional and packed
// messages.
#pragma once

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/call.hpp"

namespace spi::core {

/// An operation implementation. Returning an Error produces a per-call
/// SOAP Fault; throwing SpiError is equivalent (caught by the invoker).
/// Anything else thrown becomes that call's kInternal fault.
using OperationHandler =
    std::function<Result<soap::Value>(const soap::Struct& params)>;

/// Operation metadata the resilience layer consults. Declared at
/// registration, next to the handler, so the knowledge lives with the
/// service author (who alone knows it) rather than with each client.
struct OperationTraits {
  /// True when re-executing the operation with the same parameters is
  /// harmless (reads, pure transforms). Retry policies only auto-retry a
  /// call after request bytes were written if it is idempotent; the
  /// conservative default is false.
  bool idempotent = false;
};

class ServiceRegistry {
 public:
  /// Registers service.operation. Fails on duplicates.
  Status register_operation(std::string service, std::string operation,
                            OperationHandler handler,
                            OperationTraits traits = {});

  /// Looks up a handler; kNotFound if either name is unknown.
  Result<OperationHandler> find(const std::string& service,
                                const std::string& operation) const;

  /// Declared traits of an operation; defaults (non-idempotent) when the
  /// operation is unknown — absence of knowledge is not permission.
  OperationTraits traits(const std::string& service,
                         const std::string& operation) const;
  bool is_idempotent(const std::string& service,
                     const std::string& operation) const {
    return traits(service, operation).idempotent;
  }

  /// Predicate form of is_idempotent for resilience::RetryOptions. The
  /// registry must outlive the returned function.
  std::function<bool(std::string_view, std::string_view)>
  idempotency_predicate() const;

  /// Executes a call through the registry (lookup + invoke + error
  /// normalization). This is what application-stage worker threads run.
  CallOutcome invoke(const ServiceCall& call) const;

  std::vector<std::string> service_names() const;
  std::vector<std::string> operation_names(const std::string& service) const;
  size_t operation_count() const;

 private:
  struct Operation {
    OperationHandler handler;
    OperationTraits traits;
  };

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::map<std::string, Operation>> services_;
};

/// Builder-style helper for registering a whole service fluently:
///   ServiceBinder(registry, "EchoService").bind("Echo", handler).bind(...);
class ServiceBinder {
 public:
  ServiceBinder(ServiceRegistry& registry, std::string service)
      : registry_(registry), service_(std::move(service)) {}

  /// Throws SpiError on duplicate registration (configuration error).
  ServiceBinder& bind(std::string operation, OperationHandler handler,
                      OperationTraits traits = {});

  /// bind() with traits.idempotent = true, for read-only operations.
  ServiceBinder& bind_idempotent(std::string operation,
                                 OperationHandler handler) {
    return bind(std::move(operation), std::move(handler), {true});
  }

 private:
  ServiceRegistry& registry_;
  std::string service_;
};

}  // namespace spi::core

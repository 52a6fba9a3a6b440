#include "core/registry.hpp"

#include <mutex>

namespace spi::core {

Status ServiceRegistry::register_operation(std::string service,
                                           std::string operation,
                                           OperationHandler handler,
                                           OperationTraits traits) {
  if (service.empty() || operation.empty() || !handler) {
    return Error(ErrorCode::kInvalidArgument,
                 "registration needs service, operation, and handler");
  }
  std::unique_lock lock(mutex_);
  auto& operations = services_[service];
  auto [it, inserted] = operations.emplace(
      operation, Operation{std::move(handler), traits});
  (void)it;
  if (!inserted) {
    return Error(ErrorCode::kAlreadyExists,
                 service + "." + operation + " is already registered");
  }
  return Status();
}

Result<OperationHandler> ServiceRegistry::find(
    const std::string& service, const std::string& operation) const {
  std::shared_lock lock(mutex_);
  auto service_it = services_.find(service);
  if (service_it == services_.end()) {
    return Error(ErrorCode::kNotFound, "unknown service '" + service + "'");
  }
  auto operation_it = service_it->second.find(operation);
  if (operation_it == service_it->second.end()) {
    return Error(ErrorCode::kNotFound, "service '" + service +
                                           "' has no operation '" +
                                           operation + "'");
  }
  return operation_it->second.handler;
}

OperationTraits ServiceRegistry::traits(const std::string& service,
                                        const std::string& operation) const {
  std::shared_lock lock(mutex_);
  auto service_it = services_.find(service);
  if (service_it == services_.end()) return {};
  auto operation_it = service_it->second.find(operation);
  if (operation_it == service_it->second.end()) return {};
  return operation_it->second.traits;
}

std::function<bool(std::string_view, std::string_view)>
ServiceRegistry::idempotency_predicate() const {
  return [this](std::string_view service, std::string_view operation) {
    return is_idempotent(std::string(service), std::string(operation));
  };
}

CallOutcome ServiceRegistry::invoke(const ServiceCall& call) const {
  auto handler = find(call.service, call.operation);
  if (!handler.ok()) return handler.error();
  try {
    return handler.value()(call.params);
  } catch (const SpiError& e) {
    return e.error();
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal,
                 call.service + "." + call.operation + " threw: " + e.what());
  } catch (...) {
    // Neither the application-stage workers nor the coupled protocol
    // thread catch anything else: escaping here would end the process.
    return Error(ErrorCode::kInternal, call.service + "." + call.operation +
                                           " threw a non-standard exception");
  }
}

std::vector<std::string> ServiceRegistry::service_names() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(services_.size());
  for (const auto& [name, ops] : services_) names.push_back(name);
  return names;
}

std::vector<std::string> ServiceRegistry::operation_names(
    const std::string& service) const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  auto it = services_.find(service);
  if (it == services_.end()) return names;
  names.reserve(it->second.size());
  for (const auto& [name, operation] : it->second) names.push_back(name);
  return names;
}

size_t ServiceRegistry::operation_count() const {
  std::shared_lock lock(mutex_);
  size_t count = 0;
  for (const auto& [name, ops] : services_) count += ops.size();
  return count;
}

ServiceBinder& ServiceBinder::bind(std::string operation,
                                   OperationHandler handler,
                                   OperationTraits traits) {
  Status status = registry_.register_operation(service_, std::move(operation),
                                               std::move(handler), traits);
  if (!status.ok()) throw SpiError(status.error());
  return *this;
}

}  // namespace spi::core

#include "core/remote_plan.hpp"

#include "common/string_util.hpp"
#include "soap/serializer.hpp"
#include "xml/writer.hpp"

namespace spi::core {

RemotePlan& RemotePlan::step(std::string service, std::string operation,
                             std::vector<PlanArg> args) {
  steps.push_back(
      PlanStep{std::move(service), std::move(operation), std::move(args)});
  return *this;
}

Status RemotePlan::validate() const {
  if (steps.empty()) {
    return Error(ErrorCode::kInvalidArgument, "plan has no steps");
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& step = steps[i];
    if (step.service.empty() || step.operation.empty()) {
      return Error(ErrorCode::kInvalidArgument,
                   "step " + std::to_string(i) + ": missing service/operation");
    }
    for (const PlanArg& arg : step.args) {
      if (arg.name.empty()) {
        return Error(ErrorCode::kInvalidArgument,
                     "step " + std::to_string(i) + ": unnamed argument");
      }
      if (arg.is_ref && arg.ref_step >= i) {
        return Error(ErrorCode::kInvalidArgument,
                     "step " + std::to_string(i) + ": argument '" + arg.name +
                         "' references step " + std::to_string(arg.ref_step) +
                         " (must be an earlier step)");
      }
    }
  }
  return Status();
}

Result<soap::Value> resolve_result_path(const soap::Value& value,
                                        std::string_view path) {
  if (trim(path).empty()) return value;
  const soap::Value* cursor = &value;
  for (std::string_view segment : split(path, '.')) {
    segment = trim(segment);
    if (segment.empty()) {
      return Error(ErrorCode::kInvalidArgument,
                   "empty segment in path '" + std::string(path) + "'");
    }
    // Optional trailing [index] parts: "flights[0]" or even "m[1][2]".
    size_t bracket = segment.find('[');
    std::string_view field = segment.substr(0, bracket);

    if (!field.empty()) {
      if (!cursor->is_struct()) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': '" +
                         std::string(field) + "' applied to a " +
                         std::string(cursor->type_name()));
      }
      const soap::Value* next = cursor->field(field);
      if (!next) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': no field '" +
                         std::string(field) + "'");
      }
      cursor = next;
    }

    while (bracket != std::string_view::npos) {
      size_t close = segment.find(']', bracket);
      if (close == std::string_view::npos) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': unterminated '['");
      }
      auto index = parse_u64(segment.substr(bracket + 1, close - bracket - 1));
      if (!index) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': bad index");
      }
      if (!cursor->is_array()) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': indexing a " +
                         std::string(cursor->type_name()));
      }
      const soap::Array& items = cursor->as_array();
      if (*index >= items.size()) {
        return Error(ErrorCode::kInvalidArgument,
                     "path '" + std::string(path) + "': index " +
                         std::to_string(*index) + " out of range (size " +
                         std::to_string(items.size()) + ")");
      }
      cursor = &items[*index];
      bracket = segment.find('[', close);
    }
  }
  return *cursor;
}

void write_plan(xml::Writer& writer, const RemotePlan& plan) {
  writer.start_element("spi:Remote_Execution");
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    writer.start_element("spi:Step");
    std::string id;
    append_u64(id, i);
    writer.attribute("id", id);
    writer.attribute("service", step.service);
    writer.attribute("operation", step.operation);
    for (const PlanArg& arg : step.args) {
      writer.start_element("spi:Arg");
      writer.attribute("name", arg.name);
      if (arg.is_ref) {
        writer.start_element("spi:Ref");
        std::string ref_step;
        append_u64(ref_step, arg.ref_step);
        writer.attribute("step", ref_step);
        if (!arg.ref_path.empty()) writer.attribute("path", arg.ref_path);
        writer.end_element();
      } else {
        soap::write_value(writer, "spi:Value", arg.literal);
      }
      writer.end_element();
    }
    writer.end_element();
  }
  writer.end_element();
}

std::string serialize_plan(const RemotePlan& plan) {
  xml::Writer writer;
  write_plan(writer, plan);
  return writer.take();
}

Result<RemotePlan> parse_plan(
    const xml::Element& element,
    const std::shared_ptr<const std::string>& source) {
  if (element.local_name() != "Remote_Execution") {
    return Error(ErrorCode::kProtocolError,
                 "not a Remote_Execution element: <" +
                     std::string(element.name) + ">");
  }
  RemotePlan plan;
  std::uint32_t expected_id = 0;
  for (const xml::Element& step_el : element.children) {
    if (step_el.local_name() != "Step") {
      return Error(ErrorCode::kProtocolError,
                   "unexpected <" + std::string(step_el.name) +
                       "> in Remote_Execution");
    }
    auto id = step_el.attribute("id");
    auto parsed_id = id ? parse_u64(*id) : std::nullopt;
    if (!parsed_id || *parsed_id != expected_id) {
      return Error(ErrorCode::kProtocolError,
                   "plan steps must carry dense ascending ids");
    }
    ++expected_id;

    PlanStep step;
    auto service = step_el.attribute("service");
    auto operation = step_el.attribute("operation");
    if (!service || !operation) {
      return Error(ErrorCode::kProtocolError,
                   "Step missing service/operation");
    }
    step.service = std::string(*service);
    step.operation = std::string(*operation);

    for (const xml::Element& arg_el : step_el.children) {
      if (arg_el.local_name() != "Arg") {
        return Error(ErrorCode::kProtocolError,
                     "unexpected <" + std::string(arg_el.name) + "> in Step");
      }
      auto name = arg_el.attribute("name");
      if (!name || name->empty()) {
        return Error(ErrorCode::kProtocolError, "Arg missing name");
      }
      PlanArg arg;
      arg.name = std::string(*name);
      if (const xml::Element* ref = arg_el.first_child("Ref")) {
        auto ref_step = ref->attribute("step");
        auto parsed_step = ref_step ? parse_u64(*ref_step) : std::nullopt;
        if (!parsed_step || *parsed_step > 0xffffffffULL) {
          return Error(ErrorCode::kProtocolError, "Ref missing/invalid step");
        }
        arg.is_ref = true;
        arg.ref_step = static_cast<std::uint32_t>(*parsed_step);
        if (auto path = ref->attribute("path")) {
          arg.ref_path = std::string(*path);
        }
      } else if (const xml::Element* value = arg_el.first_child("Value")) {
        auto parsed_value = soap::read_value(*value, source);
        if (!parsed_value.ok()) {
          return parsed_value.wrap_error("Arg '" + arg.name + "'");
        }
        arg.literal = std::move(parsed_value).value();
      } else {
        return Error(ErrorCode::kProtocolError,
                     "Arg '" + arg.name + "' has neither Value nor Ref");
      }
      step.args.push_back(std::move(arg));
    }
    plan.steps.push_back(std::move(step));
  }
  if (Status valid = plan.validate(); !valid.ok()) {
    return Error(ErrorCode::kProtocolError,
                 "invalid plan: " + valid.error().message());
  }
  return plan;
}

std::vector<IndexedOutcome> execute_plan(const RemotePlan& plan,
                                         const ServiceRegistry& registry) {
  std::vector<IndexedOutcome> outcomes;
  outcomes.reserve(plan.steps.size());

  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    soap::Struct params;
    params.reserve(step.args.size());
    Status resolution = Status();

    for (const PlanArg& arg : step.args) {
      if (!arg.is_ref) {
        params.emplace_back(arg.name, arg.literal);
        continue;
      }
      const CallOutcome& dependency = outcomes[arg.ref_step].outcome;
      if (!dependency.ok()) {
        resolution = Error(
            ErrorCode::kFault,
            "step " + std::to_string(i) + " argument '" + arg.name +
                "' depends on failed step " + std::to_string(arg.ref_step));
        break;
      }
      auto resolved = resolve_result_path(dependency.value(), arg.ref_path);
      if (!resolved.ok()) {
        resolution = resolved.wrap_error("step " + std::to_string(i) +
                                         " argument '" + arg.name + "'");
        break;
      }
      params.emplace_back(arg.name, std::move(resolved).value());
    }

    if (!resolution.ok()) {
      outcomes.push_back(IndexedOutcome{static_cast<std::uint32_t>(i),
                                        CallOutcome(resolution.error())});
      continue;
    }
    outcomes.push_back(IndexedOutcome{
        static_cast<std::uint32_t>(i),
        registry.invoke(
            ServiceCall{step.service, step.operation, std::move(params)})});
  }
  return outcomes;
}

}  // namespace spi::core

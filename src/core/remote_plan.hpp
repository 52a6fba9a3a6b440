// Remote execution — the second interface of the SPI suite. The paper
// (§1, §3) names SPI's interfaces as "packing, remote execution and so on"
// but only describes packing; §5 lists implementing the rest of the suite
// as future work. This module implements it.
//
// Where the pack interface ships M *independent* calls in one message,
// remote execution ships a PLAN of *dependent* calls: later steps may
// reference earlier steps' results, and the whole chain executes inside
// the service container — one round trip where a client-side sequence
// would pay one per step. The canonical use is the travel agent's
// reserve -> authorize -> confirm tail (§4.3 steps 4-7), which is
// inherently sequential and therefore beyond what packing can batch.
//
// Wire format (body entry):
//   <spi:Remote_Execution>
//     <spi:Step id="0" service="S" operation="O">
//       <spi:Arg name="x"> ...value accessor... </spi:Arg>
//       <spi:Arg name="y"><spi:Ref step="0" path="field.sub"/></spi:Arg>
//     </spi:Step>
//     ...
//   </spi:Remote_Execution>
// The response reuses Parallel_Response with one CallResponse per step.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/call.hpp"
#include "core/registry.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace spi::core {

/// One argument of a plan step: a literal value, or a reference into an
/// earlier step's result.
struct PlanArg {
  std::string name;

  /// Literal payload (used when !is_ref).
  soap::Value literal;

  bool is_ref = false;
  /// Index of the referenced step; must be < the owning step's index.
  std::uint32_t ref_step = 0;
  /// Path into the referenced result: dot-separated struct fields with
  /// optional array indexing — "", "reservation_id", "flights[0].price".
  std::string ref_path;

  static PlanArg value(std::string name, soap::Value literal_value) {
    PlanArg arg;
    arg.name = std::move(name);
    arg.literal = std::move(literal_value);
    return arg;
  }
  static PlanArg ref(std::string name, std::uint32_t step,
                     std::string path = "") {
    PlanArg arg;
    arg.name = std::move(name);
    arg.is_ref = true;
    arg.ref_step = step;
    arg.ref_path = std::move(path);
    return arg;
  }

  friend bool operator==(const PlanArg&, const PlanArg&) = default;
};

struct PlanStep {
  std::string service;
  std::string operation;
  std::vector<PlanArg> args;

  friend bool operator==(const PlanStep&, const PlanStep&) = default;
};

struct RemotePlan {
  std::vector<PlanStep> steps;

  /// Fluent builder:
  ///   plan.step("Airline", "Reserve", {PlanArg::value("flight_id", ...)})
  ///       .step("Card", "Authorize", {PlanArg::ref("amount", 0, "price")});
  RemotePlan& step(std::string service, std::string operation,
                   std::vector<PlanArg> args = {});

  /// Structural validity: non-empty, names present, refs strictly
  /// backwards.
  Status validate() const;

  friend bool operator==(const RemotePlan&, const RemotePlan&) = default;
};

/// Resolves `path` inside a step result. Grammar per PlanArg::ref_path;
/// an empty path returns the whole value. Errors on missing fields,
/// non-struct traversal, or out-of-range indices.
Result<soap::Value> resolve_result_path(const soap::Value& value,
                                        std::string_view path);

/// Serializes a plan as a <spi:Remote_Execution> body entry.
std::string serialize_plan(const RemotePlan& plan);

/// Appending variant: writes the same body entry into `writer`.
void write_plan(xml::Writer& writer, const RemotePlan& plan);

/// Parses a Remote_Execution body element back into a plan (validated).
/// `source` is the text the element was parsed from; literal strings
/// share it as soap::read_value does.
Result<RemotePlan> parse_plan(const xml::Element& element,
                              const std::shared_ptr<const std::string>& source);

/// Executes the plan sequentially against the registry. Step i's outcome
/// is at index i. A step whose reference target faulted (or whose path
/// does not resolve) faults with kFault/kInvalidArgument without running;
/// steps not depending on failed results still execute.
std::vector<IndexedOutcome> execute_plan(const RemotePlan& plan,
                                         const ServiceRegistry& registry);

}  // namespace spi::core

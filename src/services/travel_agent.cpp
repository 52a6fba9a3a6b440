#include "services/travel_agent.hpp"

namespace spi::services {

using core::CallOutcome;
using core::ServiceCall;
using soap::Value;

TravelAgent::TravelAgent(core::SpiClient& airline_node,
                         core::SpiClient& hotel_node,
                         core::SpiClient& card_node, TravelAgentConfig config)
    : airline_node_(airline_node),
      hotel_node_(hotel_node),
      card_node_(card_node),
      config_(std::move(config)) {
  if (config_.airline_services.empty() || config_.hotel_services.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "TravelAgent needs airline and hotel services");
  }
}

Result<std::vector<CallOutcome>> TravelAgent::fan_out(
    core::SpiClient& client, const std::vector<std::string>& service_names,
    const std::string& operation, const soap::Struct& params,
    Itinerary& itinerary) {
  std::vector<ServiceCall> calls;
  calls.reserve(service_names.size());
  for (const std::string& service : service_names) {
    calls.push_back(core::make_call(service, operation, params));
  }
  itinerary.invocations += calls.size();

  if (config_.use_packing) {
    itinerary.messages += 1;
    return client.execute_packed(calls);
  }
  itinerary.messages += calls.size();
  return client.call_serial(calls);
}

namespace {

/// Extracts a required string field from a struct-valued outcome.
Result<std::string> struct_string(const Value& value, std::string_view field) {
  const Value* entry = value.field(field);
  if (!entry || !entry->is_string()) {
    return Error(ErrorCode::kProtocolError,
                 "response struct missing string field '" +
                     std::string(field) + "'");
  }
  return std::string(entry->as_string());
}

Result<std::int64_t> struct_int(const Value& value, std::string_view field) {
  const Value* entry = value.field(field);
  if (!entry || !entry->is_int()) {
    return Error(ErrorCode::kProtocolError,
                 "response struct missing int field '" + std::string(field) +
                     "'");
  }
  return entry->as_int();
}

}  // namespace

Result<Itinerary> TravelAgent::book() {
  Itinerary itinerary;

  // Step 1: query flights from every airline (3 requests, packable).
  auto flight_lists = fan_out(
      airline_node_, config_.airline_services, "QueryFlights",
      soap::Struct{{"origin", Value(config_.origin)},
                   {"destination", Value(config_.destination)}},
      itinerary);
  if (!flight_lists.ok()) return flight_lists.wrap_error("query flights");

  // Choose the most economical flight across all airlines (paper: "assume
  // that the user chooses the most economical airline").
  std::string best_flight, best_airline;
  std::int64_t best_price = -1;
  for (const CallOutcome& outcome : flight_lists.value()) {
    if (!outcome.ok()) continue;  // one airline down must not kill booking
    for (const Value& flight : outcome.value().as_array()) {
      auto price = struct_int(flight, "price_cents");
      auto id = struct_string(flight, "flight_id");
      auto airline = struct_string(flight, "airline");
      if (!price.ok() || !id.ok() || !airline.ok()) continue;
      if (best_price < 0 || price.value() < best_price) {
        best_price = price.value();
        best_flight = id.value();
        best_airline = airline.value();
      }
    }
  }
  if (best_price < 0) {
    return Error(ErrorCode::kNotFound, "no flights available");
  }

  // Step 2: reserve the chosen flight.
  itinerary.invocations += 1;
  itinerary.messages += 1;
  CallOutcome flight_reservation = airline_node_.call(
      best_airline, "Reserve", {{"flight_id", Value(best_flight)}});
  if (!flight_reservation.ok()) {
    return flight_reservation.wrap_error("reserve flight");
  }
  auto flight_reservation_id =
      struct_string(flight_reservation.value(), "reservation_id");
  if (!flight_reservation_id.ok()) return flight_reservation_id.error();

  itinerary.airline = best_airline;
  itinerary.flight_id = best_flight;
  itinerary.flight_reservation_id = flight_reservation_id.value();
  itinerary.flight_cents = best_price;

  // Step 3: query rooms from every hotel (3 requests, packable).
  auto room_lists = fan_out(
      hotel_node_, config_.hotel_services, "QueryRooms",
      soap::Struct{{"city", Value(config_.destination_city)},
                   {"nights", Value(config_.nights)}},
      itinerary);
  if (!room_lists.ok()) return room_lists.wrap_error("query rooms");

  std::string best_room, best_hotel;
  std::int64_t best_total = -1;
  for (const CallOutcome& outcome : room_lists.value()) {
    if (!outcome.ok()) continue;
    for (const Value& room : outcome.value().as_array()) {
      auto total = struct_int(room, "total_cents");
      auto id = struct_string(room, "room_id");
      auto hotel = struct_string(room, "hotel");
      if (!total.ok() || !id.ok() || !hotel.ok()) continue;
      if (best_total < 0 || total.value() < best_total) {
        best_total = total.value();
        best_room = id.value();
        best_hotel = hotel.value();
      }
    }
  }
  if (best_total < 0) {
    return Error(ErrorCode::kNotFound, "no rooms available");
  }

  // Step 4: reserve the chosen room.
  itinerary.invocations += 1;
  itinerary.messages += 1;
  CallOutcome room_reservation = hotel_node_.call(
      best_hotel, "Reserve",
      {{"room_id", Value(best_room)}, {"nights", Value(config_.nights)}});
  if (!room_reservation.ok()) {
    return room_reservation.wrap_error("reserve room");
  }
  auto room_reservation_id =
      struct_string(room_reservation.value(), "reservation_id");
  if (!room_reservation_id.ok()) return room_reservation_id.error();

  itinerary.hotel = best_hotel;
  itinerary.room_id = best_room;
  itinerary.room_reservation_id = room_reservation_id.value();
  itinerary.room_cents = best_total;
  itinerary.total_cents = itinerary.flight_cents + itinerary.room_cents;

  // Step 5: authorize the combined payment.
  itinerary.invocations += 1;
  itinerary.messages += 1;
  CallOutcome authorization = card_node_.call(
      config_.card_service, "Authorize",
      {{"card_number", Value(config_.card_number)},
       {"amount_cents", Value(itinerary.total_cents)}});
  if (!authorization.ok()) return authorization.wrap_error("authorize");
  auto authorization_id =
      struct_string(authorization.value(), "authorization_id");
  if (!authorization_id.ok()) return authorization_id.error();
  itinerary.authorization_id = authorization_id.value();

  // Step 6: confirm the flight with the authorization id.
  itinerary.invocations += 1;
  itinerary.messages += 1;
  CallOutcome flight_confirm = airline_node_.call(
      best_airline, "ConfirmReservation",
      {{"reservation_id", Value(itinerary.flight_reservation_id)},
       {"authorization_id", Value(itinerary.authorization_id)}});
  if (!flight_confirm.ok()) return flight_confirm.wrap_error("confirm flight");

  // Step 7: confirm the room with the authorization id.
  itinerary.invocations += 1;
  itinerary.messages += 1;
  CallOutcome room_confirm = hotel_node_.call(
      best_hotel, "ConfirmReservation",
      {{"reservation_id", Value(itinerary.room_reservation_id)},
       {"authorization_id", Value(itinerary.authorization_id)}});
  if (!room_confirm.ok()) return room_confirm.wrap_error("confirm room");

  return itinerary;
}

}  // namespace spi::services

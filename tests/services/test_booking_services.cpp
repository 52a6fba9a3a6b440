// Airline / Hotel / CreditCard back-ends: reservation lifecycle, inventory
// invariants, concurrency safety, and the Luhn validator.
#include <gtest/gtest.h>

#include <thread>

#include "services/airline.hpp"
#include "services/creditcard.hpp"
#include "services/hotel.hpp"

namespace spi::services {
namespace {

using core::make_call;
using soap::Value;

// --- airline -----------------------------------------------------------------

class AirlineTest : public ::testing::Test {
 protected:
  Airline airline_{"TestAir",
                   {{"TA-1", "PEK", "HNL", 50'000, 2},
                    {"TA-2", "PEK", "HNL", 60'000, 1},
                    {"TA-3", "PEK", "SEA", 40'000, 5}},
                   /*seed=*/1};
};

TEST_F(AirlineTest, QueryFiltersByRoute) {
  auto outcome = airline_.query_flights(
      {{"origin", Value("PEK")}, {"destination", Value("HNL")}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().as_array().size(), 2u);

  auto none = airline_.query_flights(
      {{"origin", Value("PEK")}, {"destination", Value("LAX")}});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().as_array().size() == 0);
}

TEST_F(AirlineTest, ReserveDecrementsSeats) {
  ASSERT_EQ(airline_.seats_available("TA-1"), 2);
  auto reservation = airline_.reserve({{"flight_id", Value("TA-1")}});
  ASSERT_TRUE(reservation.ok());
  EXPECT_EQ(airline_.seats_available("TA-1"), 1);
  EXPECT_EQ(reservation.value().field("flight_id")->as_string(), "TA-1");
  EXPECT_EQ(reservation.value().field("price_cents")->as_int(), 50'000);
  EXPECT_FALSE(
      reservation.value().field("reservation_id")->as_string().empty());
}

TEST_F(AirlineTest, SoldOutFlightRejectsReservation) {
  ASSERT_TRUE(airline_.reserve({{"flight_id", Value("TA-2")}}).ok());
  auto second = airline_.reserve({{"flight_id", Value("TA-2")}});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kCapacityExceeded);
  // Sold-out flights disappear from queries.
  auto flights = airline_.query_flights(
      {{"origin", Value("PEK")}, {"destination", Value("HNL")}});
  EXPECT_EQ(flights.value().as_array().size(), 1u);
}

TEST_F(AirlineTest, UnknownFlightRejected) {
  auto outcome = airline_.reserve({{"flight_id", Value("NOPE-1")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kNotFound);
}

TEST_F(AirlineTest, ConfirmLifecycle) {
  auto reservation = airline_.reserve({{"flight_id", Value("TA-1")}});
  std::string id(reservation.value().field("reservation_id")->as_string());
  EXPECT_EQ(airline_.pending_reservations(), 1u);

  auto confirmed = airline_.confirm_reservation(
      {{"reservation_id", Value(id)}, {"authorization_id", Value("AUTH-1")}});
  ASSERT_TRUE(confirmed.ok());
  EXPECT_EQ(airline_.confirmed_reservations(), 1u);
  EXPECT_EQ(airline_.pending_reservations(), 0u);

  // Double confirmation is rejected.
  EXPECT_FALSE(airline_
                   .confirm_reservation({{"reservation_id", Value(id)},
                                         {"authorization_id", Value("A2")}})
                   .ok());
  // Confirmed reservations cannot be cancelled.
  EXPECT_FALSE(
      airline_.cancel_reservation({{"reservation_id", Value(id)}}).ok());
}

TEST_F(AirlineTest, CancelReturnsSeatToInventory) {
  auto reservation = airline_.reserve({{"flight_id", Value("TA-1")}});
  std::string id(reservation.value().field("reservation_id")->as_string());
  ASSERT_EQ(airline_.seats_available("TA-1"), 1);
  ASSERT_TRUE(
      airline_.cancel_reservation({{"reservation_id", Value(id)}}).ok());
  EXPECT_EQ(airline_.seats_available("TA-1"), 2);
  EXPECT_EQ(airline_.pending_reservations(), 0u);
}

TEST_F(AirlineTest, ConfirmUnknownReservationRejected) {
  EXPECT_FALSE(airline_
                   .confirm_reservation({{"reservation_id", Value("ghost")},
                                         {"authorization_id", Value("A")}})
                   .ok());
}

TEST_F(AirlineTest, ConcurrentReservationsNeverOversell) {
  // TA-3 has 5 seats; 20 threads race for them.
  std::atomic<int> successes{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 20; ++t) {
      threads.emplace_back([&] {
        if (airline_.reserve({{"flight_id", Value("TA-3")}}).ok()) {
          ++successes;
        }
      });
    }
  }
  EXPECT_EQ(successes.load(), 5);
  EXPECT_EQ(airline_.seats_available("TA-3"), 0);
}

TEST(AirlineRegistryTest, RegistersAllOperations) {
  core::ServiceRegistry registry;
  auto airlines = make_demo_airlines(7);
  for (auto& airline : airlines) airline->register_with(registry);
  EXPECT_EQ(registry.service_names().size(), 3u);
  for (const auto& name : {"AirChina", "PacificWings", "NimbusAir"}) {
    EXPECT_TRUE(registry.find(name, "QueryFlights").ok()) << name;
    EXPECT_TRUE(registry.find(name, "Reserve").ok()) << name;
    EXPECT_TRUE(registry.find(name, "ConfirmReservation").ok()) << name;
    EXPECT_TRUE(registry.find(name, "CancelReservation").ok()) << name;
  }
}

TEST(AirlineDemoDataTest, NimbusIsCheapestToHonolulu) {
  auto airlines = make_demo_airlines(7);
  std::int64_t best = INT64_MAX;
  std::string best_airline;
  for (auto& airline : airlines) {
    auto flights = airline->query_flights(
        {{"origin", Value("PEK")}, {"destination", Value("HNL")}});
    for (const Value& flight : flights.value().as_array()) {
      if (flight.field("price_cents")->as_int() < best) {
        best = flight.field("price_cents")->as_int();
        best_airline = flight.field("airline")->as_string();
      }
    }
  }
  EXPECT_EQ(best_airline, "NimbusAir");
  EXPECT_EQ(best, 72'300);
}

// --- hotel ---------------------------------------------------------------------

class HotelTest : public ::testing::Test {
 protected:
  Hotel hotel_{"TestInn",
               {{"STD", "Honolulu", "standard", 10'000, 2},
                {"STE", "Honolulu", "suite", 30'000, 1},
                {"ELS", "Elsewhere", "standard", 5'000, 9}},
               /*seed=*/2};
};

TEST_F(HotelTest, QueryComputesTotalForStay) {
  auto outcome = hotel_.query_rooms(
      {{"city", Value("Honolulu")}, {"nights", Value(5)}});
  ASSERT_TRUE(outcome.ok());
  const soap::Array& rooms = outcome.value().as_array();
  ASSERT_EQ(rooms.size(), 2u);
  for (const Value& room : rooms) {
    EXPECT_EQ(room.field("total_cents")->as_int(),
              room.field("rate_cents_per_night")->as_int() * 5);
  }
}

TEST_F(HotelTest, QueryRejectsNonPositiveNights) {
  EXPECT_FALSE(
      hotel_.query_rooms({{"city", Value("Honolulu")}, {"nights", Value(0)}})
          .ok());
  EXPECT_FALSE(
      hotel_.reserve({{"room_id", Value("STD")}, {"nights", Value(-2)}})
          .ok());
}

TEST_F(HotelTest, ReserveConfirmCancelLifecycle) {
  auto reservation =
      hotel_.reserve({{"room_id", Value("STD")}, {"nights", Value(3)}});
  ASSERT_TRUE(reservation.ok());
  EXPECT_EQ(reservation.value().field("total_cents")->as_int(), 30'000);
  EXPECT_EQ(hotel_.rooms_available("STD"), 1);
  std::string id(reservation.value().field("reservation_id")->as_string());

  ASSERT_TRUE(hotel_
                  .confirm_reservation({{"reservation_id", Value(id)},
                                        {"authorization_id", Value("A")}})
                  .ok());
  EXPECT_EQ(hotel_.confirmed_reservations(), 1u);
  EXPECT_FALSE(hotel_.cancel_reservation({{"reservation_id", Value(id)}}).ok());

  // A second reservation can still be cancelled back into inventory.
  auto second =
      hotel_.reserve({{"room_id", Value("STD")}, {"nights", Value(1)}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(hotel_.rooms_available("STD"), 0);
  ASSERT_TRUE(hotel_
                  .cancel_reservation(
                      {{"reservation_id",
                        Value(second.value().field("reservation_id")
                                  ->as_string())}})
                  .ok());
  EXPECT_EQ(hotel_.rooms_available("STD"), 1);
}

TEST_F(HotelTest, NoRoomsLeftRejected) {
  ASSERT_TRUE(
      hotel_.reserve({{"room_id", Value("STE")}, {"nights", Value(1)}}).ok());
  auto outcome =
      hotel_.reserve({{"room_id", Value("STE")}, {"nights", Value(1)}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kCapacityExceeded);
}

TEST(HotelDemoDataTest, GrandPalmHasCheapestStandardRoom) {
  auto hotels = make_demo_hotels(3);
  std::int64_t best = INT64_MAX;
  std::string best_hotel;
  for (auto& hotel : hotels) {
    auto rooms = hotel->query_rooms(
        {{"city", Value("Honolulu")}, {"nights", Value(1)}});
    for (const Value& room : rooms.value().as_array()) {
      if (room.field("total_cents")->as_int() < best) {
        best = room.field("total_cents")->as_int();
        best_hotel = room.field("hotel")->as_string();
      }
    }
  }
  EXPECT_EQ(best_hotel, "GrandPalm");
}

// --- credit card -----------------------------------------------------------------

TEST(LuhnTest, AcceptsKnownValidNumbers) {
  EXPECT_TRUE(luhn_valid("4111111111111111"));  // Visa test PAN
  EXPECT_TRUE(luhn_valid("5500005555555559"));
  EXPECT_TRUE(luhn_valid("4012888888881881"));
  // 11 digits is below the PAN length floor even though the checksum holds.
  EXPECT_FALSE(luhn_valid("79927398713"));
}

TEST(LuhnTest, RejectsInvalidNumbers) {
  EXPECT_FALSE(luhn_valid("4111111111111112"));
  EXPECT_FALSE(luhn_valid("1234567890123456"));
  EXPECT_FALSE(luhn_valid(""));
  EXPECT_FALSE(luhn_valid("41111111"));           // too short
  EXPECT_FALSE(luhn_valid("41111111111111111111"));  // too long
  EXPECT_FALSE(luhn_valid("4111-1111-1111-111"));    // non-digits
}

class CreditCardTest : public ::testing::Test {
 protected:
  CreditCardService card_{"CardGate", /*seed=*/3,
                          CreditCardOptions{/*limit_cents=*/100'000}};
  const std::string pan_ = "4111111111111111";
};

TEST_F(CreditCardTest, AuthorizeMintsAuthorizationId) {
  auto outcome = card_.authorize(
      {{"card_number", Value(pan_)}, {"amount_cents", Value(25'000)}});
  ASSERT_TRUE(outcome.ok());
  std::string auth(outcome.value().field("authorization_id")->as_string());
  EXPECT_EQ(auth.substr(0, 5), "AUTH-");
  EXPECT_EQ(outcome.value().field("amount_cents")->as_int(), 25'000);
  EXPECT_EQ(card_.authorized_total(pan_), 25'000);
}

TEST_F(CreditCardTest, RejectsInvalidCard) {
  auto outcome = card_.authorize({{"card_number", Value("4111111111111112")},
                                  {"amount_cents", Value(1)}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(CreditCardTest, RejectsNonPositiveAmount) {
  EXPECT_FALSE(card_
                   .authorize({{"card_number", Value(pan_)},
                               {"amount_cents", Value(0)}})
                   .ok());
  EXPECT_FALSE(card_
                   .authorize({{"card_number", Value(pan_)},
                               {"amount_cents", Value(-5)}})
                   .ok());
}

TEST_F(CreditCardTest, EnforcesCumulativeLimit) {
  ASSERT_TRUE(card_
                  .authorize({{"card_number", Value(pan_)},
                              {"amount_cents", Value(90'000)}})
                  .ok());
  auto declined = card_.authorize(
      {{"card_number", Value(pan_)}, {"amount_cents", Value(20'000)}});
  ASSERT_FALSE(declined.ok());
  EXPECT_EQ(declined.error().code(), ErrorCode::kCapacityExceeded);
  // A smaller charge under the limit still goes through.
  EXPECT_TRUE(card_
                  .authorize({{"card_number", Value(pan_)},
                              {"amount_cents", Value(10'000)}})
                  .ok());
}

TEST_F(CreditCardTest, VoidReleasesHold) {
  auto outcome = card_.authorize(
      {{"card_number", Value(pan_)}, {"amount_cents", Value(60'000)}});
  std::string auth(outcome.value().field("authorization_id")->as_string());
  ASSERT_TRUE(card_.void_authorization({{"authorization_id", Value(auth)}})
                  .ok());
  EXPECT_EQ(card_.authorized_total(pan_), 0);
  // Voiding twice fails.
  EXPECT_FALSE(card_.void_authorization({{"authorization_id", Value(auth)}})
                   .ok());
}

TEST_F(CreditCardTest, RegistersWithRegistry) {
  core::ServiceRegistry registry;
  card_.register_with(registry);
  auto outcome = registry.invoke(make_call(
      "CardGate", "Authorize",
      {{"card_number", Value(pan_)}, {"amount_cents", Value(100)}}));
  EXPECT_TRUE(outcome.ok());
}

}  // namespace
}  // namespace spi::services

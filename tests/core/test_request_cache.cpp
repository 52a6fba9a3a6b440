// RequestTemplateCache: byte-identity with full serialization (the only
// correctness criterion that matters for a serialization cache), shape
// handling, LRU eviction, and fallbacks.
#include <gtest/gtest.h>

#include "common/random.hpp"
#include "core/request_cache.hpp"
#include "core/wire.hpp"
#include "soap/envelope.hpp"

namespace spi::core {
namespace {

using soap::Value;

std::string reference(const ServiceCall& call) {
  return soap::build_envelope(wire::serialize_single_request(call));
}

TEST(RequestCacheTest, FirstRenderMatchesFullSerialization) {
  RequestTemplateCache cache;
  ServiceCall call = make_call("Echo", "Echo", {{"data", Value("hello")}});
  EXPECT_EQ(cache.render(call), reference(call));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RequestCacheTest, RepeatRendersHitAndStayIdentical) {
  RequestTemplateCache cache;
  for (int i = 0; i < 20; ++i) {
    ServiceCall call = make_call(
        "Weather", "GetWeather", {{"city", Value("city-" + std::to_string(i))}});
    EXPECT_EQ(cache.render(call), reference(call)) << i;
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 19u);
}

TEST(RequestCacheTest, EscapingStillHappensOnPatch) {
  RequestTemplateCache cache;
  ServiceCall plain = make_call("S", "Op", {{"data", Value("warmup")}});
  (void)cache.render(plain);
  ServiceCall nasty = make_call(
      "S", "Op", {{"data", Value("a<b>&c \"quotes\" '&amp;'")}});
  EXPECT_EQ(cache.render(nasty), reference(nasty));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RequestCacheTest, MultipleParamsPatchInOrder) {
  RequestTemplateCache cache;
  ServiceCall call = make_call("S", "Op", {{"first", Value("1st")},
                                           {"second", Value("2nd")},
                                           {"third", Value("3rd")}});
  (void)cache.render(call);
  ServiceCall changed = make_call("S", "Op", {{"first", Value("x")},
                                              {"second", Value("<y>")},
                                              {"third", Value("")}});
  EXPECT_EQ(cache.render(changed), reference(changed));
}

TEST(RequestCacheTest, DifferentShapesGetDifferentTemplates) {
  RequestTemplateCache cache;
  ServiceCall a = make_call("S", "Op", {{"x", Value("1")}});
  ServiceCall b = make_call("S", "Op", {{"y", Value("1")}});   // other name
  ServiceCall c = make_call("S", "Op2", {{"x", Value("1")}});  // other op
  ServiceCall d = make_call("S2", "Op", {{"x", Value("1")}});  // other svc
  for (const auto& call : {a, b, c, d}) {
    EXPECT_EQ(cache.render(call), reference(call));
  }
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(RequestCacheTest, NonStringParamsFallBack) {
  RequestTemplateCache cache;
  ServiceCall call = make_call("S", "Op", {{"n", Value(42)}});
  EXPECT_EQ(cache.render(call), reference(call));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(RequestCacheTest, ParameterlessCallsFallBack) {
  RequestTemplateCache cache;
  ServiceCall call = make_call("S", "Ping");
  EXPECT_EQ(cache.render(call), reference(call));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(RequestCacheTest, SentinelCollisionFallsBack) {
  RequestTemplateCache cache;
  ServiceCall call = make_call(
      "S", "Op", {{"data", Value("evil __SPI_TMPL_SLOT_0__ payload")}});
  EXPECT_EQ(cache.render(call), reference(call));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
}

TEST(RequestCacheTest, LruEvictionBoundsSize) {
  RequestTemplateCache cache(/*capacity=*/2);
  ServiceCall a = make_call("A", "Op", {{"x", Value("1")}});
  ServiceCall b = make_call("B", "Op", {{"x", Value("1")}});
  ServiceCall c = make_call("C", "Op", {{"x", Value("1")}});
  (void)cache.render(a);
  (void)cache.render(b);
  (void)cache.render(a);  // a is now most recent
  (void)cache.render(c);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.render(b);  // rebuilt
  EXPECT_EQ(cache.stats().misses, 4u);
  // Everything still byte-correct post-eviction.
  EXPECT_EQ(cache.render(b), reference(b));
}

TEST(RequestCacheTest, PropertyRandomStringCallsAlwaysByteIdentical) {
  RequestTemplateCache cache(/*capacity=*/8);
  SplitMix64 rng(0xCACE);
  for (int i = 0; i < 300; ++i) {
    soap::Struct params;
    size_t n = 1 + rng.next_below(3);
    for (size_t p = 0; p < n; ++p) {
      std::string name = "p";
      name += std::to_string(p);
      params.emplace_back(std::move(name),
                          Value(rng.ascii_string(rng.next_below(64))));
    }
    ServiceCall call =
        make_call("Svc" + std::to_string(rng.next_below(12)), "Op",
                  std::move(params));
    ASSERT_EQ(cache.render(call), reference(call)) << "iteration " << i;
  }
  auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);  // capacity 8, 12 services x shapes
}

}  // namespace
}  // namespace spi::core

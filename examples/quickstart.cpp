// Quickstart: stand up an SPI server on a real TCP loopback socket,
// register a service, and call it three ways — a single call, a serial
// batch, and the SPI pack interface (one SOAP message for the whole
// batch).
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/client.hpp"
#include "core/params.hpp"
#include "core/server.hpp"
#include "net/tcp_transport.hpp"

using namespace spi;

int main() {
  // 1. A transport. TcpTransport uses real sockets; swap in SimTransport
  //    to run on the paper's modeled 100 Mbit testbed link instead.
  net::TcpTransport transport;

  // 2. The application layer: plain handlers over typed values.
  core::ServiceRegistry registry;
  core::ServiceBinder(registry, "Greeter")
      .bind("Hello",
            [](const soap::Struct& params) -> Result<soap::Value> {
              auto name = core::require_string(params, "name");
              if (!name.ok()) return name.error();
              return soap::Value("Hello, " + name.value() + "!");
            })
      .bind("Add", [](const soap::Struct& params) -> Result<soap::Value> {
        auto a = core::require_int(params, "a");
        auto b = core::require_int(params, "b");
        if (!a.ok()) return a.error();
        if (!b.ok()) return b.error();
        return soap::Value(a.value() + b.value());
      });

  // 3. The SPI server: HTTP/SOAP protocol stage + application stage.
  core::SpiServer server(transport, net::Endpoint{"127.0.0.1", 0}, registry);
  if (Status started = server.start(); !started.ok()) {
    std::fprintf(stderr, "server failed: %s\n",
                 started.to_string().c_str());
    return 1;
  }
  std::printf("SPI server listening on %s\n",
              server.endpoint().to_string().c_str());

  core::SpiClient client(transport, server.endpoint());

  // 4a. A single traditional call: one SOAP message, one operation.
  core::CallOutcome hello =
      client.call("Greeter", "Hello", {{"name", soap::Value("world")}});
  if (!hello.ok()) {
    std::fprintf(stderr, "call failed: %s\n",
                 hello.error().to_string().c_str());
    return 1;
  }
  std::printf("single call     -> %s\n",
              std::string(hello.value().as_string()).c_str());

  // 4b. The pack interface: three calls, ONE SOAP message, futures per
  //     call (the client dispatcher routes each response back).
  auto batch = client.create_batch();
  auto greeting = batch.add("Greeter", "Hello",
                            {{"name", soap::Value("SPI")}});
  auto sum = batch.add("Greeter", "Add",
                       {{"a", soap::Value(40)}, {"b", soap::Value(2)}});
  auto fault = batch.add("Greeter", "Nonexistent", {});
  batch.execute();

  std::printf("packed call 0   -> %s\n",
              std::string(greeting.get().value().as_string()).c_str());
  std::printf("packed call 1   -> %lld\n",
              static_cast<long long>(sum.get().value().as_int()));
  core::CallOutcome failed = fault.get();
  std::printf("packed call 2   -> fault as expected: %s\n",
              failed.ok() ? "(unexpected success)"
                          : failed.error().to_string().c_str());

  // 5. What the pack interface saved on the wire.
  auto stats = client.stats();
  std::printf("\nenvelopes sent: %llu (of which packed: %llu), calls: %llu\n",
              static_cast<unsigned long long>(stats.assembler.envelopes),
              static_cast<unsigned long long>(
                  stats.assembler.packed_envelopes),
              static_cast<unsigned long long>(stats.assembler.calls));

  server.stop();
  return 0;
}

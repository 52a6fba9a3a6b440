// WS-Security example (paper §5): every SOAP message carries a
// wsse:Security header with a UsernameToken (SHA-1 password digest, nonce,
// timestamp); the server verifies the digest and rejects replays. A packed
// batch pays the header ONCE for the whole batch — the reason the paper
// calls packing "more attractive" under header-heavy specifications.
//
//   $ ./examples/secure_echo
#include <cstdio>

#include "core/client.hpp"
#include "core/server.hpp"
#include "net/sim_transport.hpp"
#include "services/echo.hpp"

using namespace spi;

int main() {
  net::SimTransport transport;  // instant link: this demo is functional

  core::ServiceRegistry registry;
  services::register_echo_service(registry);

  const soap::WsseCredentials credentials{"grid-user", "s3cret"};

  core::ServerOptions server_options;
  server_options.wsse = credentials;  // server now REQUIRES valid tokens
  core::SpiServer server(transport, net::Endpoint{"secure-node", 80},
                         registry, server_options);
  if (!server.start().ok()) return 1;

  // An unauthenticated client is turned away with a Client fault.
  core::SpiClient anonymous(transport, server.endpoint());
  core::CallOutcome rejected =
      anonymous.call("EchoService", "Echo", {{"data", soap::Value("hi")}});
  std::printf("anonymous client  -> %s\n",
              rejected.ok() ? "(unexpectedly accepted!)"
                            : rejected.error().to_string().c_str());

  // A client with the right credentials gets through; the wsse header is
  // generated per message by the Assembler.
  core::ClientOptions client_options;
  client_options.wsse = credentials;
  core::SpiClient secure(transport, server.endpoint(), client_options);

  core::CallOutcome accepted =
      secure.call("EchoService", "Echo", {{"data", soap::Value("hi")}});
  std::printf("authorized client -> %s\n",
              accepted.ok() ? std::string(accepted.value().as_string()).c_str()
                            : accepted.error().to_string().c_str());

  // A packed batch of 5 calls carries exactly ONE Security header.
  auto batch = secure.create_batch();
  std::vector<std::future<core::CallOutcome>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(batch.add(
        "EchoService", "Reverse",
        {{"data", soap::Value("payload-" + std::to_string(i))}}));
  }
  batch.execute();
  for (auto& future : futures) {
    core::CallOutcome outcome = future.get();
    std::printf("packed secure call -> %s\n",
                outcome.ok() ? std::string(outcome.value().as_string()).c_str()
                             : outcome.error().to_string().c_str());
  }

  auto stats = secure.stats();
  std::printf("\n%llu calls crossed in %llu envelopes; each envelope paid "
              "the WS-Security header once\n",
              static_cast<unsigned long long>(stats.assembler.calls),
              static_cast<unsigned long long>(stats.assembler.envelopes));

  server.stop();
  return 0;
}

// Self-test of the benchmark's own instruments, run by perfbench/run.py
// before every measurement:
//   * the counting transport wrapper forwards the whole non-blocking
//     surface, so a server and an async client built on it keep their
//     reactor drivers (otherwise the traced run would measure the blocking
//     drivers instead);
//   * the trace-id join and the per-request breakdown add up to the
//     exchange;
//   * exact quantiles.
// Exits non-zero on the first failed check.
#include <poll.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/client.hpp"
#include "core/server.hpp"
#include "counting_transport.hpp"
#include "http/async_client.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "recorder.hpp"
#include "sample_stats.hpp"
#include "services/echo.hpp"

namespace {

using namespace spi;
using perfbench::CountingTransport;

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

template <typename T>
bool would_block(const Result<T>& result) {
  return !result.ok() && result.error().code() == ErrorCode::kWouldBlock;
}

bool wait_fd(int fd, short events) {
  pollfd p{fd, events, 0};
  return ::poll(&p, 1, 2000) == 1;
}

void test_wrapper_forwards_nonblocking_surface() {
  net::TcpTransport tcp;
  CountingTransport counting(tcp);
  check(counting.supports_nonblocking_connect(),
        "supports_nonblocking_connect is forwarded");
  check(counting.supports_reuse_port() == tcp.supports_reuse_port(),
        "supports_reuse_port is forwarded");

  auto listened = counting.listen(net::Endpoint{"127.0.0.1", 0});
  check(listened.ok(), "listen through the wrapper");
  if (!listened.ok()) return;
  auto listener = std::move(listened).value();
  check(listener->native_handle() >= 0, "listener native_handle is forwarded");
  check(listener->set_nonblocking(true).ok(),
        "listener set_nonblocking is forwarded");
  check(would_block(listener->try_accept()),
        "try_accept with nothing pending is kWouldBlock");

  auto dialed = counting.connect_nonblocking(listener->endpoint());
  check(dialed.ok(), "connect_nonblocking through the wrapper");
  if (!dialed.ok()) return;
  auto client = std::move(dialed.value().connection);
  check(client->native_handle() >= 0, "connection native_handle is forwarded");
  check(client->supports_sendv(), "supports_sendv is forwarded");
  if (dialed.value().pending) {
    check(wait_fd(client->native_handle(), POLLOUT), "dial becomes writable");
  }
  check(client->finish_connect().ok(), "finish_connect is forwarded");

  check(wait_fd(listener->native_handle(), POLLIN), "listener readable");
  auto accepted = listener->try_accept();
  check(accepted.ok(), "try_accept is forwarded");
  if (!accepted.ok()) return;
  auto server = std::move(accepted).value();
  check(server->set_nonblocking(true).ok(), "set_nonblocking is forwarded");
  check(would_block(server->try_receive(64)),
        "try_receive on an empty socket is kWouldBlock");

  const std::string first = "hello ";
  const std::string second = "world";
  const net::ConstBuffer segments[] = {{first.data(), first.size()},
                                       {second.data(), second.size()}};
  auto sent = client->try_sendv(segments, 2);
  check(sent.ok() && sent.value() == first.size() + second.size(),
        "try_sendv is forwarded");
  check(wait_fd(server->native_handle(), POLLIN), "server readable");
  auto got = server->try_receive(64);
  check(got.ok() && got.value() == first + second, "try_receive is forwarded");

  const perfbench::IoSnapshot io = counting.io();
  check(io.send_calls == 1, "one send call counted");
  check(io.recv_calls == 2, "two receive calls counted");
  check(io.try_calls == 3, "three try_* calls counted");
  check(io.would_block == 1, "one kWouldBlock counted");
  check(io.recv_bytes == first.size() + second.size(), "bytes counted");

  net::SimTransport sim;
  CountingTransport counting_sim(sim);
  check(!counting_sim.supports_nonblocking_connect(),
        "a blocking transport stays blocking");
}

void test_traced_stack_keeps_reactor_drivers() {
  net::TcpTransport tcp;
  CountingTransport server_io(tcp);
  CountingTransport client_io(tcp);
  core::ServiceRegistry registry;
  services::register_echo_service(registry);
  perfbench::TraceRecorder recorder(8);

  core::ServerOptions server_options;
  server_options.protocol_threads = 2;
  server_options.application_threads = 2;
  core::SpiServer server(server_io, net::Endpoint{"127.0.0.1", 0}, registry,
                         server_options);
  server.handlers().add(perfbench::TraceRecorder::make_handler(recorder));
  check(server.start().ok(), "server starts on the wrapper");
  check(server.http_server().reactor_mode(),
        "server keeps its reactor driver on the wrapper");

  {
    Reactor reactor;
    reactor.start();
    http::AsyncHttpClient http(reactor, client_io);
    core::ClientOptions options;
    options.keep_alive = true;
    options.async_client = &http;
    core::SpiClient client(client_io, server.endpoint(), options);

    std::vector<core::ServiceCall> calls = {
        core::make_call("EchoService", "Echo", {{"data", soap::Value("a")}}),
        core::make_call("EchoService", "Echo", {{"data", soap::Value("b")}})};
    const auto trace = perfbench::TraceRecorder::trace_for(3);
    std::future<core::SpiClient::PackedResult> future;
    {
      telemetry::TraceScope scope(trace);
      recorder.on_submit(3);
      future = client.execute_packed_future(calls);
    }
    auto result = future.get();
    recorder.on_complete(3);
    check(result.ok() && result.value().size() == 2 &&
              result.value()[1].ok() &&
              result.value()[1].value().as_string() == "b",
          "packed echo through the wrappers");
    check(http.stats().connects_started == 1, "async client dialed once");
  }
  check(client_io.io().try_calls > 0,
        "async client used the non-blocking path");
  check(server_io.io().try_calls > 0, "server used the non-blocking path");

  const auto means = recorder.means(0);
  check(means.messages == 1, "the message's four stamps joined by trace id");
  check(means.pre_execute_us > 0 && means.post_execute_us > 0 &&
            means.pre_execute_us + means.post_execute_us < means.exchange_us,
        "server phases fall inside the exchange");
  server.stop();
}

void test_accounting_identity() {
  check(perfbench::TraceRecorder::message_of(
            perfbench::TraceRecorder::trace_for(0x1234abcd).trace_id) ==
            0x1234abcdULL,
        "trace id round-trips the message number");
  check(!perfbench::TraceRecorder::message_of(
             telemetry::TraceContext::generate().trace_id),
        "foreign trace ids are ignored");

  const auto b = perfbench::Breakdown::from_parts(100.0, 30.0, 50.0, 15.0);
  check(b.unaccounted_us == 5.0, "unaccounted is the remainder");
  check(b.adds_up(), "pre + execute + post + unaccounted == exchange");
  const auto negative = perfbench::Breakdown::from_parts(10.0, 6.0, 5.0, 1.0);
  check(negative.adds_up() && negative.unaccounted_us == -2.0,
        "the identity holds when the parts overlap");
}

void test_exact_quantiles() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  check(perfbench::exact_quantile(samples, 0.5) == 50, "p50 of 1..100");
  check(perfbench::exact_quantile(samples, 0.99) == 99, "p99 of 1..100");
  check(perfbench::exact_quantile(samples, 1.0) == 100, "max of 1..100");
  std::vector<double> empty;
  check(perfbench::exact_quantile(empty, 0.5) == 0, "empty set");
}

}  // namespace

int main() {
  test_wrapper_forwards_nonblocking_surface();
  test_traced_stack_keeps_reactor_drivers();
  test_accounting_identity();
  test_exact_quantiles();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: ok\n");
  return 0;
}

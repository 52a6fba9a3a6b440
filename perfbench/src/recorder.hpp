// In-memory span recorder for the traced benchmark run.
//
// Each packed message the benchmark submits gets its own trace id, built
// from the message's sequence number, and is sent under a TraceScope so the
// client puts it on the wire. A core::Handler on the server's handler chain
// reads the id back from the parsed request and stamps the message's
// request phase (after parse, before execute) and response phase (after
// execute, before assemble). Together with the benchmark's own submit and
// completion stamps these give four points per message, joined by trace id
// without any lock. Behind a packing proxy one message reaches several
// backends under the same trace id: the earliest request stamp and the
// latest response stamp are kept.
//
// Spans are kept in memory and written as JSON lines when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/handlers.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

class TraceRecorder {
 public:
  /// Stamps messages 0..capacity-1; later messages are not traced.
  explicit TraceRecorder(size_t capacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  size_t capacity() const { return submit_ns_.size(); }

  /// Trace context carrying message number `message`.
  static spi::telemetry::TraceContext trace_for(std::uint64_t message);
  /// Inverse of trace_for; nullopt for ids it did not make.
  static std::optional<std::uint64_t> message_of(std::string_view trace_id);

  void on_submit(std::uint64_t message);
  void on_complete(std::uint64_t message);
  void on_server_request(std::uint64_t message);
  void on_server_response(std::uint64_t message);

  /// Handler that stamps server request/response phases into `recorder`,
  /// which must outlive every server the handler is added to.
  static std::shared_ptr<spi::core::Handler> make_handler(
      TraceRecorder& recorder);

  /// Mean microseconds over messages numbered `first` or later that have
  /// all four stamps.
  struct Means {
    size_t messages = 0;
    double exchange_us = 0;     // submit -> completion
    double pre_execute_us = 0;  // submit -> server request phase
    double post_execute_us = 0; // server response phase -> completion
  };
  Means means(std::uint64_t first) const;

  /// Writes up to `max_messages` messages' spans as JSON lines: one
  /// client.exchange root per message with client.pre_execute,
  /// server.execute_phase and client.post_execute children. Returns the
  /// number of spans written; 0 on an unwritable path.
  size_t write_spans(const std::string& path, size_t max_messages) const;

 private:
  std::int64_t now_ns() const;

  std::int64_t origin_ns_;
  // Stamps in ns since origin_ns_, plus one (0 = not stamped yet).
  std::vector<std::atomic<std::int64_t>> submit_ns_;
  std::vector<std::atomic<std::int64_t>> request_ns_;
  std::vector<std::atomic<std::int64_t>> response_ns_;
  std::vector<std::atomic<std::int64_t>> complete_ns_;
};

}  // namespace perfbench

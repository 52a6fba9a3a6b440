// Assembler (paper §3.4): packs several service request payloads — or
// several response payloads — into ONE SOAP message. Exists on both sides:
// the client assembler congregates M request bodies, the server assembler
// congregates the M results the application stage produced. Also attaches
// envelope header blocks (e.g. WS-Security), which is where packing's
// "pay the header once" advantage comes from.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "common/gathered.hpp"
#include "core/pack_cost.hpp"
#include "core/wire.hpp"
#include "core/wire_view.hpp"
#include "soap/wsse.hpp"
#include "telemetry/metrics.hpp"

namespace spi::core {

/// How assemble_request frames a batch.
enum class PackMode {
  /// Always use Parallel_Method, even for one call (pays the packing
  /// overhead the paper measures at M=1).
  kPacked,
  /// Always traditional one-call messages; batch of M is a caller error.
  kSingle,
  /// Parallel_Method for M > 1, traditional for M == 1.
  kAuto,
};

class Assembler {
 public:
  struct Stats {
    std::uint64_t envelopes = 0;         // messages assembled
    std::uint64_t packed_envelopes = 0;  // of which Parallel_Method/Response
    std::uint64_t calls = 0;             // call payloads carried
  };

  /// `wsse` (optional, unowned) adds a Security header to every envelope.
  /// `pack_cost` models the testbed's packed-message handling overhead
  /// (see pack_cost.hpp); it is charged once per packed envelope built.
  explicit Assembler(soap::WsseTokenFactory* wsse = nullptr,
                     PackCostModel pack_cost = {})
      : wsse_(wsse), pack_cost_(pack_cost) {}

  /// Client side: M calls -> one envelope document, its large clean
  /// strings spliced (xml::Writer::shared_text): the caller's Values keep
  /// them alive. Throws SpiError(kInvalidArgument) on empty batches or on
  /// a multi-call batch with PackMode::kSingle.
  Gathered assemble_request(std::span<const ServiceCall> calls,
                            PackMode mode = PackMode::kAuto);

  /// Relay side: calls viewed in another envelope -> one envelope, each
  /// call's content copied verbatim under a fresh start tag (ids 0..n-1,
  /// wire::write_spliced_request). Framing, header blocks, counters and
  /// the pack-cost charge are those of the ServiceCall form above, which
  /// it matches byte for byte on envelopes this stack wrote.
  std::string assemble_request(std::span<const wire::CallView> calls,
                               PackMode mode = PackMode::kAuto);

  /// Client side: a remote-execution plan -> one envelope document.
  /// Throws SpiError(kInvalidArgument) on an invalid plan.
  std::string assemble_plan(const RemotePlan& plan);

  /// Server side: outcomes -> one envelope document, spliced as above.
  /// `packed` must match the request framing so traditional clients get
  /// traditional responses.
  Gathered assemble_response(std::span<const IndexedOutcome> outcomes,
                             const ServiceCall& single_call, bool packed);

  /// Relay side: the merge. outcomes[i] answers calls[i] under
  /// calls[i].id (wire::write_spliced_response); `packed` false answers
  /// the one call in traditional framing. Counters and the pack-cost
  /// charge are those of the form above, which it matches byte for byte
  /// on replies this stack wrote.
  std::string assemble_response(std::span<const wire::RelayedOutcome> outcomes,
                                std::span<const wire::CallView> calls,
                                bool packed);

  Stats stats() const;

  /// Registers scrape-time views of this assembler's counters into
  /// `registry` (spi_assembler_*_total{side=...}).
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    std::string_view side);

 private:
  /// Counts one envelope, gathers its header blocks (WS-Security, the
  /// ambient trace and deadline) and returns this thread's Writer holding
  /// the envelope framing, positioned inside SOAP-ENV:Body with room for
  /// the body as `body` estimates it. The caller writes the body entries
  /// and takes the finished envelope.
  xml::Writer& open_envelope(xml::Reservation body);

  /// The framing decision of assemble_request: true for Parallel_Method.
  /// Throws on an empty batch or a multi-call batch in kSingle.
  bool frame_packed(size_t calls, PackMode mode);

  soap::WsseTokenFactory* wsse_;
  PackCostModel pack_cost_;
  std::atomic<std::uint64_t> envelopes_{0};
  std::atomic<std::uint64_t> packed_envelopes_{0};
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace spi::core

// spi_perfbench — runs the SPI stack in-process under one workload and
// prints its metrics. perfbench/run.py builds this binary and passes each
// workload's fixed settings (perfbench/workloads.json) as flags.
//
// The stack under test is the real one: SpiServer(s) behind a reactor on
// loopback TCP, the reactor-driven async SpiClient, optionally a
// PackingProxy in front of K backends, or — for the paper cell — the
// blocking client and server over SimTransport with the testbed link model.
//
// Load: one submitting thread (plus the async client's reactor thread).
// An open-loop phase sends at a fixed rate and times each message from its
// scheduled send time; a closed-loop phase keeps a fixed number of
// messages outstanding and measures throughput. Inputs are a pool of
// distinct echo batches generated from --seed before anything is timed;
// every outcome is checked against the payload it echoes.
//
// --trace 0 prints the end-to-end metrics. --trace 1 first repeats the
// untraced open loop briefly (the overhead baseline), then runs a traced
// stack: a counting transport wrapper, a handler that stamps each message's
// server phases by trace id, and per-message trace scopes. Per-layer
// numbers come from those stamps and from deltas of the counters and
// histograms the program already exports.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchsupport/workload.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "counting_transport.hpp"
#include "http/async_client.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "proxy/proxy.hpp"
#include "recorder.hpp"
#include "sample_stats.hpp"
#include "services/echo.hpp"

namespace {

using namespace spi;
using perfbench::CountingTransport;
using perfbench::IoSnapshot;
using perfbench::TraceRecorder;
using SteadyClock = std::chrono::steady_clock;

// --- settings --------------------------------------------------------------

struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;

  // The paper cell: SimTransport with the testbed link, the calibrated
  // pack-cost model and no keep-alive (the Axis 1.3 default), driven by one
  // blocking caller. Otherwise loopback TCP and the async client.
  bool sim = false;
  size_t calls = 16;            // M, calls per packed message
  size_t payload = 100;         // bytes per call
  double rate = 0;              // open-loop messages/s (0 = no open loop)
  double open_share = 0.5;      // share of --seconds spent in the open loop
  size_t pool = 64;             // distinct batches generated from the seed
  size_t warmup = 100;          // closed-loop messages before timing
  size_t protocol_threads = 4;
  size_t application_threads = 2;
  size_t backends = 0;          // >0: PackingProxy in front of K backends
  std::string spans_out;
};

// Fixed for every workload.
constexpr size_t kRounds = 5;        // per run, each on a freshly set-up stack
constexpr size_t kOutstanding = 4;   // closed-loop messages in flight
constexpr size_t kConnections = 4;   // async client connections per endpoint
constexpr size_t kReactorThreads = 1;
constexpr double kPaperPackNsPerByte = 100;
constexpr double kPaperPackUsPerCall = 200;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "spi_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Settings parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("expected --flag value pairs, got '" + key + "'");
    }
    flags[key.substr(2)] = argv[++i];
  }
  auto take = [&](const char* name) -> std::optional<std::string> {
    auto it = flags.find(name);
    if (it == flags.end()) return std::nullopt;
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  auto number = [&](const char* name, double fallback) {
    auto value = take(name);
    if (!value) return fallback;
    char* end = nullptr;
    double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0' || parsed < 0) {
      usage_error(std::string("bad value for --") + name);
    }
    return parsed;
  };
  auto count = [&](const char* name, size_t fallback) {
    return static_cast<size_t>(number(name, static_cast<double>(fallback)));
  };

  Settings s;
  s.workload = take("workload").value_or("unnamed");
  s.seed = static_cast<std::uint64_t>(number("seed", 1));
  s.seconds = number("seconds", s.seconds);
  s.trace = number("trace", 0) != 0;
  std::string transport = take("transport").value_or("tcp");
  if (transport != "tcp" && transport != "sim") {
    usage_error("--transport must be tcp or sim");
  }
  s.sim = transport == "sim";
  s.calls = count("calls", s.calls);
  s.payload = count("payload", s.payload);
  s.rate = number("rate", s.rate);
  s.open_share = number("open-share", s.open_share);
  s.pool = count("pool", s.pool);
  s.warmup = count("warmup", s.warmup);
  s.protocol_threads = count("protocol-threads", s.protocol_threads);
  s.application_threads =
      count("application-threads", s.application_threads);
  s.backends = count("backends", s.backends);
  s.spans_out = take("spans-out").value_or("");
  if (!flags.empty()) usage_error("unknown flag --" + flags.begin()->first);
  if (s.calls == 0 || s.pool == 0 || s.seconds <= 0 || s.open_share > 1) {
    usage_error("calls, pool and seconds must be > 0, open-share at most 1");
  }
  if (s.sim && (s.rate > 0 || s.backends > 0)) {
    usage_error("the sim transport runs closed loop without a proxy");
  }
  return s;
}

// --- the stack under test --------------------------------------------------

/// Snapshot of a LatencyHistogram's sum and count, summable across servers.
struct HistTotals {
  double sum_us = 0;
  double count = 0;

  void add(const LatencyHistogram& h) {
    sum_us += static_cast<double>(h.total_ns()) / 1e3;
    count += static_cast<double>(h.count());
  }
  HistTotals operator-(const HistTotals& earlier) const {
    return {sum_us - earlier.sum_us, count - earlier.count};
  }
  double mean() const { return count > 0 ? sum_us / count : 0.0; }
};

/// Histograms a SpiServer records into, looked up once after start().
struct ServerInstruments {
  const LatencyHistogram* parse = nullptr;
  const LatencyHistogram* execute = nullptr;
  const LatencyHistogram* assemble = nullptr;
  const LatencyHistogram* fanout = nullptr;
  const LatencyHistogram* read = nullptr;
  const LatencyHistogram* app_wait = nullptr;

  explicit ServerInstruments(core::SpiServer& server) {
    auto& reg = server.metrics();
    const char* help = "looked up by the benchmark";
    parse = &reg.histogram("spi_server_stage_seconds", help, "stage=\"parse\"");
    execute =
        &reg.histogram("spi_server_stage_seconds", help, "stage=\"execute\"");
    assemble =
        &reg.histogram("spi_server_stage_seconds", help, "stage=\"assemble\"");
    fanout = &reg.histogram("spi_server_fanout_width", help, {},
                            telemetry::HistogramUnit::kNone);
    read = &reg.histogram("spi_http_read_seconds", help);
    app_wait = &reg.histogram("spi_pool_task_wait_seconds", help,
                              "pool=\"application\"");
  }
};

/// Everything per-layer metrics are computed from, read between phases.
struct LayerSnapshot {
  HistTotals parse, execute, assemble, fanout, read, app_wait;
  double app_tasks = 0;
  double reactor_iterations = 0;
  double sendv_segments = 0;
  http::AsyncHttpClient::Stats http;
  net::WireStats wire;
  IoSnapshot io;
  std::uint64_t server_received_bytes = 0;
  proxy::PackingProxy::Stats proxy;
};

class Stack {
 public:
  Stack(const Settings& settings, TraceRecorder* recorder)
      : recorder_(recorder) {
    if (settings.sim) {
      base_ = std::make_unique<net::SimTransport>(
          net::LinkParams::ethernet_100mbit());
    } else {
      base_ = std::make_unique<net::TcpTransport>();
    }
    if (recorder != nullptr) {
      client_io_ = std::make_unique<CountingTransport>(*base_);
      server_io_ = std::make_unique<CountingTransport>(*base_);
      proxy_io_ = std::make_unique<CountingTransport>(*base_);
    }
    services::register_echo_service(registry_);

    core::PackCostModel pack_cost;
    if (settings.sim) {
      pack_cost.ns_per_byte = kPaperPackNsPerByte;
      pack_cost.us_per_call = kPaperPackUsPerCall;
    }

    const size_t server_count = std::max<size_t>(settings.backends, 1);
    for (size_t i = 0; i < server_count; ++i) {
      core::ServerOptions options;
      options.reactor_threads = kReactorThreads;
      options.protocol_threads = settings.protocol_threads;
      options.application_threads = settings.application_threads;
      options.pack_cost = pack_cost;
      net::Endpoint at = settings.sim
                             ? net::Endpoint{"server-" + std::to_string(i), 80}
                             : net::Endpoint{"127.0.0.1", 0};
      auto server = std::make_unique<core::SpiServer>(server_transport(), at,
                                                      registry_, options);
      if (recorder != nullptr) {
        server->handlers().add(TraceRecorder::make_handler(*recorder));
      }
      check(server->start(), "server start");
      instruments_.emplace_back(*server);
      servers_.push_back(std::move(server));
    }

    net::Endpoint target = servers_.front()->endpoint();
    if (settings.backends > 0) {
      proxy::ProxyOptions options;
      for (const auto& server : servers_) {
        options.backends.push_back(server->endpoint());
      }
      options.shard_param = "data";  // spreads each pack over the fleet
      options.protocol_threads = settings.protocol_threads;
      options.reactor_threads = kReactorThreads;
      options.scatter_threads = 0;  // async scatter on loopback TCP
      options.max_pooled_connections_per_backend = kConnections;
      proxy_ = std::make_unique<proxy::PackingProxy>(
          proxy_io_ ? *proxy_io_ : *base_, net::Endpoint{"127.0.0.1", 0},
          std::move(options));
      check(proxy_->start(), "proxy start");
      if (!proxy_->async_scatter()) fail("proxy fell back to blocking scatter");
      target = proxy_->endpoint();
    }

    net::Transport& client_transport = client_io_ ? *client_io_ : *base_;
    core::ClientOptions options;
    options.keep_alive = !settings.sim;
    options.pack_cost = pack_cost;
    if (!settings.sim) {
      reactor_ = std::make_unique<Reactor>();
      reactor_->start();
      http::AsyncClientOptions http_options;
      http_options.max_connections_per_endpoint = kConnections;
      http_ = std::make_unique<http::AsyncHttpClient>(
          *reactor_, client_transport, http_options);
      options.async_client = http_.get();
    }
    client_ = std::make_unique<core::SpiClient>(client_transport, target,
                                                options);

    // A wrapper that lost the non-blocking surface would silently move the
    // server onto its blocking driver: refuse to measure that program.
    for (const auto& server : servers_) {
      if (server->http_server().reactor_mode() == settings.sim) {
        fail("server connection driver differs from the workload's");
      }
    }
  }

  ~Stack() {
    client_.reset();
    http_.reset();
    reactor_.reset();
    if (proxy_) proxy_->stop();
    for (auto& server : servers_) server->stop();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  core::SpiClient& client() { return *client_; }
  TraceRecorder* recorder() { return recorder_; }

  LayerSnapshot snapshot() const {
    LayerSnapshot s;
    for (size_t i = 0; i < servers_.size(); ++i) {
      const ServerInstruments& in = instruments_[i];
      s.parse.add(*in.parse);
      s.execute.add(*in.execute);
      s.assemble.add(*in.assemble);
      s.fanout.add(*in.fanout);
      s.read.add(*in.read);
      s.app_wait.add(*in.app_wait);
      const core::SpiServer& server = *servers_[i];
      s.app_tasks += static_cast<double>(server.stats().application_tasks);
      s.reactor_iterations +=
          static_cast<double>(server.http_server().reactor_loop_iterations());
      s.sendv_segments +=
          static_cast<double>(server.http_server().sendv_segments());
    }
    if (http_) s.http = http_->stats();
    s.wire = base_->stats();
    for (const auto* io : {client_io_.get(), server_io_.get(), proxy_io_.get()}) {
      if (io == nullptr) continue;
      const IoSnapshot part = io->io();
      s.io.send_calls += part.send_calls;
      s.io.recv_calls += part.recv_calls;
      s.io.try_calls += part.try_calls;
      s.io.would_block += part.would_block;
      s.io.io_ns += part.io_ns;
      s.io.recv_bytes += part.recv_bytes;
    }
    if (server_io_) s.server_received_bytes = server_io_->io().recv_bytes;
    if (proxy_) s.proxy = proxy_->stats();
    return s;
  }

  [[noreturn]] static void fail(const std::string& what) {
    std::fprintf(stderr, "spi_perfbench: %s\n", what.c_str());
    std::exit(1);
  }

 private:
  static void check(const Status& status, const char* what) {
    if (!status.ok()) fail(std::string(what) + ": " + status.error().to_string());
  }
  net::Transport& server_transport() {
    return server_io_ ? *server_io_ : *base_;
  }

  TraceRecorder* recorder_;
  std::unique_ptr<net::Transport> base_;
  std::unique_ptr<CountingTransport> client_io_, server_io_, proxy_io_;
  core::ServiceRegistry registry_;
  std::vector<std::unique_ptr<core::SpiServer>> servers_;
  std::vector<ServerInstruments> instruments_;
  std::unique_ptr<proxy::PackingProxy> proxy_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<http::AsyncHttpClient> http_;
  std::unique_ptr<core::SpiClient> client_;
};

// --- load generation -------------------------------------------------------

using Batch = std::vector<core::ServiceCall>;

/// What one load phase measured. Latencies hold successful messages only.
struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> late_us;        // open loop: submit minus schedule
  std::uint64_t messages = 0;         // messages completed
  std::uint64_t calls_attempted = 0;
  std::uint64_t calls_failed = 0;
  std::uint64_t calls_ok_in_window = 0;
  double window_s = 0;

  void merge(const PhaseResult& other) {

    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    messages += other.messages;
    calls_attempted += other.calls_attempted;
    calls_failed += other.calls_failed;
    calls_ok_in_window += other.calls_ok_in_window;
    window_s += other.window_s;
  }
};

double us_between(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Drives packed messages through one Stack from the calling thread.
class Generator {
 public:
  Generator(Stack& stack, const std::vector<Batch>& pool,
            std::uint64_t& next_message)
      : stack_(stack), pool_(pool), next_message_(next_message) {}

  /// Fixed-rate sends for `seconds`; latency from each scheduled time.
  PhaseResult open_loop(double rate, double seconds) {
    PhaseResult result;
    const auto period = std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    const auto start = SteadyClock::now() + std::chrono::milliseconds(1);
    const auto end =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::uint64_t i = 0;; ++i) {
      const auto due = start + period * static_cast<std::int64_t>(i);
      if (due >= end) break;
      const size_t index = next_pool_index();
      Batch calls = pool_[index];  // copied before the send is due
      std::this_thread::sleep_until(due);
      result.late_us.push_back(us_between(due, SteadyClock::now()));
      issue(std::move(calls), index, due, result, end);
    }
    wait_idle();
    result.window_s = std::chrono::duration<double>(end - start).count();
    return result;
  }

  /// Keeps `outstanding` messages in flight until `seconds` pass or
  /// `max_messages` have been sent; latency from submit.
  PhaseResult closed_loop(size_t outstanding, double seconds,
                          size_t max_messages) {
    PhaseResult result;
    const auto start = SteadyClock::now();
    const auto end =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t sent = 0; sent < max_messages; ++sent) {
      const size_t index = next_pool_index();
      Batch calls = pool_[index];
      {
        std::unique_lock lock(mutex_);
        if (!cv_.wait_until(lock, end,
                            [&] { return inflight_ < outstanding; })) {
          break;
        }
      }
      const auto now = SteadyClock::now();
      if (now >= end) break;
      issue(std::move(calls), index, now, result, end);
    }
    wait_idle();
    result.window_s =
        std::chrono::duration<double>(std::min(SteadyClock::now(), end) -
                                      start)
            .count();
    return result;
  }

  /// One blocking caller (the paper's method) for `seconds` or until
  /// `max_messages`; latency from submit.
  PhaseResult blocking_loop(double seconds, size_t max_messages) {
    PhaseResult result;
    const auto start = SteadyClock::now();
    const auto end =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(seconds));
    for (size_t sent = 0; sent < max_messages; ++sent) {
      const size_t index = next_pool_index();
      Batch calls = pool_[index];
      const auto submit = SteadyClock::now();
      if (submit >= end) break;
      const std::uint64_t message = next_message_++;
      TraceRecorder* recorder = stack_.recorder();
      Result<std::vector<core::CallOutcome>> outcome =
          std::vector<core::CallOutcome>{};
      if (recorder != nullptr && message < recorder->capacity()) {
        const auto trace = TraceRecorder::trace_for(message);
        telemetry::TraceScope scope(trace);
        recorder->on_submit(message);
        outcome = stack_.client().execute_packed(calls);
        recorder->on_complete(message);
      } else {
        outcome = stack_.client().execute_packed(calls);
      }
      record(result, index, outcome, submit, SteadyClock::now(), end);
    }
    result.window_s =
        std::chrono::duration<double>(std::min(SteadyClock::now(), end) -
                                      start)
            .count();
    return result;
  }

 private:
  size_t next_pool_index() { return pool_cursor_++ % pool_.size(); }

  void issue(Batch calls, size_t index, SteadyClock::time_point from,
             PhaseResult& result, SteadyClock::time_point window_end) {
    {
      std::lock_guard lock(mutex_);
      ++inflight_;
    }
    const std::uint64_t message = next_message_++;
    auto done = [this, index, from, &result, window_end,
                 message](core::SpiClient::PackedResult outcome) {
      const auto now = SteadyClock::now();
      if (TraceRecorder* recorder = stack_.recorder()) {
        recorder->on_complete(message);
      }
      std::lock_guard lock(mutex_);
      record(result, index, outcome, from, now, window_end);
      --inflight_;
      cv_.notify_all();
    };
    TraceRecorder* recorder = stack_.recorder();
    if (recorder != nullptr && message < recorder->capacity()) {
      const auto trace = TraceRecorder::trace_for(message);
      telemetry::TraceScope scope(trace);
      recorder->on_submit(message);
      stack_.client().execute_packed_async(
          std::move(calls), core::PackMode::kPacked,
          core::SpiClient::PackedCallback(std::move(done)));
    } else {
      stack_.client().execute_packed_async(
          std::move(calls), core::PackMode::kPacked,
          core::SpiClient::PackedCallback(std::move(done)));
    }
  }

  /// Checks every outcome against the payload it must echo; only fully
  /// correct messages are timed.
  void record(PhaseResult& result, size_t index,
              const core::SpiClient::PackedResult& outcome,
              SteadyClock::time_point from, SteadyClock::time_point now,
              SteadyClock::time_point window_end) {
    const Batch& expected = pool_[index];
    const size_t errors = outcome.ok()
                              ? bench::count_echo_errors(expected, outcome.value())
                              : expected.size();
    ++result.messages;
    result.calls_attempted += expected.size();
    result.calls_failed += errors;
    if (errors == 0) {
      result.latency_ms.push_back(us_between(from, now) / 1e3);
      if (now <= window_end) result.calls_ok_in_window += expected.size();
    }
  }

  void wait_idle() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return inflight_ == 0; });
  }

  Stack& stack_;
  const std::vector<Batch>& pool_;
  std::uint64_t& next_message_;
  size_t pool_cursor_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t inflight_ = 0;
};

/// Closed-loop warm-up on a fresh stack (never timed as a result).
PhaseResult warm_up(Stack& stack, const Settings& s,
                    const std::vector<Batch>& pool,
                    std::uint64_t& next_message) {
  Generator generator(stack, pool, next_message);
  if (s.sim) return generator.blocking_loop(1e9, s.warmup);
  return generator.closed_loop(kOutstanding, 1e9, s.warmup);
}

/// The timed phases on `stack`: open loop then closed loop (TCP), or the
/// single blocking caller (sim). `latency` receives the samples that
/// batch_p50/p99 are taken from.
struct Measured {
  PhaseResult open, closed;
  const std::vector<double>& latency() const {
    return open.latency_ms.empty() ? closed.latency_ms : open.latency_ms;
  }
};

Measured measure(Stack& stack, const Settings& s,
                 const std::vector<Batch>& pool, double seconds,
                 std::uint64_t& next_message) {
  Generator generator(stack, pool, next_message);
  Measured m;
  if (s.sim) {
    m.closed = generator.blocking_loop(seconds, SIZE_MAX);
    return m;
  }
  double closed_seconds = seconds;
  if (s.rate > 0) {
    m.open = generator.open_loop(s.rate, seconds * s.open_share);
    closed_seconds = seconds * (1 - s.open_share);
  }
  if (closed_seconds > 0) {
    m.closed = generator.closed_loop(kOutstanding, closed_seconds, SIZE_MAX);
  }
  return m;
}

// --- process-level measurements --------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// VmHWM from /proc/self/status, in MB (0 when unavailable).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// CPUs this process may run on (run.py pins it to one).
int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_metadata(const Settings& s) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"meta\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"cpus_allowed\":%d,\"cpu\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"zlib\":%s,\"link\":\"%s\",\"calls\":%zu,"
      "\"payload_bytes\":%zu,\"rate\":%g,\"outstanding\":%zu,\"pool\":%zu,"
      "\"backends\":%zu,\"reactor_threads\":%zu,\"protocol_threads\":%zu,"
      "\"application_threads\":%zu,\"pack_ns_per_byte\":%g,"
      "\"pack_us_per_call\":%g,\"keep_alive\":%s,"
      "\"codec\":\"identity\"}}\n",
      json_escape(s.workload).c_str(),
      static_cast<unsigned long long>(s.seed), s.seconds, s.trace ? 1 : 0,
      std::thread::hardware_concurrency(), allowed_cpus(),
      json_escape(cpu_model()).c_str(),
      json_escape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_ZLIB ? "true" : "false",
      s.sim ? "simlink-ethernet-100mbit" : "loopback-tcp", s.calls,
      s.payload, s.rate, s.sim ? size_t{1} : kOutstanding, s.pool,
      s.backends, kReactorThreads, s.protocol_threads, s.application_threads,
      s.sim ? kPaperPackNsPerByte : 0.0, s.sim ? kPaperPackUsPerCall : 0.0,
      s.sim ? "false" : "true");
}

/// Ordered (name, value, unit) triples printed as the result's metrics.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void add(std::string name, double value, std::string unit) {
    items.emplace_back(std::move(name), value, std::move(unit));
  }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value, unit] : metrics.items) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += first ? "" : ",";
    out += "\"" + name + "\":{\"value\":" + number + ",\"unit\":\"" + unit +
           "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

std::vector<Batch> make_pool(const Settings& s) {
  std::vector<Batch> pool;
  pool.reserve(s.pool);
  for (size_t i = 0; i < s.pool; ++i) {
    pool.push_back(bench::make_echo_calls_text(
        s.calls, s.payload, s.seed * 1000003ULL + i));
  }
  return pool;
}

// --- the two run kinds -----------------------------------------------------

/// The run is split into kRounds rounds, each on a freshly set-up stack,
/// so one stack's thread placement cannot decide the result; latency
/// samples and closed-loop windows are pooled across rounds.
int run_end_to_end(const Settings& s, const std::vector<Batch>& pool) {
  std::vector<double> setup_s;
  std::uint64_t warm_failed = 0;
  std::uint64_t next_message = 0;
  double cpu_used = 0;
  Measured m;
  for (size_t r = 0; r < kRounds; ++r) {
    const auto start = SteadyClock::now();
    Stack stack(s, nullptr);
    warm_failed += warm_up(stack, s, pool, next_message).calls_failed;
    setup_s.push_back(us_between(start, SteadyClock::now()) / 1e6);

    const double cpu_before = cpu_seconds();
    Measured round = measure(stack, s, pool,
                             s.seconds / static_cast<double>(kRounds),
                             next_message);
    cpu_used += cpu_seconds() - cpu_before;
    m.open.merge(round.open);
    m.closed.merge(round.closed);
  }

  PhaseResult all = m.open;
  all.merge(m.closed);
  std::vector<double> latency = m.latency();
  const size_t samples = latency.size();
  const double p50 = perfbench::exact_quantile(latency, 0.50);
  const double p99 = perfbench::exact_quantile(latency, 0.99);
  const std::uint64_t ok_calls = all.calls_attempted - all.calls_failed;
  const double calls_per_s =
      ratio(static_cast<double>(m.closed.calls_ok_in_window),
            m.closed.window_s);
  std::vector<double> late = m.open.late_us;
  const double late_p99 = perfbench::exact_quantile(late, 0.99);

  std::printf(
      "batch latency: p50 %.4f ms, p99 %.4f ms over n=%zu samples "
      "(%s); closed loop %.1f calls/s over %.2f s; generator late p99 "
      "%.1f us (n=%zu); errors %llu of %llu calls\n",
      p50, p99, samples,
      m.open.latency_ms.empty() ? "closed loop, from submit"
                                : "open loop, from schedule",
      calls_per_s, m.closed.window_s, late_p99, late.size(),
      static_cast<unsigned long long>(all.calls_failed),
      static_cast<unsigned long long>(all.calls_attempted));

  Metrics metrics;
  metrics.add("batch_p50_ms", p50, "ms");
  metrics.add("calls_per_s", calls_per_s, "1/s");
  metrics.add("cpu_us_per_call",
              ratio(cpu_used * 1e6, static_cast<double>(ok_calls)), "us");
  metrics.add("setup_s", perfbench::exact_quantile(setup_s, 0.5), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  const bool correct = all.calls_failed == 0 && warm_failed == 0 &&
                       samples > 0 && all.calls_attempted > 0;
  print_result(correct, all.calls_attempted, all.calls_failed, metrics);
  return 0;
}

int run_traced(const Settings& s, const std::vector<Batch>& pool) {
  // Untraced baseline: the same latency phase on a bare stack.
  std::uint64_t next_message = 0;
  PhaseResult baseline;
  double baseline_p50 = 0;
  double baseline_p99 = 0;
  {
    Stack stack(s, nullptr);
    baseline.merge(warm_up(stack, s, pool, next_message));
    Generator generator(stack, pool, next_message);
    PhaseResult phase =
        s.sim ? generator.blocking_loop(s.seconds / 2, SIZE_MAX)
              : (s.rate > 0 ? generator.open_loop(s.rate, s.seconds / 2)
                            : generator.closed_loop(kOutstanding,
                                                    s.seconds / 2, SIZE_MAX));
    std::vector<double> latency = phase.latency_ms;
    baseline_p50 = perfbench::exact_quantile(latency, 0.5);
    baseline_p99 = perfbench::exact_quantile(latency, 0.99);
    baseline.merge(phase);
  }

  // Traced stack: messages are numbered from zero again so trace ids index
  // the recorder directly.
  const double traced_seconds = s.seconds / 2;
  const double max_rate = s.sim ? 1000.0 : std::max(s.rate, 30000.0);
  auto recorder = std::make_unique<TraceRecorder>(
      static_cast<size_t>(traced_seconds * max_rate) + s.warmup + 1024);
  Stack stack(s, recorder.get());
  next_message = 0;
  baseline.merge(warm_up(stack, s, pool, next_message));

  const LayerSnapshot before = stack.snapshot();
  const std::uint64_t first_message = next_message;
  Measured m = measure(stack, s, pool, traced_seconds, next_message);
  const LayerSnapshot after = stack.snapshot();
  const core::SpiClient::Stats client_stats = stack.client().stats();

  PhaseResult traced = m.open;
  traced.merge(m.closed);
  std::vector<double> traced_latency = m.latency();
  const double traced_p50 = perfbench::exact_quantile(traced_latency, 0.5);
  const double batches = static_cast<double>(traced.messages);
  const double calls = static_cast<double>(traced.calls_attempted);

  // Per-request breakdown over the timed messages only.
  const TraceRecorder::Means means = recorder->means(first_message);

  const HistTotals parse = after.parse - before.parse;
  const HistTotals execute = after.execute - before.execute;
  const HistTotals assemble = after.assemble - before.assemble;
  const HistTotals fanout = after.fanout - before.fanout;
  const HistTotals read = after.read - before.read;
  const HistTotals app_wait = after.app_wait - before.app_wait;
  const IoSnapshot io = after.io - before.io;
  const double server_bytes = static_cast<double>(
      after.server_received_bytes - before.server_received_bytes);
  const double subpacks = static_cast<double>(
      after.proxy.scattered_subpacks - before.proxy.scattered_subpacks);
  const double proxy_requests =
      static_cast<double>(after.proxy.requests - before.proxy.requests);

  const perfbench::Breakdown breakdown = perfbench::Breakdown::from_parts(
      means.exchange_us, means.pre_execute_us, execute.mean(),
      means.post_execute_us);
  const double backend_stage_us =
      ratio(parse.sum_us + execute.sum_us + assemble.sum_us, subpacks);
  const double fanout_per_batch = ratio(fanout.sum_us, batches);

  PhaseResult all = baseline;
  all.merge(traced);
  bool correct = all.calls_failed == 0 && breakdown.adds_up() &&
                 means.messages > 0;
  if (std::abs(fanout_per_batch - static_cast<double>(s.calls)) > 1e-9) {
    std::fprintf(stderr, "fan-out %.3f calls per message, expected %zu\n",
                 fanout_per_batch, s.calls);
    correct = false;
  }
  if (!breakdown.adds_up()) {
    std::fprintf(stderr, "per-request breakdown does not add up\n");
  }

  std::vector<double> late = baseline.late_us;
  Metrics metrics;
  metrics.add("core.server_parse_us", parse.mean(), "us");
  metrics.add("core.server_parse_mb_per_s",
              ratio(server_bytes, parse.sum_us), "MB/s");
  metrics.add("core.server_assemble_us", assemble.mean(), "us");
  metrics.add("core.server_execute_us", execute.mean(), "us");
  metrics.add("core.fanout_width", fanout_per_batch, "count");
  metrics.add("concurrency.app_wait_us", app_wait.mean(), "us");
  metrics.add("concurrency.app_tasks_per_batch",
              ratio(after.app_tasks - before.app_tasks, batches), "count");
  metrics.add("http.server_read_us", read.mean(), "us");
  metrics.add("http.reactor_iterations_per_batch",
              ratio(after.reactor_iterations - before.reactor_iterations,
                    batches),
              "count");
  metrics.add("http.sendv_segments_per_batch",
              ratio(after.sendv_segments - before.sendv_segments, batches),
              "count");
  metrics.add("http.client_reuse_ratio",
              ratio(static_cast<double>(after.http.reused - before.http.reused),
                    static_cast<double>(after.http.requests -
                                        before.http.requests)),
              "ratio");
  metrics.add("http.client_pipelined_per_batch",
              ratio(static_cast<double>(after.http.pipelined -
                                        before.http.pipelined),
                    batches),
              "count");
  metrics.add("http.client_timeouts", static_cast<double>(after.http.timeouts),
              "count");
  metrics.add("net.bytes_per_call",
              ratio(static_cast<double>(after.wire.bytes_sent -
                                        before.wire.bytes_sent),
                    calls),
              "B");
  metrics.add("net.connects_per_batch",
              ratio(static_cast<double>(after.wire.connections_opened -
                                        before.wire.connections_opened),
                    batches),
              "count");
  metrics.add("net.send_calls_per_batch",
              ratio(static_cast<double>(io.send_calls), batches), "count");
  metrics.add("net.recv_calls_per_batch",
              ratio(static_cast<double>(io.recv_calls), batches), "count");
  metrics.add("net.would_block_ratio",
              ratio(static_cast<double>(io.would_block),
                    static_cast<double>(io.try_calls)),
              "ratio");
  metrics.add("net.io_us_per_batch",
              ratio(static_cast<double>(io.io_ns) / 1e3, batches), "us");
  metrics.add("proxy.subpacks_per_request", ratio(subpacks, proxy_requests),
              "count");
  metrics.add("proxy.rebalanced_calls_per_request",
              ratio(static_cast<double>(after.proxy.rebalanced_calls -
                                        before.proxy.rebalanced_calls),
                    proxy_requests),
              "count");
  metrics.add("proxy.reroutes",
              static_cast<double>(after.proxy.reroutes - before.proxy.reroutes),
              "count");
  metrics.add("proxy.backend_stage_us", backend_stage_us, "us");
  metrics.add("proxy.added_us",
              s.backends > 0 ? means.exchange_us - backend_stage_us : 0.0,
              "us");
  metrics.add("core.client_exchange_us", breakdown.exchange_us, "us");
  metrics.add("core.pre_execute_us", breakdown.pre_execute_us, "us");
  metrics.add("core.post_execute_us", breakdown.post_execute_us, "us");
  metrics.add("core.unaccounted_us", breakdown.unaccounted_us, "us");
  metrics.add("resilience.retries", static_cast<double>(client_stats.retries),
              "count");
  metrics.add("resilience.hedges_sent",
              static_cast<double>(client_stats.hedges_sent), "count");
  metrics.add("resilience.breaker_fast_fails",
              static_cast<double>(client_stats.breaker_fast_fails), "count");
  metrics.add("loadgen.late_p99_us", perfbench::exact_quantile(late, 0.99),
              "us");
  metrics.add("trace.overhead_pct",
              baseline_p50 > 0 ? (traced_p50 / baseline_p50 - 1) * 100 : 0.0,
              "%");
  metrics.add("batch_p99_ms", baseline_p99, "ms");
  metrics.add("error_ratio",
              ratio(static_cast<double>(all.calls_failed),
                    static_cast<double>(all.calls_attempted)),
              "ratio");

  if (!s.spans_out.empty()) {
    const size_t spans = recorder->write_spans(s.spans_out, 5000);
    std::printf("wrote %zu spans to %s\n", spans, s.spans_out.c_str());
  }
  std::printf(
      "traced: %zu messages stamped; exchange %.1f us = pre %.1f + execute "
      "%.1f + post %.1f + unaccounted %.1f; p50 untraced %.4f ms (n=%zu), "
      "traced %.4f ms (n=%zu); untraced p99 %.4f ms\n",
      means.messages, breakdown.exchange_us, breakdown.pre_execute_us,
      breakdown.server_execute_us, breakdown.post_execute_us,
      breakdown.unaccounted_us, baseline_p50, baseline.latency_ms.size(),
      traced_p50, traced_latency.size(), baseline_p99);
  print_result(correct, all.calls_attempted, all.calls_failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Settings settings = parse_args(argc, argv);
  print_metadata(settings);
  const std::vector<Batch> pool = make_pool(settings);
  return settings.trace ? run_traced(settings, pool)
                        : run_end_to_end(settings, pool);
}

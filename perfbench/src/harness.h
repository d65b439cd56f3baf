// Shared pieces of the end-to-end benchmark (README.md): the workload
// interface, seeded input generation owned by the benchmark, percentile
// and fingerprint helpers, host-time spans, and the forwarding transport
// and block store the traced run wraps around the nodes it builds.
//
// Everything here talks to the library through its public headers only,
// so a change inside src/ never alters what the benchmark feeds it.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blockstore/blockstore.h"
#include "scenario/scenario.h"
#include "transport/transport.h"
#include "world/world.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Inputs. A splitmix64 stream owned by the benchmark: the same --seed gives
// the same catalog, arrivals and object bytes whatever the library's own
// generators do.
// ---------------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x);

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(mix64(seed)) {}

  std::uint64_t next();
  // Uniform in [0, 1).
  double uniform();
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

// Counter-based object bytes: byte i of object `key` depends only on
// (key, i), so any slice can be regenerated without the rest.
void fill_content(std::uint64_t key, std::uint64_t offset,
                  std::span<std::uint8_t> out);
std::vector<std::uint8_t> make_content(std::uint64_t key, std::size_t bytes);

// ---------------------------------------------------------------------------
// Summaries.
// ---------------------------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample. Failed
// operations enter as kInf, so they count as missing any limit.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
// part / whole, 0 when nothing was attempted.
inline double ratio(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

// FNV-1a over the simulated outputs of one repetition.
class Fingerprint {
 public:
  void add(std::uint64_t value);
  // Simulated values are exact multiples of a microsecond or exact
  // ratios of counts, so their bit patterns repeat exactly.
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Resident memory now and at its peak, in MB (10^6 bytes).
double current_rss_mb();
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Results of one repetition.
// ---------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Output checks that did not hold (the run then reports nothing).
  std::vector<std::string> check_failures;
  // Per-layer and workload-specific metrics by their BENCHMARK.json name.
  std::map<std::string, double> metrics;
  // Simulated outputs only: identical for every repetition of a seed.
  Fingerprint fingerprint;
  // "name measured paper" lines for the fidelity table.
  struct Fidelity {
    std::string name;
    double measured;
    double paper;
    std::string unit;
  };
  std::vector<Fidelity> fidelity;

  void check(bool ok, const std::string& what) {
    if (!ok && check_failures.size() < 16) check_failures.push_back(what);
  }
  // Records a simulated metric and folds it into the fingerprint.
  void simulated(const std::string& name, double value) {
    metrics[name] = value;
    fingerprint.add(value);
  }
};

// ---------------------------------------------------------------------------
// Host-time spans for the traced run. Kept in memory, written as JSONL when
// the run ends. Spans nest (the benchmark is single-threaded), so a span's
// parent is the span open when it began. A span belongs to the phase
// (setup / run / teardown) that was current when it began.
// ---------------------------------------------------------------------------

enum class Phase : std::uint8_t { kSetup, kRun, kTeardown };

class Tracer {
 public:
  using SpanId = std::uint32_t;
  static constexpr SpanId kNoSpan = 0;

  void set_phase(Phase phase) { phase_ = phase; }
  void set_repetition(std::uint32_t rep) { repetition_ = rep; }

  SpanId begin(const std::string& name);
  void end(SpanId id);

  // Aggregates over every traced repetition, per span name and phase.
  std::uint64_t count(const std::string& name, Phase phase) const;
  double total_s(const std::string& name, Phase phase) const;
  double mean_us(const std::string& name, Phase phase) const;

  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    SpanId parent;
    std::uint32_t repetition;
    Phase phase;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::uint32_t intern(const std::string& name);

  Clock::time_point origin_ = Clock::now();
  Phase phase_ = Phase::kSetup;
  std::uint32_t repetition_ = 0;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<SpanId> open_;  // innermost last
};

// RAII span; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  Tracer::SpanId id_;
};

// Message-kind families of the per-kind dispatch spans ("find_node",
// "want_block", ...); a request and its response share a family.
const std::vector<std::string>& dispatch_families();

// Forwarding transport: pure delegation to `inner`, plus a host-time span
// "transport.<family>" around every inbound handler call and response
// callback. Schedules nothing and draws no randomness, so the simulation
// it carries is identical to the unwrapped one.
class TracingTransport final : public ipfs::transport::Transport {
 public:
  TracingTransport(std::unique_ptr<ipfs::transport::Transport> inner,
                   Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  ipfs::transport::PeerAddr local() const override { return inner_->local(); }
  bool online() const override { return inner_->online(); }
  ipfs::sim::Time now() const override { return inner_->now(); }
  ipfs::transport::Timer schedule_after(ipfs::sim::Duration delay,
                                        std::function<void()> fn) override {
    return inner_->schedule_after(delay, std::move(fn));
  }
  ipfs::transport::Timer schedule_daemon_after(
      ipfs::sim::Duration delay, std::function<void()> fn) override {
    return inner_->schedule_daemon_after(delay, std::move(fn));
  }
  ipfs::transport::Timer schedule_daemon_at(ipfs::sim::Time when,
                                            std::function<void()> fn) override {
    return inner_->schedule_daemon_at(when, std::move(fn));
  }
  void connect(ipfs::transport::PeerAddr peer,
               ipfs::sim::DialCallback cb) override {
    inner_->connect(peer, std::move(cb));
  }
  void disconnect(ipfs::transport::PeerAddr peer) override {
    inner_->disconnect(peer);
  }
  bool connected(ipfs::transport::PeerAddr peer) const override {
    return inner_->connected(peer);
  }
  std::vector<ipfs::transport::PeerAddr> connections() const override {
    return inner_->connections();
  }
  bool peer_dialable(ipfs::transport::PeerAddr peer) const override {
    return inner_->peer_dialable(peer);
  }
  int handshake_round_trips(ipfs::transport::PeerAddr peer) const override {
    return inner_->handshake_round_trips(peer);
  }
  void send(ipfs::transport::PeerAddr to, ipfs::sim::MessagePtr message,
            std::size_t bytes) override {
    inner_->send(to, std::move(message), bytes);
  }
  void request(ipfs::transport::PeerAddr to, ipfs::sim::MessagePtr request,
               std::size_t request_bytes, ipfs::sim::Duration timeout,
               ipfs::sim::ResponseCallback cb) override;
  void set_request_handler(ipfs::sim::RequestHandler handler) override;
  void set_message_handler(ipfs::sim::MessageHandler handler) override;
  ipfs::metrics::Registry& metrics() override { return inner_->metrics(); }

 private:
  std::unique_ptr<ipfs::transport::Transport> inner_;
  Tracer& tracer_;
};

// Forwarding block store: every call goes to `inner`; puts, gets, flushes
// and has() probes get a host-time span "blockstore.<op>".
class TracingStore final : public ipfs::blockstore::BlockStore {
 public:
  TracingStore(ipfs::blockstore::BlockStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  ipfs::blockstore::PutStatus put(ipfs::blockstore::Block block) override;
  ipfs::blockstore::PutStatus put(const ipfs::blockstore::Cid& cid,
                                  ipfs::blockstore::BlockData data) override;
  ipfs::blockstore::BlockData get(
      const ipfs::blockstore::Cid& cid) const override;
  bool has(const ipfs::blockstore::Cid& cid) const override;
  bool remove(const ipfs::blockstore::Cid& cid) override {
    return inner_.remove(cid);
  }
  void pin(const ipfs::blockstore::Cid& cid) override { inner_.pin(cid); }
  void unpin(const ipfs::blockstore::Cid& cid) override { inner_.unpin(cid); }
  bool pinned(const ipfs::blockstore::Cid& cid) const override {
    return inner_.pinned(cid);
  }
  std::uint64_t collect_garbage() override { return inner_.collect_garbage(); }
  std::size_t block_count() const override { return inner_.block_count(); }
  std::uint64_t total_bytes() const override { return inner_.total_bytes(); }
  void flush() override;
  void handle_crash() override { inner_.handle_crash(); }

 private:
  ipfs::blockstore::BlockStore& inner_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Scratch space inside the checkout (bulk_fetch's store files).
  std::string work_dir;
};

// One repetition: setup(), run() and teardown() are timed separately by
// the repetition loop in main.cpp. `tracer` is null in untraced repetitions.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer* tracer) = 0;
  virtual Outcome run(Tracer* tracer) = 0;
  virtual void teardown(Tracer* tracer) = 0;
  // Untimed, after teardown: deletes files the repetition left on disk.
  // Deleting them is the file system's work, not the library's.
  virtual void remove_files() {}
};

std::unique_ptr<Workload> make_census(const Options& options);
std::unique_ptr<Workload> make_publish_retrieve(const Options& options);
std::unique_ptr<Workload> make_gateway_day(const Options& options);
std::unique_ptr<Workload> make_bulk_fetch(const Options& options);

// Builds a world from `builder`, timing the World constructor as span
// "world.build". A traced run also times the population generator on its
// own ("world.population"), on the same config and seed; that extra
// generation happens only when tracing.
std::unique_ptr<ipfs::world::World> build_world(
    const ipfs::scenario::ScenarioBuilder& builder, Tracer* tracer);

// Counter deltas over the measured phase, read by name through
// Registry::counter_value: the network counters below plus `extra`.
class CounterBaseline {
 public:
  CounterBaseline(const ipfs::metrics::Registry& registry,
                  const std::vector<std::string>& extra = {});
  std::uint64_t delta(const std::string& name) const;

 private:
  const ipfs::metrics::Registry& registry_;
  std::map<std::string, std::uint64_t> start_;
};

// net.*, transport.tx.* and dht.lookup_* per-layer counters over the
// measured phase, all folded into the fingerprint.
void record_network_layer(Outcome& outcome, const CounterBaseline& counters);

// Times a call into the event core and accumulates events and host
// seconds (sim.events, sim.events_per_s).
struct EventMeter {
  std::uint64_t events = 0;
  double host_s = 0.0;

  template <typename Fn>
  void drive(Fn&& fn) {
    const auto start = Clock::now();
    events += fn();
    host_s += seconds_since(start);
  }
};

}  // namespace perfbench

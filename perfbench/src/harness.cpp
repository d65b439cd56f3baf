#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

using ipfs::sim::MessageKind;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t InputRng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double InputRng::exponential(double mean) {
  return -mean * std::log1p(-uniform());
}

void fill_content(std::uint64_t key, std::uint64_t offset,
                  std::span<std::uint8_t> out) {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint64_t pos = offset + i;
    const std::uint64_t word = mix64(key ^ mix64(pos / 8));
    for (std::uint64_t b = pos % 8; b < 8 && i < out.size(); ++b, ++i)
      out[i] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

std::vector<std::uint8_t> make_content(std::uint64_t key, std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  fill_content(key, 0, out);
  return out;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return samples[static_cast<std::size_t>(rank) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Fingerprint::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  add(bits);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// --------------------------------------------------------------- Tracer

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

Tracer::SpanId Tracer::begin(const std::string& name) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const SpanId parent = open_.empty() ? kNoSpan : open_.back();
  spans_.push_back(Span{intern(name), parent, repetition_, phase_, now, -1});
  open_.push_back(static_cast<SpanId>(spans_.size()));  // 1-based
  return open_.back();
}

void Tracer::end(SpanId id) {
  open_.pop_back();
  spans_[id - 1].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - origin_)
                              .count();
}

std::uint64_t Tracer::count(const std::string& name, Phase phase) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return 0;
  std::uint64_t n = 0;
  for (const Span& span : spans_)
    if (span.name == it->second && span.phase == phase && span.end_ns >= 0) ++n;
  return n;
}

double Tracer::total_s(const std::string& name, Phase phase) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return 0.0;
  std::int64_t ns = 0;
  for (const Span& span : spans_)
    if (span.name == it->second && span.phase == phase && span.end_ns >= 0)
      ns += span.end_ns - span.start_ns;
  return static_cast<double>(ns) / 1e9;
}

double Tracer::mean_us(const std::string& name, Phase phase) const {
  const std::uint64_t n = count(name, phase);
  return n == 0 ? 0.0 : total_s(name, phase) * 1e6 / static_cast<double>(n);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  static const char* kPhases[] = {"setup", "run", "teardown"};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"rep\":%u,"
                 "\"phase\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i + 1, span.parent, names_[span.name].c_str(),
                 span.repetition, kPhases[static_cast<int>(span.phase)],
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

// ------------------------------------------------- per-kind dispatch spans

namespace {

// Family name of a message kind; a request and its response share one.
const char* kind_family(const ipfs::sim::Message* message) {
  if (message == nullptr) return "other";
  switch (message->kind()) {
    case MessageKind::kFindNodeRequest:
    case MessageKind::kFindNodeResponse:
      return "find_node";
    case MessageKind::kGetProvidersRequest:
    case MessageKind::kGetProvidersResponse:
      return "get_providers";
    case MessageKind::kWantHaveRequest:
    case MessageKind::kHaveResponse:
      return "want_have";
    case MessageKind::kWantBlockRequest:
    case MessageKind::kBlockResponse:
      return "want_block";
    default:
      return "other";
  }
}

}  // namespace

const std::vector<std::string>& dispatch_families() {
  static const std::vector<std::string> kFamilies = {
      "find_node", "get_providers", "want_have", "want_block"};
  return kFamilies;
}

namespace {

// "transport.<family>", built once per family.
const std::string& dispatch_span(const ipfs::sim::Message* message) {
  static const std::map<std::string, std::string> kSpans = [] {
    std::map<std::string, std::string> spans;
    for (const std::string& family : dispatch_families())
      spans.emplace(family, "transport." + family);
    spans.emplace("other", "transport.other");
    return spans;
  }();
  return kSpans.at(kind_family(message));
}

}  // namespace

void TracingTransport::request(ipfs::transport::PeerAddr to,
                               ipfs::sim::MessagePtr request,
                               std::size_t request_bytes,
                               ipfs::sim::Duration timeout,
                               ipfs::sim::ResponseCallback cb) {
  const std::string& span = dispatch_span(request.get());
  inner_->request(
      to, std::move(request), request_bytes, timeout,
      [this, &span, cb = std::move(cb)](
          ipfs::sim::RpcStatus status, ipfs::sim::MessagePtr response) {
        Scope scope(&tracer_, span);
        cb(status, std::move(response));
      });
}

void TracingTransport::set_request_handler(ipfs::sim::RequestHandler handler) {
  inner_->set_request_handler(
      [this, handler = std::move(handler)](
          ipfs::sim::NodeId from, const ipfs::sim::MessagePtr& message,
          std::function<void(ipfs::sim::MessagePtr, std::size_t)> respond) {
        Scope scope(&tracer_, dispatch_span(message.get()));
        handler(from, message, std::move(respond));
      });
}

void TracingTransport::set_message_handler(ipfs::sim::MessageHandler handler) {
  inner_->set_message_handler(
      [this, handler = std::move(handler)](
          ipfs::sim::NodeId from, const ipfs::sim::MessagePtr& message) {
        Scope scope(&tracer_, dispatch_span(message.get()));
        handler(from, message);
      });
}

// ------------------------------------------------------ forwarding store

ipfs::blockstore::PutStatus TracingStore::put(ipfs::blockstore::Block block) {
  Scope scope(&tracer_, "blockstore.put");
  return inner_.put(std::move(block));
}

ipfs::blockstore::PutStatus TracingStore::put(
    const ipfs::blockstore::Cid& cid, ipfs::blockstore::BlockData data) {
  Scope scope(&tracer_, "blockstore.put");
  return inner_.put(cid, std::move(data));
}

ipfs::blockstore::BlockData TracingStore::get(
    const ipfs::blockstore::Cid& cid) const {
  Scope scope(&tracer_, "blockstore.get");
  return inner_.get(cid);
}

bool TracingStore::has(const ipfs::blockstore::Cid& cid) const {
  Scope scope(&tracer_, "blockstore.has");
  return inner_.has(cid);
}

void TracingStore::flush() {
  Scope scope(&tracer_, "blockstore.flush");
  inner_.flush();
}

// ---------------------------------------------------------------- worlds

std::unique_ptr<ipfs::world::World> build_world(
    const ipfs::scenario::ScenarioBuilder& builder, Tracer* tracer) {
  if (tracer != nullptr) {
    const ipfs::world::WorldConfig config = builder.world_config();
    Scope scope(tracer, "world.population");
    const auto population = ipfs::world::generate_population(
        config.population, ipfs::sim::Rng(config.seed).fork("population"));
    (void)population;
  }
  Scope scope(tracer, "world.build");
  return builder.build_world();
}

namespace {

const std::vector<std::string>& network_counters() {
  static const std::vector<std::string> kNames = {
      "net.dials_attempted", "net.dials_failed",     "net.rpcs_sent",
      "transport.tx.messages", "transport.tx.bytes", "dht.lookup.rpcs_sent",
      "dht.lookup.dials_failed"};
  return kNames;
}

}  // namespace

CounterBaseline::CounterBaseline(const ipfs::metrics::Registry& registry,
                                 const std::vector<std::string>& extra)
    : registry_(registry) {
  for (const std::string& name : network_counters())
    start_[name] = registry.counter_value(name);
  for (const std::string& name : extra)
    start_[name] = registry.counter_value(name);
}

std::uint64_t CounterBaseline::delta(const std::string& name) const {
  const auto it = start_.find(name);
  return registry_.counter_value(name) - (it == start_.end() ? 0 : it->second);
}

void record_network_layer(Outcome& outcome, const CounterBaseline& counters) {
  const std::uint64_t dials = counters.delta("net.dials_attempted");
  const std::uint64_t lookup_rpcs = counters.delta("dht.lookup.rpcs_sent");
  outcome.simulated("net.dials_attempted", static_cast<double>(dials));
  outcome.simulated(
      "net.dial_fail_ratio",
      ratio(static_cast<double>(counters.delta("net.dials_failed")),
            static_cast<double>(dials)));
  outcome.simulated("net.rpcs_sent",
                    static_cast<double>(counters.delta("net.rpcs_sent")));
  outcome.simulated(
      "transport.tx.messages",
      static_cast<double>(counters.delta("transport.tx.messages")));
  outcome.simulated("transport.tx.bytes",
                    static_cast<double>(counters.delta("transport.tx.bytes")));
  outcome.simulated("dht.lookup_rpcs", static_cast<double>(lookup_rpcs));
  outcome.simulated(
      "dht.lookup_dial_fail_ratio",
      ratio(static_cast<double>(counters.delta("dht.lookup.dials_failed")),
            static_cast<double>(lookup_rpcs)));
}

}  // namespace perfbench

// publish_retrieve: the paper's Section 4.3 experiment as a closed loop.
// Six IpfsNodes in the paper's AWS regions join a churning world; each
// cycle one of them publishes a fresh 0.5 MB object, the other five
// retrieve it, then the six disconnect from each other and forget each
// other's addresses so the next cycle goes through the DHT again.
//
// The cycle is generated here, not by the library's PerfExperiment, so
// no library change can alter the inputs.
#include "harness.h"
#include "node/ipfs_node.h"
#include "transport/sim_transport.h"
#include "world/geography.h"

namespace perfbench {
namespace {

using namespace ipfs;

// Paper Figure 9a/9d (Section 4.3).
constexpr double kPaperPublishP50 = 33.8;
constexpr double kPaperPublishP90 = 112.3;
constexpr double kPaperRetrieveP50 = 2.90;
constexpr double kPaperRetrieveP90 = 4.34;

constexpr std::size_t kWorldPeers = 10'000;
// Enough cycles that p90 has more than ten retrievals beyond it.
constexpr std::size_t kCycles = 100;
constexpr std::size_t kObjectBytes = 512 * 1024;
constexpr sim::Duration kGap = sim::seconds(20);

// The six measurement regions of Table 1.
constexpr int kRegions[] = {world::kAfSouth,  world::kApSoutheast,
                            world::kEuCentral, world::kMeSouth,
                            world::kSaEast,   world::kUsWest};
constexpr std::size_t kNodes = std::size(kRegions);

class PublishRetrieve final : public Workload {
 public:
  explicit PublishRetrieve(const Options& options) : options_(options) {}

  void setup(Tracer* tracer) override {
    scenario::ScenarioBuilder builder;
    builder.peers(kWorldPeers).seed(options_.seed);
    world_ = build_world(builder, tracer);

    for (std::size_t i = 0; i < kNodes; ++i) {
      // A t2.small-like AWS instance: dialable, TCP, modest bandwidth.
      node::IpfsNodeConfig config;
      config.net.region = kRegions[i];
      config.net.dialable = true;
      config.net.transport = sim::Transport::kTcp;
      config.net.upload_bytes_per_sec = 30.0 * 1024 * 1024;
      config.net.download_bytes_per_sec = 60.0 * 1024 * 1024;
      config.conn_manager = {.low_water = 8, .high_water = 24};
      config.identity_seed = 0xAE50000 + i;
      config.provide_after_fetch = false;  // keep cycles independent

      std::unique_ptr<transport::Transport> transport =
          std::make_unique<transport::SimTransport>(world_->network(),
                                                    config.net);
      if (tracer != nullptr)
        transport = std::make_unique<TracingTransport>(std::move(transport),
                                                       *tracer);
      transports_.push_back(std::move(transport));
      nodes_.push_back(
          std::make_unique<node::IpfsNode>(*transports_.back(), config));
    }
    for (auto& node : nodes_)
      node->bootstrap(world_->bootstrap_refs(), [](bool) {});
    world_->run();
  }

  Outcome run(Tracer* tracer) override {
    Outcome outcome;
    const CounterBaseline counters(world_->network().metrics());
    EventMeter meter;
    std::vector<double> publish, walk, rpc_batch;
    std::vector<double> retrieve, provider_walk, dial, discovery, fetch;
    std::size_t peer_walks = 0, retrievals = 0;
    double add_host_s = 0.0;
    std::uint64_t added_bytes = 0;

    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      const std::size_t publisher = cycle % kNodes;
      // Shared with the callbacks, which may outlive this iteration.
      const auto content = std::make_shared<const std::vector<std::uint8_t>>(
          make_content(mix64(options_.seed) ^ mix64(0x9e0000 + cycle),
                       kObjectBytes));

      merkledag::ImportResult imported;
      {
        Scope scope(tracer, "node.add");
        const auto start = Clock::now();
        imported = nodes_[publisher]->add(*content);
        add_host_s += seconds_since(start);
        added_bytes += content->size();
      }
      const multiformats::Cid cid = imported.root;

      nodes_[publisher]->provide(cid, [&, publisher, cycle, cid, content](
                                          node::PublishTrace trace) {
        ++outcome.attempted;
        publish.push_back(trace.ok ? sim::to_seconds(trace.total) : kInf);
        if (!trace.ok) {
          ++outcome.failed;
          return;
        }
        walk.push_back(sim::to_seconds(trace.walk));
        rpc_batch.push_back(sim::to_seconds(trace.rpc_batch));
        for (std::size_t i = 0; i < kNodes; ++i) {
          if (i == publisher) continue;
          nodes_[i]->retrieve(cid, [&, i, cycle, cid,
                                     content](node::RetrievalTrace r) {
            ++outcome.attempted;
            ++retrievals;
            if (!r.ok) {
              ++outcome.failed;
              retrieve.push_back(kInf);
              return;
            }
            // Output check: the retrieved bytes are the published object.
            const auto bytes = merkledag::cat(nodes_[i]->store(), cid);
            outcome.check(bytes && *bytes == *content,
                          "publish_retrieve: cycle " + std::to_string(cycle) +
                              " node " + std::to_string(i) +
                              " retrieved bytes differ from the object");
            retrieve.push_back(sim::to_seconds(r.total));
            provider_walk.push_back(sim::to_seconds(r.provider_walk));
            dial.push_back(sim::to_seconds(r.dial + r.negotiate));
            discovery.push_back(sim::to_seconds(r.bitswap_discovery));
            fetch.push_back(sim::to_seconds(r.fetch));
            if (r.used_peer_walk) ++peer_walks;
          });
        }
      });
      meter.drive([&] { return world_->run(); });

      // The cycle's nodes part ways (Section 4.3), drop the object so
      // memory does not grow with the cycle count, and idle for the gap.
      for (auto& a : nodes_) {
        a->forget_peer_addresses();
        for (auto& b : nodes_)
          if (a != b) a->disconnect_from(b->node());
      }
      nodes_[publisher]->store().unpin(cid);
      for (auto& node : nodes_) node->store().collect_garbage();
      meter.drive([&] { return world_->run_until(world_->now() + kGap); });
    }

    outcome.check(publish.size() == kCycles,
                  "publish_retrieve: a publish never completed");
    outcome.check(retrievals == walk.size() * (kNodes - 1),
                  "publish_retrieve: a retrieval never completed");
    outcome.simulated("sim.events", static_cast<double>(meter.events));
    outcome.simulated("failed_ratio",
                      static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted));
    outcome.simulated("publish_p50_s", percentile(publish, 50));
    outcome.simulated("publish_p90_s", percentile(publish, 90));
    outcome.simulated("retrieve_p50_s", percentile(retrieve, 50));
    outcome.simulated("retrieve_p90_s", percentile(retrieve, 90));
    outcome.simulated("dht.publish_walk_p50_s", percentile(walk, 50));
    outcome.simulated("dht.rpc_batch_p50_s", percentile(rpc_batch, 50));
    outcome.simulated("dht.provider_walk_p50_s", percentile(provider_walk, 50));
    outcome.simulated("dht.peer_walk_share",
                      fetch.empty() ? 0.0
                                    : static_cast<double>(peer_walks) /
                                          static_cast<double>(fetch.size()));
    outcome.simulated("net.dial_p50_s", percentile(dial, 50));
    outcome.simulated("bitswap.discovery_p50_s", percentile(discovery, 50));
    outcome.simulated("bitswap.fetch_p50_s", percentile(fetch, 50));
    record_network_layer(outcome, counters);
    outcome.metrics["sim.events_per_s"] =
        static_cast<double>(meter.events) / meter.host_s;
    outcome.metrics["add_MBps"] = static_cast<double>(added_bytes) / 1e6 /
                                  add_host_s;

    outcome.fidelity.push_back({"publish_p50_s",
                                outcome.metrics["publish_p50_s"],
                                kPaperPublishP50, "s"});
    outcome.fidelity.push_back({"publish_p90_s",
                                outcome.metrics["publish_p90_s"],
                                kPaperPublishP90, "s"});
    outcome.fidelity.push_back({"retrieve_p50_s",
                                outcome.metrics["retrieve_p50_s"],
                                kPaperRetrieveP50, "s"});
    outcome.fidelity.push_back({"retrieve_p90_s",
                                outcome.metrics["retrieve_p90_s"],
                                kPaperRetrieveP90, "s"});
    return outcome;
  }

  void teardown(Tracer* tracer) override {
    nodes_.clear();
    transports_.clear();
    Scope scope(tracer, "world.teardown");
    world_.reset();
  }

 private:
  Options options_;
  std::unique_ptr<world::World> world_;
  // Declared before nodes_: each node holds a reference to its transport.
  std::vector<std::unique_ptr<transport::Transport>> transports_;
  std::vector<std::unique_ptr<node::IpfsNode>> nodes_;
};

}  // namespace

std::unique_ptr<Workload> make_publish_retrieve(const Options& options) {
  return std::make_unique<PublishRetrieve>(options);
}

}  // namespace perfbench

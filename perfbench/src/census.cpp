// census: one full DHT crawl from eu-central over a churning world
// (paper Section 5). Stresses world building, the event core and
// FIND_NODE handling; moves no content, so it is the bypass workload for
// data-path changes.
#include <unordered_set>

#include "crawler/crawler.h"
#include "harness.h"
#include "world/geography.h"

namespace perfbench {
namespace {

using namespace ipfs;

// Paper Section 5 / Figure 4a: ~55 % of crawled peers are dialable.
constexpr double kPaperDialableShare = 0.55;

class Census final : public Workload {
 public:
  explicit Census(const Options& options) : options_(options) {}

  void setup(Tracer* tracer) override {
    scenario::ScenarioBuilder builder;
    builder.peers(kPeers)
        .seed(options_.seed)
        // The census routing budget above 20k peers: 64 pre-seeded
        // entries keep a large world in memory, and the crawl still
        // covers the whole keyspace.
        .max_routing_entries(64);
    world_ = build_world(builder, tracer);
  }

  Outcome run(Tracer* tracer) override {
    Outcome outcome;
    sim::Network& network = world_->network();
    const CounterBaseline counters(network.metrics());
    const sim::NodeId self = network.add_node(
        sim::NodeConfig()
            .with_region(world::kEuCentral)
            .with_bandwidth(100.0 * 1024 * 1024, 100.0 * 1024 * 1024));

    crawler::Crawler crawler(network, self, world_->bootstrap_refs());
    crawler::CrawlResult result;
    bool finished = false;
    EventMeter meter;
    {
      Scope scope(tracer, "crawler.crawl");
      crawler.crawl([&](crawler::CrawlResult r) {
        result = std::move(r);
        finished = true;
      });
      meter.drive([&] { return world_->run(); });
    }

    // Output check: every peer online when the crawl ends was found.
    std::unordered_set<sim::NodeId> found;
    for (const auto& observation : result.observations)
      found.insert(observation.peer.node);
    std::uint64_t online = 0, missed = 0;
    for (std::size_t i = 0; i < world_->size(); ++i) {
      const sim::NodeId node = world_->ref(i).node;
      if (!network.online(node)) continue;
      ++online;
      if (!found.contains(node)) ++missed;
    }
    outcome.check(finished, "census: crawl did not finish");
    outcome.check(missed == 0, "census: " + std::to_string(missed) + " of " +
                                   std::to_string(online) +
                                   " online peers not found");
    outcome.attempted = online;
    outcome.failed = missed;

    const double dialable_share =
        result.total() == 0 ? 0.0
                            : static_cast<double>(result.dialable()) /
                                  static_cast<double>(result.total());
    outcome.simulated("sim.events", static_cast<double>(meter.events));
    outcome.simulated("crawler.peers_found",
                      static_cast<double>(result.total()));
    outcome.simulated("crawler.dialable_share", dialable_share);
    outcome.simulated("crawler.crawl_s",
                      sim::to_seconds(result.finished_at - result.started_at));
    record_network_layer(outcome, counters);
    outcome.metrics["sim.events_per_s"] =
        static_cast<double>(meter.events) / meter.host_s;
    outcome.fidelity.push_back(
        {"crawler.dialable_share", dialable_share, kPaperDialableShare, ""});
    return outcome;
  }

  void teardown(Tracer* tracer) override {
    Scope scope(tracer, "world.teardown");
    world_.reset();
  }

 private:
  static constexpr std::size_t kPeers = 30'000;

  Options options_;
  std::unique_ptr<world::World> world_;
};

}  // namespace

std::unique_ptr<Workload> make_census(const Options& options) {
  return std::make_unique<Census>(options);
}

}  // namespace perfbench

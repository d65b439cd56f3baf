// gateway_day: one simulated day of ipfs.io-style traffic (paper Section
// 6.3, Table 5) through a 4-replica GatewayFleet over a 1000-peer world.
// The catalog is Zipf-popular with log-normal sizes and a 58 % pinned
// share; requests arrive as an open loop on the diurnal curve and each
// is timed from its scheduled arrival. Exercises the read side of the
// block stores: edge and origin caches, merkledag::cat, the hash ring and
// P2P singleflight.
//
// Catalog and arrivals are generated here, not by the library's
// GatewayWorkload, so no library change can alter the inputs.
#include <algorithm>
#include <cmath>
#include <numbers>

#include "gateway/fleet.h"
#include "harness.h"
#include "world/geography.h"

namespace perfbench {
namespace {

using namespace ipfs;

// Paper Table 5: nginx cache 46.0 %, node store 40.2 %, non-cached 13.8 %
// of requests.
constexpr double kPaperNginxShare = 0.460;
constexpr double kPaperNodeStoreShare = 0.402;
constexpr double kPaperP2pShare = 0.138;

constexpr std::size_t kWorldPeers = 1000;
constexpr std::size_t kReplicas = 4;
constexpr std::size_t kHosts = 4;
constexpr std::size_t kCatalog = 100;
constexpr std::size_t kRequests = 8000;
constexpr double kZipfExponent = 1.0;
constexpr double kPinnedShare = 0.58;
// Object sizes (Figure 11a: median ~600 kB).
constexpr double kSizeMedian = 600.0 * 1024;
constexpr double kSizeSigma = 0.9;
constexpr double kSizeCap = 4.0 * 1024 * 1024;
constexpr double kDiurnalDepth = 0.45;
constexpr sim::Duration kDay = sim::hours(24);
// Provider records are re-seeded mid-day, as the 12 h republish would.
constexpr sim::Duration kRepublishAt = sim::hours(11.5);

struct CatalogEntry {
  std::uint64_t key = 0;  // content key for fill_content
  std::size_t size = 0;
  bool pinned = false;
  multiformats::Cid cid;
  std::size_t host = 0;
};

struct Arrival {
  sim::Duration offset = 0;  // from the start of the day
  std::size_t rank = 0;
};

// Inverse of the standard normal CDF, by bisection (q in (0, 1)).
double normal_quantile(double q) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::numbers::sqrt2) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// Double-peaked diurnal rate multiplier (Figure 4b).
double diurnal(sim::Duration t) {
  const double day_fraction =
      static_cast<double>(t % kDay) / static_cast<double>(kDay);
  const double angle = 2.0 * std::numbers::pi * day_fraction;
  const double wave = 0.7 * std::sin(angle - 1.2) + 0.3 * std::sin(2 * angle);
  return std::max(0.1, 1.0 + kDiurnalDepth * wave);
}

// Places provider records for `key` on the 20 peers closest to it: the
// steady state a publication leaves, without simulating the walks.
void seed_provider_records(world::World& world, const dht::Key& key,
                           const dht::PeerRef& provider) {
  std::vector<std::pair<std::array<std::uint8_t, 32>, std::size_t>> scored;
  scored.reserve(world.size());
  for (std::size_t i = 0; i < world.size(); ++i)
    scored.emplace_back(
        dht::Key::for_peer(world.ref(i).id).distance_to(key), i);
  const std::size_t take = std::min<std::size_t>(dht::kReplication,
                                                 scored.size());
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
  for (std::size_t i = 0; i < take; ++i)
    world.dht(scored[i].second)
        .record_store()
        .add_provider(key, dht::ProviderRecord{provider, world.now()});
}

class GatewayDay final : public Workload {
 public:
  explicit GatewayDay(const Options& options) : options_(options) {
    // Inputs. The catalog is the same for every seed, like a fixed data
    // set: rank r gets the log-normal size quantile (q + 0.5) / N with
    // q = 37 r mod N, and is pinned when 61 r mod N falls in the first
    // 58 %, so big and small, pinned and unpinned objects are spread over
    // the popularity ranks. Which replica owns an object follows its CID,
    // and a 4 MiB object fills half an edge cache, so a catalog drawn
    // per seed would swing the day's cost with the seed. The seed draws
    // the world, the arrival times and the ranks requested.
    for (std::size_t rank = 0; rank < kCatalog; ++rank) {
      CatalogEntry entry;
      entry.key = mix64(0xca7a1090000ULL + rank);
      const double q =
          (static_cast<double>((37 * rank) % kCatalog) + 0.5) / kCatalog;
      entry.size = static_cast<std::size_t>(std::clamp(
          kSizeMedian * std::exp(kSizeSigma * normal_quantile(q)), 1024.0,
          kSizeCap));
      entry.pinned = static_cast<double>((61 * rank) % kCatalog) <
                     kPinnedShare * kCatalog;
      entry.host = rank % kHosts;
      catalog_.push_back(entry);
    }
    std::vector<double> zipf_cdf(kCatalog);
    double total = 0.0;
    for (std::size_t rank = 0; rank < kCatalog; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      zipf_cdf[rank] = total;
    }
    // Non-homogeneous Poisson arrivals: the mean gap is squeezed or
    // stretched by the diurnal multiplier at the current time.
    InputRng arrival_rng(options.seed);
    const double mean_gap_us =
        static_cast<double>(kDay) / static_cast<double>(kRequests);
    double t = 0.0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      t += arrival_rng.exponential(
          mean_gap_us / diurnal(static_cast<sim::Duration>(t)));
      const double u = arrival_rng.uniform() * total;
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
          zipf_cdf.begin());
      arrivals_.push_back(
          {static_cast<sim::Duration>(t), std::min(rank, kCatalog - 1)});
    }
  }

  void setup(Tracer* tracer) override {
    scenario::ScenarioBuilder builder;
    builder.peers(kWorldPeers).seed(options_.seed);
    world_ = build_world(builder, tracer);
    sim::Network& network = world_->network();

    // The fleet: beefy, reliable US replicas (the sampled ipfs.io
    // instance is in the US). Edge and origin caches hold about 3/4 of
    // the catalog between them, so every tier sees traffic.
    gateway::FleetConfig config;
    config.replicas = kReplicas;
    config.replica.node.net.region = world::kUsEast;
    config.replica.node.net.upload_bytes_per_sec = 200.0 * 1024 * 1024;
    config.replica.node.net.download_bytes_per_sec = 200.0 * 1024 * 1024;
    config.replica.node.identity_seed = 0x6A7E;
    config.replica.node.provide_after_fetch = false;
    config.replica.nginx_cache_bytes = 9ull * 1024 * 1024;
    config.origin_cache_bytes = 32ull * 1024 * 1024;
    fleet_ = std::make_unique<gateway::GatewayFleet>(network, config);

    // Content hosts spread over four regions.
    const int regions[kHosts] = {world::kUsEast, world::kEuCentral,
                                 world::kAsiaEast, world::kUsWest};
    for (std::size_t i = 0; i < kHosts; ++i) {
      node::IpfsNodeConfig host;
      host.net.region = regions[i];
      host.net.upload_bytes_per_sec = 30.0 * 1024 * 1024;
      host.net.download_bytes_per_sec = 30.0 * 1024 * 1024;
      host.identity_seed = 0x405700 + i;
      hosts_.push_back(std::make_unique<node::IpfsNode>(network, host));
    }
    fleet_->bootstrap(world_->bootstrap_refs(), [](bool) {});
    for (auto& host : hosts_)
      host->bootstrap(world_->bootstrap_refs(), [](bool) {});
    world_->run();

    // Import the catalog: hosts hold everything, the pinned share also
    // lives on its ring owner's node store (Web3/NFT Storage content).
    import_bytes_ = 0;
    import_s_ = 0.0;
    for (CatalogEntry& entry : catalog_) {
      const auto bytes = make_content(entry.key, entry.size);
      const auto start = Clock::now();
      entry.cid = hosts_[entry.host]->add(bytes).root;
      import_s_ += seconds_since(start);
      import_bytes_ += bytes.size();
      if (entry.pinned) fleet_->pin_object(bytes);
      seed_provider_records(*world_, dht::Key::for_cid(entry.cid),
                            hosts_[entry.host]->self());
    }
  }

  Outcome run(Tracer* tracer) override {
    Outcome outcome;
    const CounterBaseline counters(
        world_->network().metrics(),
        {"gateway.p2p.coalesced", "gateway.negative.hits",
         "gateway.fleet.spills"});
    EventMeter meter;
    std::vector<double> latency_ms;
    latency_ms.reserve(kRequests);
    std::uint64_t tiers[5] = {0, 0, 0, 0, 0};  // by gateway::ServedFrom
    bool republished = false;

    const auto start = Clock::now();
    const sim::Time day_start = world_->now();
    for (const Arrival& arrival : arrivals_) {
      const sim::Time due = day_start + arrival.offset;
      meter.drive([&] { return world_->run_until(due); });
      if (!republished && arrival.offset >= kRepublishAt) {
        for (const CatalogEntry& entry : catalog_)
          seed_provider_records(*world_, dht::Key::for_cid(entry.cid),
                                hosts_[entry.host]->self());
        republished = true;
      }
      const CatalogEntry& entry = catalog_[arrival.rank];
      Scope scope(tracer, "gateway.handle_get");
      fleet_->handle_get(entry.cid, [&, due](gateway::GatewayResponse r) {
        ++outcome.attempted;
        ++tiers[static_cast<int>(r.source)];
        if (r.source == gateway::ServedFrom::kFailed) {
          ++outcome.failed;
          latency_ms.push_back(kInf);
          return;
        }
        latency_ms.push_back(
            static_cast<double>(world_->now() - due) / 1000.0);
        // Output check: every response carries its object's size.
        outcome.check(r.bytes == entry.size,
                      "gateway_day: response for rank " +
                          std::to_string(arrival.rank) + " carried " +
                          std::to_string(r.bytes) + " bytes, object has " +
                          std::to_string(entry.size));
      });
    }
    meter.drive([&] { return world_->run(); });
    const double host_s = seconds_since(start);

    outcome.check(outcome.attempted == kRequests,
                  "gateway_day: " +
                      std::to_string(kRequests - outcome.attempted) +
                      " requests never completed");
    const double served =
        static_cast<double>(outcome.attempted - outcome.failed);
    const auto share = [&](gateway::ServedFrom tier) {
      return ratio(static_cast<double>(tiers[static_cast<int>(tier)]), served);
    };
    const auto count = [&](const char* name) {
      return static_cast<double>(counters.delta(name));
    };
    using gateway::ServedFrom;
    outcome.simulated("sim.events", static_cast<double>(meter.events));
    outcome.simulated("failed_ratio",
                      ratio(static_cast<double>(outcome.failed),
                            static_cast<double>(kRequests)));
    outcome.simulated("gateway_p50_ms", percentile(latency_ms, 50));
    outcome.simulated("gateway_p99_ms", percentile(latency_ms, 99));
    outcome.simulated("gateway_absorbed_share",
                      share(ServedFrom::kNginxCache) +
                          share(ServedFrom::kNodeStore) +
                          share(ServedFrom::kOriginCache));
    outcome.simulated("gateway.tier.nginx_share",
                      share(ServedFrom::kNginxCache));
    outcome.simulated("gateway.tier.node_store_share",
                      share(ServedFrom::kNodeStore));
    outcome.simulated("gateway.tier.origin_share",
                      share(ServedFrom::kOriginCache));
    outcome.simulated("gateway.tier.p2p_share", share(ServedFrom::kP2p));
    outcome.simulated("gateway.p2p_coalesced", count("gateway.p2p.coalesced"));
    outcome.simulated("gateway.negative_hits", count("gateway.negative.hits"));
    outcome.simulated("gateway.spills", count("gateway.fleet.spills"));
    record_network_layer(outcome, counters);
    outcome.metrics["sim.events_per_s"] =
        static_cast<double>(meter.events) / meter.host_s;
    outcome.metrics["gateway.host_us_per_request"] =
        host_s * 1e6 / static_cast<double>(kRequests);
    // The catalog import goes through IpfsNode::add (merkledag import,
    // pin, flush), so it is both figures here.
    outcome.metrics["add_MBps"] =
        static_cast<double>(import_bytes_) / 1e6 / import_s_;
    outcome.metrics["merkledag.import_MBps"] = outcome.metrics["add_MBps"];

    outcome.fidelity.push_back({"gateway.tier.nginx_share",
                                share(ServedFrom::kNginxCache),
                                kPaperNginxShare, ""});
    outcome.fidelity.push_back({"gateway.tier.node_store_share",
                                share(ServedFrom::kNodeStore),
                                kPaperNodeStoreShare, ""});
    outcome.fidelity.push_back({"gateway.tier.p2p_share",
                                share(ServedFrom::kP2p), kPaperP2pShare, ""});
    outcome.fidelity.push_back({"gateway_absorbed_share",
                                outcome.metrics["gateway_absorbed_share"],
                                1.0 - kPaperP2pShare, ""});
    return outcome;
  }

  void teardown(Tracer* tracer) override {
    fleet_.reset();
    hosts_.clear();
    Scope scope(tracer, "world.teardown");
    world_.reset();
  }

 private:
  Options options_;
  std::vector<CatalogEntry> catalog_;
  std::vector<Arrival> arrivals_;
  std::uint64_t import_bytes_ = 0;
  double import_s_ = 0.0;
  std::unique_ptr<world::World> world_;
  std::unique_ptr<gateway::GatewayFleet> fleet_;
  std::vector<std::unique_ptr<node::IpfsNode>> hosts_;
};

}  // namespace

std::unique_ptr<Workload> make_gateway_day(const Options& options) {
  return std::make_unique<GatewayDay>(options);
}

}  // namespace perfbench

// bulk_fetch: import a 128 MiB object, fetch it with an 8-provider
// Bitswap Session into a write-behind persistent store on real files,
// flush, reopen the store from disk and cat-verify the object. There is
// no swarm and no DHT: only the fabric carries the session's messages.
// This is the write side of the block stores (gateway_day is the read
// side), session striping and hashing throughput; world, DHT and
// event-core changes are bypassed.
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "bitswap/session.h"
#include "blockstore/persist/persistent_store.h"
#include "blockstore/store_config.h"
#include "harness.h"
#include "merkledag/merkledag.h"
#include "transport/sim_transport.h"
#include "world/geography.h"

namespace perfbench {
namespace {

using namespace ipfs;
using blockstore::persist::PersistentBlockStore;
using blockstore::persist::PosixStorage;
namespace fs = std::filesystem;

constexpr std::uint64_t kObjectBytes = 128ull * 1024 * 1024;
constexpr std::size_t kImportPiece = 1024 * 1024;
constexpr int kProviderRegions[] = {
    world::kEuCentral, world::kUsEast,      world::kAsiaEast, world::kUsWest,
    world::kApSoutheast, world::kSaEast,    world::kAfSouth,  world::kMeSouth};
constexpr std::size_t kProviders = std::size(kProviderRegions);

std::unique_ptr<transport::Transport> make_transport(sim::Network& network,
                                                     sim::NodeId node,
                                                     Tracer* tracer) {
  std::unique_ptr<transport::Transport> transport =
      std::make_unique<transport::SimTransport>(network, node);
  if (tracer != nullptr)
    transport =
        std::make_unique<TracingTransport>(std::move(transport), *tracer);
  return transport;
}

std::uint64_t bytes_on_disk(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

class BulkFetch final : public Workload {
 public:
  explicit BulkFetch(const Options& options)
      : options_(options),
        content_key_(mix64(options.seed) ^ 0xb01cf37c4ULL),
        store_dir_(fs::path(options.work_dir) /
                   ("bulk_fetch-" + std::to_string(getpid()))) {}

  ~BulkFetch() override { remove_files(); }

  void setup(Tracer* tracer) override {
    scenario::ScenarioBuilder builder;
    builder.seed(options_.seed).world_geography();
    scenario_ = std::make_unique<scenario::Scenario>(builder.build());
    sim::Network& network = scenario_->network();

    requester_node_ = network.add_node(sim::NodeConfig()
                                           .with_region(world::kEuCentral)
                                           .with_download(100.0 * 1024 * 1024));
    for (std::size_t i = 0; i < kProviders; ++i) {
      const sim::NodeId node = network.add_node(
          sim::NodeConfig()
              .with_region(kProviderRegions[i])
              .with_upload(4.0 * 1024 * 1024));
      provider_nodes_.push_back(node);
      provider_transports_.push_back(make_transport(network, node, tracer));
      provider_bitswaps_.push_back(std::make_unique<bitswap::Bitswap>(
          *provider_transports_.back(), provider_store_));
      bitswap::Bitswap* bs = provider_bitswaps_.back().get();
      provider_transports_.back()->set_request_handler(
          [bs](sim::NodeId from, const sim::MessagePtr& message, auto respond) {
            bs->handle_request(from, message, respond);
          });
      network.connect(requester_node_, node, [](bool, sim::Duration) {});
    }
    network.run();

    // `ipfs add` of the object, streamed in 1 MiB pieces. The providers
    // serve from one shared store: each holds the whole object, and the
    // object is neither stored nor re-verified eight times.
    {
      Scope scope(tracer, "merkledag.import");
      const auto start = Clock::now();
      merkledag::StreamingImporter importer(provider_store_);
      std::vector<std::uint8_t> piece(kImportPiece);
      for (std::uint64_t offset = 0; offset < kObjectBytes;
           offset += kImportPiece) {
        fill_content(content_key_, offset, piece);
        importer.write(piece);
      }
      root_ = importer.finish().root;
      import_s_ = seconds_since(start);
    }
    cids_ = *merkledag::enumerate(provider_store_, root_);

    remove_files();  // a killed earlier run may have left some behind
    blockstore::StoreConfig store_config;
    store_config.backend = blockstore::StoreConfig::Backend::kPersistentAsync;
    store_config.directory = store_dir_.string();
    store_ = blockstore::make_store(store_config, &network.metrics());
  }

  Outcome run(Tracer* tracer) override {
    Outcome outcome;
    sim::Network& network = scenario_->network();
    const CounterBaseline counters(
        network.metrics(), {"bitswap.want_have.tx", "bitswap.dont_have.rx"});

    std::unique_ptr<TracingStore> traced_store;
    if (tracer != nullptr)
      traced_store = std::make_unique<TracingStore>(*store_, *tracer);
    blockstore::BlockStore& store =
        traced_store ? static_cast<blockstore::BlockStore&>(*traced_store)
                     : *store_;

    EventMeter meter;
    bitswap::SessionFetchStats stats;
    double fetch_host_s = 0.0, store_in_fetch_s = 0.0;
    {
      auto transport = make_transport(network, requester_node_, tracer);
      bitswap::Bitswap requester(*transport, store);
      bitswap::SessionConfig config;
      config.window = 8 * bitswap::Bitswap::kFetchWindow;
      bitswap::Session session(requester, config);
      for (const sim::NodeId peer : provider_nodes_) session.add_peer(peer);

      const double store_before = store_time(tracer);
      Scope scope(tracer, "bitswap.session_fetch");
      const auto start = Clock::now();
      session.fetch_dag(root_,
                        [&](bitswap::SessionFetchStats s) { stats = s; });
      meter.drive([&] { return network.run(); });
      fetch_host_s = seconds_since(start);
      store_in_fetch_s = store_time(tracer) - store_before;
    }
    outcome.check(stats.ok, "bulk_fetch: session fetch did not complete");

    const std::uint64_t user_bytes = store.total_bytes();
    store.flush();
    const std::uint64_t disk_bytes = bytes_on_disk(store_dir_);
    traced_store.reset();
    store_.reset();

    // Reopen from disk: every acked block must be there.
    const auto reopen_start = Clock::now();
    {
      Scope scope(tracer, "blockstore.reopen");
      reopened_ = std::make_unique<PersistentBlockStore>(
          std::make_unique<PosixStorage>(store_dir_.string()));
    }
    const double reopen_s = seconds_since(reopen_start);
    std::size_t missing = 0;
    for (const auto& cid : cids_)
      if (!reopened_->has(cid)) ++missing;
    outcome.check(missing == 0, "bulk_fetch: " + std::to_string(missing) +
                                    " acked blocks missing after reopen");

    // cat-verify against the source bytes, regenerated piecewise.
    const auto cat_start = Clock::now();
    std::optional<std::vector<std::uint8_t>> bytes;
    {
      Scope scope(tracer, "merkledag.cat");
      bytes = merkledag::cat(*reopened_, root_);
    }
    const double cat_s = seconds_since(cat_start);
    bool intact = bytes && bytes->size() == kObjectBytes;
    std::vector<std::uint8_t> expected(kImportPiece);
    for (std::uint64_t offset = 0; intact && offset < kObjectBytes;
         offset += kImportPiece) {
      fill_content(content_key_, offset, expected);
      intact = std::memcmp(bytes->data() + offset, expected.data(),
                           kImportPiece) == 0;
    }
    outcome.check(intact, "bulk_fetch: cat of the reopened store differs "
                          "from the imported object");

    outcome.attempted = cids_.size();
    outcome.failed = stats.ok && intact ? missing : cids_.size();
    const double object_mb = static_cast<double>(kObjectBytes) / 1e6;
    outcome.simulated("sim.events", static_cast<double>(meter.events));
    const auto count = [&](const char* name) {
      return static_cast<double>(counters.delta(name));
    };
    outcome.simulated("failed_ratio",
                      ratio(static_cast<double>(outcome.failed),
                            static_cast<double>(outcome.attempted)));
    outcome.simulated("fetch_MiBps", static_cast<double>(kObjectBytes) / kMiB /
                                         sim::to_seconds(stats.elapsed));
    outcome.simulated("bitswap.want_have_per_block",
                      ratio(count("bitswap.want_have.tx"),
                            static_cast<double>(stats.blocks)));
    outcome.simulated("bitswap.dont_have_rx", count("bitswap.dont_have.rx"));
    outcome.simulated("bitswap.retried_blocks",
                      static_cast<double>(stats.retried_blocks));
    outcome.simulated("blockstore.write_amp",
                      ratio(static_cast<double>(disk_bytes),
                            static_cast<double>(user_bytes)));
    record_network_layer(outcome, counters);
    outcome.metrics["sim.events_per_s"] =
        static_cast<double>(meter.events) / meter.host_s;
    outcome.metrics["add_MBps"] = object_mb / import_s_;
    outcome.metrics["merkledag.import_MBps"] = object_mb / import_s_;
    outcome.metrics["merkledag.cat_MBps"] = object_mb / cat_s;
    outcome.metrics["bitswap.fetch_host_s"] = fetch_host_s - store_in_fetch_s;
    outcome.metrics["blockstore.reopen_s"] = reopen_s;
    return outcome;
  }

  void teardown(Tracer*) override {
    reopened_.reset();
    provider_bitswaps_.clear();
    provider_transports_.clear();
    provider_nodes_.clear();
    provider_store_ = blockstore::BlockStore();
    cids_.clear();
    scenario_.reset();
  }

  void remove_files() override {
    std::error_code ignored;
    fs::remove_all(store_dir_, ignored);
  }

 private:
  // Host seconds spent inside the requester's store so far (traced only).
  static double store_time(Tracer* tracer) {
    if (tracer == nullptr) return 0.0;
    return tracer->total_s("blockstore.put", Phase::kRun) +
           tracer->total_s("blockstore.get", Phase::kRun) +
           tracer->total_s("blockstore.has", Phase::kRun);
  }

  Options options_;
  std::uint64_t content_key_;
  fs::path store_dir_;
  std::unique_ptr<scenario::Scenario> scenario_;
  sim::NodeId requester_node_ = sim::kInvalidNode;
  std::vector<sim::NodeId> provider_nodes_;
  blockstore::BlockStore provider_store_;
  // Declared after the store and transports they reference.
  std::vector<std::unique_ptr<transport::Transport>> provider_transports_;
  std::vector<std::unique_ptr<bitswap::Bitswap>> provider_bitswaps_;
  multiformats::Cid root_;
  std::vector<multiformats::Cid> cids_;
  double import_s_ = 0.0;
  std::unique_ptr<blockstore::BlockStore> store_;
  std::unique_ptr<PersistentBlockStore> reopened_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_fetch(const Options& options) {
  return std::make_unique<BulkFetch>(options);
}

}  // namespace perfbench

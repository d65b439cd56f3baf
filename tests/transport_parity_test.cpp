// Backend parity (ISSUE 8 satellite): the same publish -> provide ->
// resolve -> fetch scenario, run once over SimTransport on the
// discrete-event fabric and once over SocketTransports exchanging real
// UDP datagrams on loopback, must produce the same provider records and
// the same block bytes. Timings are NOT compared — virtual time and wall
// time differ by construction; parity is about protocol outcomes.
// The SocketTransportTest suite below pins the socket backend's own
// contract: timer cancellation and ordering, RPC and dial timeouts, and
// idle().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bitswap/bitswap.h"
#include "blockstore/blockstore.h"
#include "dht/dht_node.h"
#include "dht/key.h"
#include "dht/messages.h"
#include "multiformats/cid.h"
#include "scenario/scenario.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "transport/sim_transport.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace ipfs {
namespace {

// One protocol endpoint: a DHT server plus Bitswap, multiplexed onto a
// transport exactly the way node::IpfsNode does it.
struct Rig {
  blockstore::BlockStore store;
  dht::DhtNode dht;
  bitswap::Bitswap bitswap;

  Rig(transport::Transport& transport, std::uint64_t identity)
      : dht(transport, scenario::synthetic_peer_id(identity),
            {scenario::synthetic_address(
                static_cast<std::uint32_t>(identity))}),
        bitswap(transport, store) {
    dht.force_mode(dht::DhtNode::Mode::kServer);
    transport.set_request_handler(
        [this](sim::NodeId from, const sim::MessagePtr& message,
               const std::function<void(sim::MessagePtr, std::size_t)>&
                   respond) {
          if (dht.handle_request(from, message, respond)) return;
          bitswap.handle_request(from, message, respond);
        });
    transport.set_message_handler(
        [this](sim::NodeId from, const sim::MessagePtr& message) {
          dht.handle_message(from, message);
        });
  }
};

struct ParityOutcome {
  bool provide_ok = false;
  int provider_stores = 0;
  bool lookup_done = false;
  std::vector<sim::NodeId> provider_nodes;  // sorted
  std::optional<std::vector<std::uint8_t>> block_data;
  // Provider-side transport counters (socket run only).
  std::uint64_t tx_messages = 0;
  std::uint64_t rx_messages = 0;
};

std::vector<std::uint8_t> test_payload() {
  return {'p', 'a', 'r', 'i', 't', 'y', '-', 'b', 'l', 'o', 'c', 'k'};
}

// Runs the scenario over three already-wired transports. `pump` advances
// the backend's event loop until the given condition holds (or its
// internal deadline passes). Node 0 is a plain server, node 1 the
// provider, node 2 the fetcher.
ParityOutcome run_scenario(
    const std::array<transport::Transport*, 3>& transports,
    const std::function<void(const std::function<bool()>&)>& pump) {
  std::array<std::unique_ptr<Rig>, 3> rigs;
  for (std::size_t i = 0; i < rigs.size(); ++i) {
    rigs[i] = std::make_unique<Rig>(*transports[i], 100 + i);
  }
  // Pre-seeded, already-converged routing tables (the scenario harness's
  // convention) so the walk outcome does not depend on bootstrap timing.
  for (auto& rig : rigs) {
    for (auto& other : rigs) {
      if (other == rig) continue;
      rig->dht.routing_table().upsert(other->dht.self_contact());
    }
  }

  const auto payload = test_payload();
  const auto block =
      blockstore::Block::from_data(multiformats::Multicodec::kRaw, payload);
  const auto cid = block.cid();
  rigs[1]->store.put(block);
  const dht::Key key = dht::Key::for_cid(cid);

  ParityOutcome outcome;
  rigs[1]->dht.provide(key, [&outcome](dht::DhtNode::ProvideResult result) {
    outcome.provide_ok = result.ok;
    outcome.provider_stores = result.stores_sent;
  });
  pump([&outcome] { return outcome.provide_ok; });

  rigs[2]->dht.find_providers(key, [&outcome](dht::LookupResult result) {
    outcome.lookup_done = true;
    for (const auto& record : result.providers) {
      outcome.provider_nodes.push_back(record.provider.node);
    }
    std::sort(outcome.provider_nodes.begin(), outcome.provider_nodes.end());
    outcome.provider_nodes.erase(
        std::unique(outcome.provider_nodes.begin(),
                    outcome.provider_nodes.end()),
        outcome.provider_nodes.end());
  });
  pump([&outcome] { return outcome.lookup_done; });

  bool fetch_done = false;
  transports[2]->connect(
      transports[1]->local(),
      [&](bool ok, sim::Duration) {
        if (!ok) {
          fetch_done = true;
          return;
        }
        rigs[2]->bitswap.fetch_block(
            transports[1]->local(), cid,
            [&](bitswap::BlockResult block) {
              if (block.data) outcome.block_data = *block.data;
              fetch_done = true;
            });
      });
  pump([&fetch_done] { return fetch_done; });
  return outcome;
}

ParityOutcome run_over_sim() {
  sim::Simulator simulator;
  const sim::LatencyModel latency(
      std::vector<std::vector<double>>{{20.0}});
  sim::Network network(simulator, latency, /*seed=*/7);
  std::array<std::unique_ptr<transport::SimTransport>, 3> transports;
  for (auto& t : transports) {
    t = std::make_unique<transport::SimTransport>(network, sim::NodeConfig{});
  }
  return run_scenario(
      {transports[0].get(), transports[1].get(), transports[2].get()},
      [&simulator](const std::function<bool()>& done) {
        simulator.run();
        EXPECT_TRUE(done());
      });
}

ParityOutcome run_over_sockets() {
  std::array<std::unique_ptr<transport::SocketTransport>, 3> transports;
  for (std::size_t i = 0; i < transports.size(); ++i) {
    transports[i] = std::make_unique<transport::SocketTransport>(
        static_cast<transport::PeerAddr>(i), "127.0.0.1", /*port=*/0);
  }
  // Full-mesh peer table over the ephemeral loopback ports.
  for (auto& t : transports) {
    for (std::size_t j = 0; j < transports.size(); ++j) {
      if (transports[j].get() == t.get()) continue;
      t->add_peer(static_cast<transport::PeerAddr>(j), "127.0.0.1",
                  transports[j]->port());
    }
  }
  ParityOutcome outcome = run_scenario(
      {transports[0].get(), transports[1].get(), transports[2].get()},
      [&transports](const std::function<bool()>& done) {
        const sim::Time deadline =
            transports[0]->now() + sim::seconds(30);
        while (!done() && transports[0]->now() < deadline) {
          for (auto& t : transports) t->poll_once(sim::milliseconds(1));
        }
        EXPECT_TRUE(done());
      });
  outcome.tx_messages =
      transports[1]->metrics().counter_value("transport.tx.messages");
  outcome.rx_messages =
      transports[1]->metrics().counter_value("transport.rx.messages");
  return outcome;
}

TEST(TransportParityTest, SimAndSocketBackendsAgree) {
  const ParityOutcome sim_outcome = run_over_sim();
  const ParityOutcome socket_outcome = run_over_sockets();

  // Both backends complete the whole pipeline...
  EXPECT_TRUE(sim_outcome.provide_ok);
  EXPECT_TRUE(socket_outcome.provide_ok);
  EXPECT_TRUE(sim_outcome.lookup_done);
  EXPECT_TRUE(socket_outcome.lookup_done);

  // ...store provider records on the same peers...
  EXPECT_GT(sim_outcome.provider_stores, 0);
  EXPECT_GT(socket_outcome.provider_stores, 0);
  EXPECT_EQ(sim_outcome.provider_nodes, socket_outcome.provider_nodes);
  ASSERT_FALSE(socket_outcome.provider_nodes.empty());
  EXPECT_EQ(socket_outcome.provider_nodes.front(),
            static_cast<sim::NodeId>(1));

  // ...and move the same block bytes.
  ASSERT_TRUE(sim_outcome.block_data.has_value());
  ASSERT_TRUE(socket_outcome.block_data.has_value());
  EXPECT_EQ(*sim_outcome.block_data, *socket_outcome.block_data);
  EXPECT_EQ(*socket_outcome.block_data, test_payload());
}

// The socket backend's transport counters move: the scenario above sends
// real datagrams, and both directions are visible in the per-process
// metrics registry (docs/OBSERVABILITY.md).
TEST(TransportParityTest, SocketCountersAdvance) {
  const ParityOutcome outcome = run_over_sockets();
  ASSERT_TRUE(outcome.block_data.has_value());
  EXPECT_GT(outcome.tx_messages, 0u);
  EXPECT_GT(outcome.rx_messages, 0u);
}

// --------------------------------------------------------------------------
// SocketTransport contract: timers, RPC and dial timeouts, idle(), on
// loopback sockets. Wall-clock waits are kept short; the dial case waits
// out the backend's fixed 5 s dial timeout.
// --------------------------------------------------------------------------

class SocketTransportTest : public ::testing::Test {
 protected:
  static constexpr transport::PeerAddr kSilent = 1;

  std::unique_ptr<transport::SocketTransport> make(transport::PeerAddr addr) {
    return std::make_unique<transport::SocketTransport>(addr, "127.0.0.1",
                                                        /*port=*/0);
  }

  // Polls `t` until `done()` holds or `limit` of wall time has passed.
  static void pump(transport::SocketTransport& t,
                   const std::function<bool()>& done, sim::Duration limit) {
    const sim::Time deadline = t.now() + limit;
    while (!done() && t.now() < deadline) t.poll_once(sim::milliseconds(10));
  }
};

TEST_F(SocketTransportTest, CancelBeforeFireNeverRunsTheCallback) {
  auto t = make(0);
  bool fired = false;
  transport::Timer timer =
      t->schedule_after(sim::milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(timer.active());
  timer.cancel();
  EXPECT_FALSE(timer.active());
  t->run_for(sim::milliseconds(30));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(t->idle());
}

TEST_F(SocketTransportTest, CancelAfterFireIsANoOp) {
  auto t = make(0);
  int fired = 0;
  transport::Timer timer = t->schedule_after(0, [&] { ++fired; });
  pump(*t, [&] { return fired > 0; }, sim::seconds(1));
  ASSERT_EQ(fired, 1);
  EXPECT_FALSE(timer.active());
  timer.cancel();
  EXPECT_FALSE(timer.active());
  t->run_for(sim::milliseconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(t->idle());
}

TEST_F(SocketTransportTest, EqualDeadlineTimersFireInScheduleOrder) {
  auto t = make(0);
  std::vector<int> order;
  const sim::Time when = t->now() + sim::milliseconds(5);
  for (int i = 0; i < 5; ++i)
    t->schedule_daemon_at(when, [&order, i] { order.push_back(i); });
  pump(*t, [&] { return order.size() == 5; }, sim::seconds(1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(SocketTransportTest, DaemonTimerAloneLeavesIdle) {
  auto t = make(0);
  EXPECT_TRUE(t->idle());
  transport::Timer daemon =
      t->schedule_daemon_after(sim::seconds(60), [] { FAIL(); });
  EXPECT_TRUE(t->idle());
  transport::Timer foreground =
      t->schedule_after(sim::seconds(60), [] { FAIL(); });
  EXPECT_FALSE(t->idle());
  foreground.cancel();
  EXPECT_TRUE(t->idle());
  daemon.cancel();
}

TEST_F(SocketTransportTest, DaemonAtInThePastFiresOnTheNextPoll) {
  auto t = make(0);
  bool fired = false;
  t->schedule_daemon_at(t->now() - sim::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(t->poll_once(0));
  EXPECT_TRUE(fired);
}

TEST_F(SocketTransportTest, RequestToUnregisteredPeerIsUnreachable) {
  auto t = make(0);
  std::optional<sim::RpcStatus> status;
  t->request(kSilent, std::make_shared<dht::DialBackRequest>(), 0,
             sim::seconds(1),
             [&](sim::RpcStatus s, sim::MessagePtr) { status = s; });
  pump(*t, [&] { return status.has_value(); }, sim::seconds(1));
  EXPECT_EQ(status, sim::RpcStatus::kUnreachable);
  EXPECT_TRUE(t->idle());
}

TEST_F(SocketTransportTest, RequestToSilentSocketTimesOut) {
  auto t = make(0);
  auto silent = make(kSilent);  // bound, never polled
  t->add_peer(kSilent, "127.0.0.1", silent->port());
  const sim::Duration timeout = sim::milliseconds(50);
  const sim::Time sent = t->now();
  std::optional<sim::RpcStatus> status;
  sim::Time answered = 0;
  t->request(kSilent, std::make_shared<dht::DialBackRequest>(), 0, timeout,
             [&](sim::RpcStatus s, sim::MessagePtr response) {
               status = s;
               answered = t->now();
               EXPECT_EQ(response, nullptr);
             });
  EXPECT_FALSE(t->idle());
  pump(*t, [&] { return status.has_value(); }, sim::seconds(2));
  EXPECT_EQ(status, sim::RpcStatus::kTimeout);
  EXPECT_GE(answered - sent, timeout);
  EXPECT_TRUE(t->idle());
}

TEST_F(SocketTransportTest, DialToSilentSocketFailsQueuedDialsAtTimeout) {
  auto t = make(0);
  auto silent = make(kSilent);
  t->add_peer(kSilent, "127.0.0.1", silent->port());
  const sim::Time started = t->now();
  std::vector<std::pair<bool, sim::Duration>> results;
  sim::Time failed_at = 0;
  for (int i = 0; i < 2; ++i) {
    t->connect(kSilent, [&](bool ok, sim::Duration elapsed) {
      results.emplace_back(ok, elapsed);
      failed_at = t->now();
    });
  }
  EXPECT_FALSE(t->idle());
  pump(*t, [&] { return results.size() == 2; }, sim::seconds(8));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& [ok, elapsed] : results) {
    EXPECT_FALSE(ok);
    EXPECT_GE(elapsed, sim::seconds(5));
  }
  EXPECT_GE(failed_at - started, sim::seconds(5));
  EXPECT_FALSE(t->connected(kSilent));
  EXPECT_TRUE(t->idle());
}

TEST_F(SocketTransportTest, SuccessfulConnectLeavesIdle) {
  auto a = make(0);
  auto b = make(1);
  a->add_peer(1, "127.0.0.1", b->port());
  std::optional<bool> ok;
  a->connect(1, [&](bool result, sim::Duration) { ok = result; });
  const sim::Time deadline = a->now() + sim::seconds(2);
  while (!ok.has_value() && a->now() < deadline) {
    b->poll_once(sim::milliseconds(1));
    a->poll_once(sim::milliseconds(1));
  }
  EXPECT_EQ(ok, true);
  EXPECT_TRUE(a->connected(1));
  EXPECT_TRUE(b->connected(0));
  EXPECT_TRUE(a->idle());
  EXPECT_TRUE(b->idle());
}

}  // namespace
}  // namespace ipfs

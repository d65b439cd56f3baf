// DHT wire messages. Sizes are approximations of the real protobuf
// encodings; they only influence simulated transfer delays.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dht/key.h"
#include "multiformats/multiaddr.h"
#include "multiformats/peerid.h"
#include "sim/network.h"
#include "sim/time.h"

namespace ipfs::dht {

// A peer reference: identity plus the addresses needed to dial it.
// `node` is the simulator handle the multiaddr resolves to. DHT answers
// carry it behind a Contact (below); provider records and lookup results
// hold it by value.
struct PeerRef {
  multiformats::PeerId id;
  sim::NodeId node = sim::kInvalidNode;
  // All advertised Multiaddresses (multihomed peers have several; the
  // crawler counts them, Section 5.1).
  std::vector<multiformats::Multiaddr> addresses;

  bool operator==(const PeerRef& other) const { return id == other.id; }
};

// One peer as the DHT passes it around: its Kademlia key and a handle to
// one immutable, shared PeerRef. Like blockstore::Block, a Contact is the
// proof that its key was derived from its id: the constructor is private
// and both factories hash the id, once. Copies share the handle, so a
// routing table, a DHT answer and a lookup candidate holding the same
// peer hold one PeerRef between them.
class Contact {
 public:
  static Contact of(PeerRef peer);
  static Contact of(std::shared_ptr<const PeerRef> peer);  // non-null

  const Key& key() const { return key_; }
  const std::shared_ptr<const PeerRef>& peer() const { return peer_; }

 private:
  Contact(Key key, std::shared_ptr<const PeerRef> peer)
      : key_(key), peer_(std::move(peer)) {}

  Key key_;  // Key::for_peer(peer_->id)
  std::shared_ptr<const PeerRef> peer_;
};

inline Contact Contact::of(PeerRef peer) {
  return of(std::make_shared<const PeerRef>(std::move(peer)));
}

inline Contact Contact::of(std::shared_ptr<const PeerRef> peer) {
  const Key key = Key::for_peer(peer->id);
  return Contact(key, std::move(peer));
}

// Provider record (paper Section 3.1): maps a CID key to a peer claiming
// to hold the content.
struct ProviderRecord {
  PeerRef provider;
  sim::Time received_at = 0;  // set by the storing peer
};

// Signed mutable record stored under a key (peer records, IPNS).
struct ValueRecord {
  std::vector<std::uint8_t> value;
  std::uint64_t sequence = 0;
  sim::Time received_at = 0;
};

// Approximate wire sizes in bytes, for transfer-delay modelling.
constexpr std::size_t kPeerRefBytes = 96;
constexpr std::size_t kRequestBaseBytes = 64;

// Common header of lookup RPCs: the requester's identity, as the secure
// channel plus identify-protocol exchange provides it in libp2p. Servers
// add server-mode requesters to their routing tables — this is how newly
// joined peers become routable.
struct LookupRequestBase : sim::Message {
  LookupRequestBase(Contact requester, bool requester_is_server)
      : requester(std::move(requester)),
        requester_is_server(requester_is_server) {}

  Contact requester;
  bool requester_is_server;
};

struct FindNodeRequest : LookupRequestBase {
  using LookupRequestBase::LookupRequestBase;
  Key target;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kFindNodeRequest;
  }
};

struct FindNodeResponse : sim::Message {
  std::vector<Contact> closer;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kFindNodeResponse;
  }
};

struct GetProvidersRequest : LookupRequestBase {
  using LookupRequestBase::LookupRequestBase;
  Key key;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kGetProvidersRequest;
  }
};

struct GetProvidersResponse : sim::Message {
  std::vector<ProviderRecord> providers;
  std::vector<Contact> closer;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kGetProvidersResponse;
  }
};

// "Fire and forget": the publisher does not wait for this to be answered
// (paper Section 3.1), though the protocol does define an ack.
struct AddProviderRequest : sim::Message {
  Key key;
  PeerRef provider;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kAddProviderRequest;
  }
};

struct PutValueRequest : sim::Message {
  Key key;
  ValueRecord record;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kPutValueRequest;
  }
};

struct GetValueRequest : LookupRequestBase {
  using LookupRequestBase::LookupRequestBase;
  Key key;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kGetValueRequest;
  }
};

struct GetValueResponse : sim::Message {
  std::optional<ValueRecord> record;
  std::vector<Contact> closer;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kGetValueResponse;
  }
};

// Crawler RPC (paper Section 4.1): the crawler asks a peer for all
// entries in its k-buckets. The real crawler recovers this with a sweep
// of per-bucket FIND_NODE queries; one RPC stands in for that sweep.
struct ListBucketsRequest : sim::Message {
  sim::MessageKind kind() const override {
    return sim::MessageKind::kListBucketsRequest;
  }
};

struct ListBucketsResponse : sim::Message {
  std::vector<Contact> peers;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kListBucketsResponse;
  }
};

// AutoNAT (paper Section 2.3): a joining peer asks others to dial back.
struct DialBackRequest : sim::Message {
  sim::MessageKind kind() const override {
    return sim::MessageKind::kDialBackRequest;
  }
};

struct DialBackResponse : sim::Message {
  bool reachable = false;
  sim::MessageKind kind() const override {
    return sim::MessageKind::kDialBackResponse;
  }
};

inline std::size_t response_size_for(std::size_t peer_refs,
                                     std::size_t payload = 0) {
  return kRequestBaseBytes + peer_refs * kPeerRefBytes + payload;
}

}  // namespace ipfs::dht

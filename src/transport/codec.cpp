#include "transport/codec.h"

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "bitswap/bitswap.h"
#include "dht/messages.h"
#include "indexer/messages.h"
#include "pubsub/pubsub.h"

namespace ipfs::transport {
namespace {

// Wire tags are sim::MessageKind values (sim/message_kind.h): the same
// constant a message reports via kind() is what goes on the wire, so
// encode dispatch is a switch instead of a dynamic_cast chain and the
// two layers cannot drift apart.
using Tag = sim::MessageKind;

// Upper bound on any single length prefix. Untrusted input can claim any
// u32; rejecting early keeps a hostile 4 GB claim from turning into an
// allocation, without constraining real traffic (blocks are ≤ 256 KiB).
constexpr std::uint32_t kMaxFieldBytes = 64u * 1024 * 1024;

class Writer {
 public:
  std::vector<std::uint8_t> take() { return std::move(out_); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void str(const std::string& text) {
    bytes({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
  }

  void key(const dht::Key& k) {
    out_.insert(out_.end(), k.bytes().begin(), k.bytes().end());
  }
  void peer_id(const multiformats::PeerId& id) { bytes(id.encode()); }
  void multiaddr(const multiformats::Multiaddr& addr) { bytes(addr.encode()); }
  void cid(const multiformats::Cid& c) { bytes(c.encode()); }

  void peer_ref(const dht::PeerRef& ref) {
    peer_id(ref.id);
    u32(ref.node);
    u32(static_cast<std::uint32_t>(ref.addresses.size()));
    for (const auto& addr : ref.addresses) multiaddr(addr);
  }
  void provider_record(const dht::ProviderRecord& record) {
    peer_ref(record.provider);
    i64(record.received_at);
  }
  void value_record(const dht::ValueRecord& record) {
    bytes(record.value);
    u64(record.sequence);
    i64(record.received_at);
  }
  void requester(const dht::LookupRequestBase& base) {
    peer_ref(*base.requester.peer());
    boolean(base.requester_is_server);
  }
  void contacts(const std::vector<dht::Contact>& list) {
    u32(static_cast<std::uint32_t>(list.size()));
    for (const auto& contact : list) peer_ref(*contact.peer());
  }
  void message_id(const pubsub::MessageId& id) {
    u32(id.origin);
    u64(id.seqno);
  }

 private:
  std::vector<std::uint8_t> out_;
};

// Bounds-checked reader: every accessor sets fail() and returns a
// default instead of walking past the buffer, so a decode of hostile
// bytes degrades to nullptr, never UB.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool fail() const { return fail_; }
  bool exhausted() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(fixed(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(fixed(4)); }
  std::uint64_t u64() { return fixed(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail_ = true;
    return v == 1;
  }

  std::span<const std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    if (fail_ || n > kMaxFieldBytes || !need(n)) return {};
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  std::string str() {
    const auto view = bytes();
    return {reinterpret_cast<const char*>(view.data()), view.size()};
  }

  // Length prefix of a repeated field. Each element occupies at least
  // `min_element_bytes` on the wire, so a claimed count larger than the
  // remaining buffer could ever hold is rejected before any allocation.
  std::uint32_t count(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (fail_) return 0;
    if (min_element_bytes > 0 &&
        n > (data_.size() - pos_) / min_element_bytes) {
      fail_ = true;
      return 0;
    }
    return n;
  }

  dht::Key key() {
    std::array<std::uint8_t, 32> raw{};
    if (!need(raw.size())) return dht::Key{};
    std::memcpy(raw.data(), data_.data() + pos_, raw.size());
    pos_ += raw.size();
    return dht::Key(raw);
  }
  multiformats::PeerId peer_id() {
    const auto view = bytes();
    auto hash = multiformats::Multihash::decode(view);
    if (!hash) {
      fail_ = true;
      return {};
    }
    return multiformats::PeerId(std::move(*hash));
  }
  multiformats::Multiaddr multiaddr() {
    const auto view = bytes();
    auto addr = multiformats::Multiaddr::decode(view);
    if (!addr) {
      fail_ = true;
      return {};
    }
    return std::move(*addr);
  }
  multiformats::Cid cid() {
    const auto view = bytes();
    auto parsed = multiformats::Cid::decode(view);
    if (!parsed) {
      fail_ = true;
      return {};
    }
    return std::move(*parsed);
  }

  dht::PeerRef peer_ref() {
    dht::PeerRef ref;
    ref.id = peer_id();
    ref.node = u32();
    const std::uint32_t n = count(4);
    for (std::uint32_t i = 0; i < n && !fail_; ++i)
      ref.addresses.push_back(multiaddr());
    return ref;
  }
  dht::ProviderRecord provider_record() {
    dht::ProviderRecord record;
    record.provider = peer_ref();
    record.received_at = i64();
    return record;
  }
  dht::ValueRecord value_record() {
    dht::ValueRecord record;
    const auto view = bytes();
    record.value.assign(view.begin(), view.end());
    record.sequence = u64();
    record.received_at = i64();
    return record;
  }
  // A decoded contact's key is derived here from the decoded id; keys
  // never come off the wire.
  dht::Contact contact() { return dht::Contact::of(peer_ref()); }
  void contacts(std::vector<dht::Contact>& out) {
    const std::uint32_t n = count(9);
    for (std::uint32_t i = 0; i < n && !fail_; ++i) out.push_back(contact());
  }
  // A lookup request, built from its requester header.
  template <typename Request>
  std::shared_ptr<Request> lookup_request() {
    dht::Contact requester = contact();
    const bool requester_is_server = boolean();
    return std::make_shared<Request>(std::move(requester),
                                     requester_is_server);
  }
  pubsub::MessageId message_id() {
    pubsub::MessageId id;
    id.origin = u32();
    id.seqno = u64();
    return id;
  }

 private:
  bool need(std::size_t n) {
    if (fail_ || data_.size() - pos_ < n) {
      fail_ = true;
      return false;
    }
    return true;
  }
  std::uint64_t fixed(int width) {
    if (!need(static_cast<std::size_t>(width))) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= std::uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

void encode_gossip_rpc(Writer& w, const pubsub::GossipRpc& rpc) {
  w.u32(static_cast<std::uint32_t>(rpc.subscriptions.size()));
  for (const auto& sub : rpc.subscriptions) {
    w.str(sub.topic);
    w.boolean(sub.subscribe);
  }
  w.boolean(rpc.announce_reply);
  w.u32(static_cast<std::uint32_t>(rpc.publish.size()));
  for (const auto& message : rpc.publish) {
    w.message_id(message.id);
    w.str(message.topic);
    w.bytes(message.data);
  }
  w.u32(static_cast<std::uint32_t>(rpc.ihave.size()));
  for (const auto& ihave : rpc.ihave) {
    w.str(ihave.topic);
    w.u32(static_cast<std::uint32_t>(ihave.ids.size()));
    for (const auto& id : ihave.ids) w.message_id(id);
  }
  w.u32(static_cast<std::uint32_t>(rpc.iwant.size()));
  for (const auto& iwant : rpc.iwant) {
    w.u32(static_cast<std::uint32_t>(iwant.ids.size()));
    for (const auto& id : iwant.ids) w.message_id(id);
  }
  w.u32(static_cast<std::uint32_t>(rpc.graft.size()));
  for (const auto& graft : rpc.graft) w.str(graft.topic);
  w.u32(static_cast<std::uint32_t>(rpc.prune.size()));
  for (const auto& prune : rpc.prune) {
    w.str(prune.topic);
    w.u32(static_cast<std::uint32_t>(prune.px.size()));
    for (const sim::NodeId peer : prune.px) w.u32(peer);
  }
}

sim::MessagePtr decode_gossip_rpc(Reader& r) {
  auto rpc = std::make_shared<pubsub::GossipRpc>();
  std::uint32_t n = r.count(5);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::SubOpts sub;
    sub.topic = r.str();
    sub.subscribe = r.boolean();
    rpc->subscriptions.push_back(std::move(sub));
  }
  rpc->announce_reply = r.boolean();
  n = r.count(20);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::PubsubMessage message;
    message.id = r.message_id();
    message.topic = r.str();
    const auto view = r.bytes();
    message.data.assign(view.begin(), view.end());
    rpc->publish.push_back(std::move(message));
  }
  n = r.count(8);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::ControlIHave ihave;
    ihave.topic = r.str();
    const std::uint32_t ids = r.count(12);
    for (std::uint32_t j = 0; j < ids && !r.fail(); ++j)
      ihave.ids.push_back(r.message_id());
    rpc->ihave.push_back(std::move(ihave));
  }
  n = r.count(4);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::ControlIWant iwant;
    const std::uint32_t ids = r.count(12);
    for (std::uint32_t j = 0; j < ids && !r.fail(); ++j)
      iwant.ids.push_back(r.message_id());
    rpc->iwant.push_back(std::move(iwant));
  }
  n = r.count(4);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::ControlGraft graft;
    graft.topic = r.str();
    rpc->graft.push_back(std::move(graft));
  }
  n = r.count(8);
  for (std::uint32_t i = 0; i < n && !r.fail(); ++i) {
    pubsub::ControlPrune prune;
    prune.topic = r.str();
    const std::uint32_t px = r.count(4);
    for (std::uint32_t j = 0; j < px && !r.fail(); ++j)
      prune.px.push_back(r.u32());
    rpc->prune.push_back(std::move(prune));
  }
  return rpc;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> encode_message(
    const sim::Message& message) {
  Writer w;
  const Tag tag = message.kind();
  w.u16(static_cast<std::uint16_t>(tag));
  switch (tag) {
    case Tag::kFindNodeRequest: {
      const auto& m = static_cast<const dht::FindNodeRequest&>(message);
      w.requester(m);
      w.key(m.target);
      break;
    }
    case Tag::kFindNodeResponse: {
      const auto& m = static_cast<const dht::FindNodeResponse&>(message);
      w.contacts(m.closer);
      break;
    }
    case Tag::kGetProvidersRequest: {
      const auto& m = static_cast<const dht::GetProvidersRequest&>(message);
      w.requester(m);
      w.key(m.key);
      break;
    }
    case Tag::kGetProvidersResponse: {
      const auto& m = static_cast<const dht::GetProvidersResponse&>(message);
      w.u32(static_cast<std::uint32_t>(m.providers.size()));
      for (const auto& record : m.providers) w.provider_record(record);
      w.contacts(m.closer);
      break;
    }
    case Tag::kAddProviderRequest: {
      const auto& m = static_cast<const dht::AddProviderRequest&>(message);
      w.key(m.key);
      w.peer_ref(m.provider);
      break;
    }
    case Tag::kPutValueRequest: {
      const auto& m = static_cast<const dht::PutValueRequest&>(message);
      w.key(m.key);
      w.value_record(m.record);
      break;
    }
    case Tag::kGetValueRequest: {
      const auto& m = static_cast<const dht::GetValueRequest&>(message);
      w.requester(m);
      w.key(m.key);
      break;
    }
    case Tag::kGetValueResponse: {
      const auto& m = static_cast<const dht::GetValueResponse&>(message);
      w.boolean(m.record.has_value());
      if (m.record) w.value_record(*m.record);
      w.contacts(m.closer);
      break;
    }
    case Tag::kListBucketsRequest:
      break;
    case Tag::kListBucketsResponse: {
      const auto& m = static_cast<const dht::ListBucketsResponse&>(message);
      w.contacts(m.peers);
      break;
    }
    case Tag::kDialBackRequest:
      break;
    case Tag::kDialBackResponse: {
      const auto& m = static_cast<const dht::DialBackResponse&>(message);
      w.boolean(m.reachable);
      break;
    }
    case Tag::kWantHaveRequest: {
      const auto& m = static_cast<const bitswap::WantHaveRequest&>(message);
      w.cid(m.cid);
      break;
    }
    case Tag::kHaveResponse: {
      const auto& m = static_cast<const bitswap::HaveResponse&>(message);
      w.boolean(m.have);
      break;
    }
    case Tag::kWantBlockRequest: {
      const auto& m = static_cast<const bitswap::WantBlockRequest&>(message);
      w.cid(m.cid);
      w.boolean(m.send_dont_have);
      break;
    }
    case Tag::kBlockResponse: {
      const auto& m = static_cast<const bitswap::BlockResponse&>(message);
      w.cid(m.cid);
      w.boolean(m.data != nullptr);
      if (m.data) w.bytes(*m.data);
      w.boolean(m.dont_have);
      break;
    }
    case Tag::kGossipRpc: {
      const auto& m = static_cast<const pubsub::GossipRpc&>(message);
      encode_gossip_rpc(w, m);
      break;
    }
    case Tag::kAdvertiseMessage: {
      const auto& m = static_cast<const indexer::AdvertiseMessage&>(message);
      w.key(m.key);
      w.peer_ref(m.provider);
      break;
    }
    case Tag::kQueryRequest: {
      const auto& m = static_cast<const indexer::QueryRequest&>(message);
      w.key(m.key);
      break;
    }
    case Tag::kQueryResponse: {
      const auto& m = static_cast<const indexer::QueryResponse&>(message);
      w.u32(static_cast<std::uint32_t>(m.providers.size()));
      for (const auto& record : m.providers) w.provider_record(record);
      break;
    }
    default:
      return std::nullopt;  // kUnknown or an unregistered message type
  }
  return w.take();
}

sim::MessagePtr decode_message(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const auto tag = static_cast<Tag>(r.u16());
  if (r.fail()) return nullptr;
  sim::MessagePtr out;
  switch (tag) {
    case Tag::kFindNodeRequest: {
      auto m = r.lookup_request<dht::FindNodeRequest>();
      m->target = r.key();
      out = std::move(m);
      break;
    }
    case Tag::kFindNodeResponse: {
      auto m = std::make_shared<dht::FindNodeResponse>();
      r.contacts(m->closer);
      out = std::move(m);
      break;
    }
    case Tag::kGetProvidersRequest: {
      auto m = r.lookup_request<dht::GetProvidersRequest>();
      m->key = r.key();
      out = std::move(m);
      break;
    }
    case Tag::kGetProvidersResponse: {
      auto m = std::make_shared<dht::GetProvidersResponse>();
      const std::uint32_t n = r.count(17);
      for (std::uint32_t i = 0; i < n && !r.fail(); ++i)
        m->providers.push_back(r.provider_record());
      r.contacts(m->closer);
      out = std::move(m);
      break;
    }
    case Tag::kAddProviderRequest: {
      auto m = std::make_shared<dht::AddProviderRequest>();
      m->key = r.key();
      m->provider = r.peer_ref();
      out = std::move(m);
      break;
    }
    case Tag::kPutValueRequest: {
      auto m = std::make_shared<dht::PutValueRequest>();
      m->key = r.key();
      m->record = r.value_record();
      out = std::move(m);
      break;
    }
    case Tag::kGetValueRequest: {
      auto m = r.lookup_request<dht::GetValueRequest>();
      m->key = r.key();
      out = std::move(m);
      break;
    }
    case Tag::kGetValueResponse: {
      auto m = std::make_shared<dht::GetValueResponse>();
      if (r.boolean()) m->record = r.value_record();
      r.contacts(m->closer);
      out = std::move(m);
      break;
    }
    case Tag::kListBucketsRequest:
      out = std::make_shared<dht::ListBucketsRequest>();
      break;
    case Tag::kListBucketsResponse: {
      auto m = std::make_shared<dht::ListBucketsResponse>();
      r.contacts(m->peers);
      out = std::move(m);
      break;
    }
    case Tag::kDialBackRequest:
      out = std::make_shared<dht::DialBackRequest>();
      break;
    case Tag::kDialBackResponse: {
      auto m = std::make_shared<dht::DialBackResponse>();
      m->reachable = r.boolean();
      out = std::move(m);
      break;
    }
    case Tag::kWantHaveRequest: {
      auto m = std::make_shared<bitswap::WantHaveRequest>();
      m->cid = r.cid();
      out = std::move(m);
      break;
    }
    case Tag::kHaveResponse: {
      auto m = std::make_shared<bitswap::HaveResponse>();
      m->have = r.boolean();
      out = std::move(m);
      break;
    }
    case Tag::kWantBlockRequest: {
      auto m = std::make_shared<bitswap::WantBlockRequest>();
      m->cid = r.cid();
      m->send_dont_have = r.boolean();
      out = std::move(m);
      break;
    }
    case Tag::kBlockResponse: {
      auto m = std::make_shared<bitswap::BlockResponse>();
      m->cid = r.cid();
      if (r.boolean()) {
        const auto view = r.bytes();
        m->data = std::make_shared<const std::vector<std::uint8_t>>(
            view.begin(), view.end());
      }
      m->dont_have = r.boolean();
      out = std::move(m);
      break;
    }
    case Tag::kGossipRpc:
      out = decode_gossip_rpc(r);
      break;
    case Tag::kAdvertiseMessage: {
      auto m = std::make_shared<indexer::AdvertiseMessage>();
      m->key = r.key();
      m->provider = r.peer_ref();
      out = std::move(m);
      break;
    }
    case Tag::kQueryRequest: {
      auto m = std::make_shared<indexer::QueryRequest>();
      m->key = r.key();
      out = std::move(m);
      break;
    }
    case Tag::kQueryResponse: {
      auto m = std::make_shared<indexer::QueryResponse>();
      const std::uint32_t n = r.count(17);
      for (std::uint32_t i = 0; i < n && !r.fail(); ++i)
        m->providers.push_back(r.provider_record());
      out = std::move(m);
      break;
    }
    default:
      return nullptr;
  }
  // Reject partial parses and trailing garbage alike: an encoded message
  // occupies the payload exactly.
  if (r.fail() || !r.exhausted()) return nullptr;
  return out;
}

}  // namespace ipfs::transport

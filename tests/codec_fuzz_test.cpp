// Seeded round-trip fuzz for the transport wire codec (ISSUE 8
// satellite): every protocol message type survives encode -> decode ->
// encode byte-identically, and truncated / mutated / garbage buffers are
// rejected without UB (the fuzz-smoke-asan CI job runs this binary under
// AddressSanitizer).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "bitswap/bitswap.h"
#include "dht/key.h"
#include "dht/messages.h"
#include "indexer/messages.h"
#include "multiformats/cid.h"
#include "pubsub/pubsub.h"
#include "scenario/scenario.h"
#include "transport/codec.h"

namespace ipfs {
namespace {

using transport::decode_message;
using transport::encode_message;

class Fuzz {
 public:
  explicit Fuzz(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t u64() { return rng_(); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(rng_()); }
  bool boolean() { return (rng_() & 1) != 0; }
  std::size_t index(std::size_t bound) { return rng_() % bound; }

  std::vector<std::uint8_t> bytes(std::size_t max_len) {
    std::vector<std::uint8_t> out(index(max_len + 1));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng_());
    return out;
  }

  dht::Key key() {
    std::array<std::uint8_t, 32> raw{};
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng_());
    return dht::Key(raw);
  }

  multiformats::Cid cid() {
    const auto data = bytes(64);
    return multiformats::Cid::from_data(multiformats::Multicodec::kRaw, data);
  }

  dht::PeerRef peer_ref() {
    dht::PeerRef ref;
    const std::uint32_t n = u32() % 100000;
    ref.id = scenario::synthetic_peer_id(n);
    ref.node = static_cast<sim::NodeId>(n);
    const std::size_t addresses = index(3);
    for (std::size_t i = 0; i < addresses; ++i) {
      ref.addresses.push_back(scenario::synthetic_address(u32() % 100000));
    }
    return ref;
  }

  dht::Contact contact() { return dht::Contact::of(peer_ref()); }

  std::vector<dht::Contact> contacts(std::size_t max) {
    const std::size_t n = index(max + 1);
    std::vector<dht::Contact> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(contact());
    return out;
  }

  // A lookup request with a random requester header. The draws happen in
  // wire order: requester, server flag.
  template <typename Request>
  std::shared_ptr<Request> lookup_request() {
    dht::Contact requester = contact();
    const bool requester_is_server = boolean();
    return std::make_shared<Request>(std::move(requester),
                                     requester_is_server);
  }

  dht::ProviderRecord provider_record() {
    dht::ProviderRecord record;
    record.provider = peer_ref();
    record.received_at = static_cast<sim::Time>(u64() % (1ull << 50));
    return record;
  }

  dht::ValueRecord value_record() {
    dht::ValueRecord record;
    record.value = bytes(128);
    record.sequence = u64();
    record.received_at = static_cast<sim::Time>(u64() % (1ull << 50));
    return record;
  }

  pubsub::MessageId message_id() {
    return pubsub::MessageId{static_cast<sim::NodeId>(u32() % 100000), u64()};
  }

 private:
  std::mt19937_64 rng_;
};

// One randomized instance of every wire message type, cycled by `pick`.
sim::MessagePtr make_message(Fuzz& fuzz, std::size_t pick) {
  switch (pick % 20) {
    case 0: {
      auto m = fuzz.lookup_request<dht::FindNodeRequest>();
      m->target = fuzz.key();
      return m;
    }
    case 1: {
      auto m = std::make_shared<dht::FindNodeResponse>();
      m->closer = fuzz.contacts(20);
      return m;
    }
    case 2: {
      auto m = fuzz.lookup_request<dht::GetProvidersRequest>();
      m->key = fuzz.key();
      return m;
    }
    case 3: {
      auto m = std::make_shared<dht::GetProvidersResponse>();
      const std::size_t providers = fuzz.index(6);
      for (std::size_t i = 0; i < providers; ++i) {
        m->providers.push_back(fuzz.provider_record());
      }
      m->closer = fuzz.contacts(20);
      return m;
    }
    case 4: {
      auto m = std::make_shared<dht::AddProviderRequest>();
      m->key = fuzz.key();
      m->provider = fuzz.peer_ref();
      return m;
    }
    case 5: {
      auto m = std::make_shared<dht::PutValueRequest>();
      m->key = fuzz.key();
      m->record = fuzz.value_record();
      return m;
    }
    case 6: {
      auto m = fuzz.lookup_request<dht::GetValueRequest>();
      m->key = fuzz.key();
      return m;
    }
    case 7: {
      auto m = std::make_shared<dht::GetValueResponse>();
      if (fuzz.boolean()) m->record = fuzz.value_record();
      m->closer = fuzz.contacts(20);
      return m;
    }
    case 8:
      return std::make_shared<dht::ListBucketsRequest>();
    case 9: {
      auto m = std::make_shared<dht::ListBucketsResponse>();
      m->peers = fuzz.contacts(40);
      return m;
    }
    case 10:
      return std::make_shared<dht::DialBackRequest>();
    case 11: {
      auto m = std::make_shared<dht::DialBackResponse>();
      m->reachable = fuzz.boolean();
      return m;
    }
    case 12: {
      auto m = std::make_shared<bitswap::WantHaveRequest>();
      m->cid = fuzz.cid();
      return m;
    }
    case 13: {
      auto m = std::make_shared<bitswap::HaveResponse>();
      m->have = fuzz.boolean();
      return m;
    }
    case 14: {
      auto m = std::make_shared<bitswap::WantBlockRequest>();
      m->cid = fuzz.cid();
      m->send_dont_have = fuzz.boolean();
      return m;
    }
    case 15: {
      auto m = std::make_shared<bitswap::BlockResponse>();
      m->cid = fuzz.cid();
      if (fuzz.boolean()) {
        auto data = fuzz.bytes(512);
        m->cid = multiformats::Cid::from_data(
            multiformats::Multicodec::kRaw, data);
        m->data = std::make_shared<const std::vector<std::uint8_t>>(
            std::move(data));
      } else {
        m->dont_have = fuzz.boolean();
      }
      return m;
    }
    case 16: {
      auto m = std::make_shared<pubsub::GossipRpc>();
      const std::size_t subs = fuzz.index(3);
      for (std::size_t i = 0; i < subs; ++i) {
        m->subscriptions.push_back(
            pubsub::SubOpts{"topic-" + std::to_string(fuzz.index(5)),
                            fuzz.boolean()});
      }
      m->announce_reply = fuzz.boolean();
      const std::size_t publish = fuzz.index(3);
      for (std::size_t i = 0; i < publish; ++i) {
        pubsub::PubsubMessage message;
        message.id = fuzz.message_id();
        message.topic = "topic-" + std::to_string(fuzz.index(5));
        message.data = fuzz.bytes(256);
        m->publish.push_back(std::move(message));
      }
      if (fuzz.boolean()) {
        pubsub::ControlIHave ihave;
        ihave.topic = "t";
        const std::size_t ids = fuzz.index(6);
        for (std::size_t i = 0; i < ids; ++i) {
          ihave.ids.push_back(fuzz.message_id());
        }
        m->ihave.push_back(std::move(ihave));
      }
      if (fuzz.boolean()) {
        pubsub::ControlIWant iwant;
        const std::size_t ids = fuzz.index(6);
        for (std::size_t i = 0; i < ids; ++i) {
          iwant.ids.push_back(fuzz.message_id());
        }
        m->iwant.push_back(std::move(iwant));
      }
      if (fuzz.boolean()) {
        m->graft.push_back(pubsub::ControlGraft{"t"});
      }
      if (fuzz.boolean()) {
        pubsub::ControlPrune prune;
        prune.topic = "t";
        const std::size_t px = fuzz.index(6);
        for (std::size_t i = 0; i < px; ++i) {
          prune.px.push_back(static_cast<sim::NodeId>(fuzz.u32() % 100000));
        }
        m->prune.push_back(std::move(prune));
      }
      return m;
    }
    case 17: {
      auto m = std::make_shared<indexer::AdvertiseMessage>();
      m->key = fuzz.key();
      m->provider = fuzz.peer_ref();
      return m;
    }
    case 18: {
      auto m = std::make_shared<indexer::QueryRequest>();
      m->key = fuzz.key();
      return m;
    }
    default: {
      auto m = std::make_shared<indexer::QueryResponse>();
      const std::size_t providers = fuzz.index(6);
      for (std::size_t i = 0; i < providers; ++i) {
        m->providers.push_back(fuzz.provider_record());
      }
      return m;
    }
  }
}

// encode -> decode -> encode is the identity on bytes for every type.
// (Byte-level comparison of the re-encoding checks every field without
// needing operator== on the message structs.)
TEST(CodecFuzzTest, RoundTripIsByteIdentity) {
  Fuzz fuzz(20260809);
  for (std::size_t i = 0; i < 400; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    const auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value()) << "type " << i % 20;
    const sim::MessagePtr decoded = decode_message(*encoded);
    ASSERT_NE(decoded, nullptr) << "type " << i % 20;
    const auto re_encoded = encode_message(*decoded);
    ASSERT_TRUE(re_encoded.has_value()) << "type " << i % 20;
    EXPECT_EQ(*encoded, *re_encoded) << "type " << i % 20;
  }
}

// Spot-check decoded field values (byte identity alone would also pass
// for a codec that scrambled fields symmetrically).
TEST(CodecFuzzTest, DecodedFieldsMatch) {
  Fuzz fuzz(7);
  auto request = std::make_shared<dht::GetProvidersRequest>(
      fuzz.contact(), /*requester_is_server=*/true);
  request->key = fuzz.key();
  const auto encoded = encode_message(*request);
  ASSERT_TRUE(encoded.has_value());
  const auto decoded = std::dynamic_pointer_cast<const dht::GetProvidersRequest>(
      decode_message(*encoded));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->key.bytes(), request->key.bytes());
  EXPECT_TRUE(decoded->requester_is_server);
  EXPECT_EQ(decoded->requester.peer()->id, request->requester.peer()->id);
  EXPECT_EQ(decoded->requester.peer()->node,
            request->requester.peer()->node);
  EXPECT_EQ(decoded->requester.peer()->addresses.size(),
            request->requester.peer()->addresses.size());

  auto response = std::make_shared<bitswap::BlockResponse>();
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  response->cid =
      multiformats::Cid::from_data(multiformats::Multicodec::kRaw, payload);
  response->data =
      std::make_shared<const std::vector<std::uint8_t>>(payload);
  const auto encoded_block = encode_message(*response);
  ASSERT_TRUE(encoded_block.has_value());
  const auto decoded_block =
      std::dynamic_pointer_cast<const bitswap::BlockResponse>(
          decode_message(*encoded_block));
  ASSERT_NE(decoded_block, nullptr);
  ASSERT_TRUE(decoded_block->data != nullptr);
  EXPECT_EQ(*decoded_block->data, payload);
  EXPECT_EQ(decoded_block->cid.encode(), response->cid.encode());
  EXPECT_FALSE(decoded_block->dont_have);
}

// A message type the codec does not know is reported, not mis-encoded.
// Every contact a decode produces carries the key derived from its
// decoded id, and the PeerRef behind it matches the one sent: the four
// contact-list answers and a lookup request's requester.
void expect_contacts_match(const std::vector<dht::Contact>& sent,
                           const std::vector<dht::Contact>& decoded) {
  ASSERT_EQ(decoded.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const dht::PeerRef& peer = *decoded[i].peer();
    EXPECT_EQ(decoded[i].key(), dht::Key::for_peer(peer.id));
    EXPECT_EQ(decoded[i].key(), sent[i].key());
    EXPECT_EQ(peer.id, sent[i].peer()->id);
    EXPECT_EQ(peer.node, sent[i].peer()->node);
    EXPECT_EQ(peer.addresses, sent[i].peer()->addresses);
  }
}

template <typename Message>
std::shared_ptr<const Message> round_trip(const Message& message) {
  const auto encoded = encode_message(message);
  EXPECT_TRUE(encoded.has_value());
  if (!encoded) return nullptr;
  return std::dynamic_pointer_cast<const Message>(decode_message(*encoded));
}

TEST(CodecFuzzTest, DecodedContactsCarryDerivedKeys) {
  Fuzz fuzz(23);
  for (int round = 0; round < 20; ++round) {
    auto find_node = std::make_shared<dht::FindNodeResponse>();
    find_node->closer = fuzz.contacts(20);
    const auto find_node_back = round_trip(*find_node);
    ASSERT_NE(find_node_back, nullptr);
    expect_contacts_match(find_node->closer, find_node_back->closer);

    auto providers = std::make_shared<dht::GetProvidersResponse>();
    providers->providers.push_back(fuzz.provider_record());
    providers->closer = fuzz.contacts(20);
    const auto providers_back = round_trip(*providers);
    ASSERT_NE(providers_back, nullptr);
    expect_contacts_match(providers->closer, providers_back->closer);

    auto value = std::make_shared<dht::GetValueResponse>();
    value->record = fuzz.value_record();
    value->closer = fuzz.contacts(20);
    const auto value_back = round_trip(*value);
    ASSERT_NE(value_back, nullptr);
    expect_contacts_match(value->closer, value_back->closer);

    auto buckets = std::make_shared<dht::ListBucketsResponse>();
    buckets->peers = fuzz.contacts(40);
    const auto buckets_back = round_trip(*buckets);
    ASSERT_NE(buckets_back, nullptr);
    expect_contacts_match(buckets->peers, buckets_back->peers);

    auto request = fuzz.lookup_request<dht::FindNodeRequest>();
    request->target = fuzz.key();
    const auto request_back = round_trip(*request);
    ASSERT_NE(request_back, nullptr);
    expect_contacts_match({request->requester}, {request_back->requester});
    EXPECT_EQ(request_back->requester_is_server,
              request->requester_is_server);
  }
}

TEST(CodecFuzzTest, UnknownTypeIsRejected) {
  struct LocalMessage : sim::Message {};
  EXPECT_FALSE(encode_message(LocalMessage{}).has_value());
}

// Every strict prefix of a valid encoding is rejected: all fields are
// fixed-width or length-prefixed, so truncation always leaves a declared
// length unsatisfied.
TEST(CodecFuzzTest, TruncationIsRejected) {
  Fuzz fuzz(99);
  for (std::size_t i = 0; i < 60; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    const auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    for (std::size_t len = 0; len < encoded->size(); ++len) {
      const std::span<const std::uint8_t> prefix(encoded->data(), len);
      EXPECT_EQ(decode_message(prefix), nullptr)
          << "type " << i % 20 << " prefix " << len << "/" << encoded->size();
    }
  }
}

// Appending trailing bytes to a valid encoding is rejected (decode must
// consume the payload exactly).
TEST(CodecFuzzTest, TrailingGarbageIsRejected) {
  Fuzz fuzz(123);
  for (std::size_t i = 0; i < 60; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    encoded->push_back(0);
    EXPECT_EQ(decode_message(*encoded), nullptr) << "type " << i % 20;
  }
}

// Random byte soup and bit-flipped encodings never crash the decoder
// (ASan keeps this honest); anything it does accept must re-encode.
TEST(CodecFuzzTest, GarbageAndMutationsAreSafe) {
  Fuzz fuzz(31337);
  for (std::size_t i = 0; i < 500; ++i) {
    const auto garbage = fuzz.bytes(512);
    const sim::MessagePtr decoded = decode_message(garbage);
    if (decoded != nullptr) {
      EXPECT_TRUE(encode_message(*decoded).has_value());
    }
  }
  for (std::size_t i = 0; i < 500; ++i) {
    const sim::MessagePtr message = make_message(fuzz, i);
    auto encoded = encode_message(*message);
    ASSERT_TRUE(encoded.has_value());
    if (encoded->empty()) continue;
    (*encoded)[fuzz.index(encoded->size())] ^=
        static_cast<std::uint8_t>(1u << fuzz.index(8));
    const sim::MessagePtr decoded = decode_message(*encoded);
    if (decoded != nullptr) {
      EXPECT_TRUE(encode_message(*decoded).has_value());
    }
  }
}

}  // namespace
}  // namespace ipfs

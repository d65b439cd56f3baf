// Kademlia routing table with the paper's parameters: i = 256 buckets of
// k = 20 peers, bucket index chosen by the common prefix length between
// the local key and the peer's key (Section 2.3).
//
// Storage is built for 100k-node worlds: buckets are kept sparsely (only
// ~log2(n) of the 256 possible prefix lengths are ever occupied, so empty
// buckets cost nothing), each bucket is a contiguous vector rather than a
// linked list, and closest() reuses a scratch buffer so steady-state
// lookups allocate only their result vector. An entry is a Contact, 48
// bytes: the peer's key plus a handle to one immutable PeerRef, which
// every table that knows the peer shares (world seeding hands out each
// node's self contact; lookups and requesters pass the handle they were
// given), so filling a table or answering from it copies no addresses.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dht/key.h"
#include "dht/messages.h"

namespace ipfs::dht {

constexpr std::size_t kBucketSize = 20;   // k
constexpr std::size_t kBucketCount = 256; // i

class RoutingTable {
 public:
  // `diversity_cap` bounds how many entries of any one bucket may share a
  // /16 IPv4 prefix (Henningsen et al.'s Sybil defense: one operator's
  // address block cannot monopolize a bucket). 0 disables the check and
  // keeps the table bit-identical to the uncapped behavior.
  explicit RoutingTable(Key local_key, std::size_t diversity_cap = 0);

  // Inserts or refreshes a peer. Full buckets reject newcomers (original
  // Kademlia bias towards long-lived peers, which the paper's churn data
  // justifies). Returns true if the peer is (now) in the table. A new
  // entry shares `contact`'s handle; a refresh takes it only when the
  // peer's node or addresses changed.
  bool upsert(const Contact& contact);

  // Fills an empty table in one pass: the result (entries, order and
  // diversity_rejections()) equals upserting `contacts` in order, with
  // the same k and diversity limits, and each bucket is sized once. Keys
  // must be distinct.
  void bulk_load(std::vector<Contact> contacts);

  // Every entry, bucket by bucket in insertion order; the handles are
  // shared, not copied. This is the crawler surface (the paper's crawler
  // asks peers for all entries in their k-buckets, Section 4.1), and
  // feeding it to bulk_load() rebuilds the same table (e.g. under a new
  // cap).
  std::vector<Contact> contacts() const;

  void remove(const Contact& contact);
  bool contains(const multiformats::PeerId& peer) const;

  // Up to `count` peers closest to `target` by XOR distance.
  std::vector<Contact> closest(const Key& target, std::size_t count) const;

  std::size_t size() const { return size_; }
  std::size_t bucket_size(std::size_t index) const;

  const Key& local_key() const { return local_key_; }

  std::size_t diversity_cap() const { return diversity_cap_; }

  // Newcomers rejected because their /16 prefix already held `cap`
  // entries in the target bucket. Observability for the Sybil defense.
  std::uint64_t diversity_rejections() const { return diversity_rejections_; }

  // The /16 IPv4 prefix used as the diversity class, if the peer carries
  // an ip4 address. Address-less peers are exempt from the cap (they
  // cannot be classified, and the simulator's synthetic peers always
  // carry one).
  static std::optional<std::uint16_t> diversity_class(const PeerRef& peer);

 private:
  // One occupied bucket; buckets_ holds them sorted by index, so lookup
  // is a binary search over the handful of occupied prefix lengths.
  struct Bucket {
    std::uint16_t index;
    std::vector<Contact> entries;
  };

  std::size_t bucket_index(const Key& key) const;
  const Bucket* find_bucket(std::size_t index) const;
  Bucket& ensure_bucket(std::size_t index);
  // The k limit and the diversity cap for a newcomer to `entries`;
  // counts a diversity rejection.
  bool admits(const std::vector<Contact>& entries, const PeerRef& peer);

  Key local_key_;
  std::vector<Bucket> buckets_;  // sorted by Bucket::index
  std::size_t size_ = 0;
  std::size_t diversity_cap_ = 0;
  std::uint64_t diversity_rejections_ = 0;

  struct Candidate {
    std::array<std::uint8_t, 32> distance;
    const Contact* contact;
  };
  mutable std::vector<Candidate> scratch_;  // closest() workspace
};

}  // namespace ipfs::dht

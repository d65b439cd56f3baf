#include "dht/routing_table.h"

#include <algorithm>
#include <cassert>

namespace ipfs::dht {

RoutingTable::RoutingTable(Key local_key, std::size_t diversity_cap)
    : local_key_(std::move(local_key)), diversity_cap_(diversity_cap) {}

std::optional<std::uint16_t> RoutingTable::diversity_class(
    const PeerRef& peer) {
  for (const auto& address : peer.addresses) {
    const auto ip4 =
        address.value_for(multiformats::MultiaddrProtocol::kIp4);
    if (ip4 && ip4->size() == 4)
      return static_cast<std::uint16_t>(((*ip4)[0] << 8) | (*ip4)[1]);
  }
  return std::nullopt;
}

std::size_t RoutingTable::bucket_index(const Key& key) const {
  const int cpl = local_key_.common_prefix_len(key);
  // cpl == 256 means key == local key; it never enters the table.
  return std::min<std::size_t>(cpl, kBucketCount - 1);
}

const RoutingTable::Bucket* RoutingTable::find_bucket(
    std::size_t index) const {
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const Bucket& bucket, std::size_t i) { return bucket.index < i; });
  if (it == buckets_.end() || it->index != index) return nullptr;
  return &*it;
}

RoutingTable::Bucket& RoutingTable::ensure_bucket(std::size_t index) {
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const Bucket& bucket, std::size_t i) { return bucket.index < i; });
  if (it == buckets_.end() || it->index != index)
    it = buckets_.insert(it, Bucket{static_cast<std::uint16_t>(index), {}});
  return *it;
}

bool RoutingTable::admits(const std::vector<Contact>& entries,
                          const PeerRef& peer) {
  if (entries.size() >= kBucketSize) return false;
  if (diversity_cap_ > 0) {
    if (const auto prefix = diversity_class(peer)) {
      std::size_t shared = 0;
      for (const Contact& entry : entries)
        if (diversity_class(*entry.peer()) == prefix) ++shared;
      if (shared >= diversity_cap_) {
        ++diversity_rejections_;
        return false;
      }
    }
  }
  return true;
}

bool RoutingTable::upsert(const Contact& contact) {
  const Key& key = contact.key();
  if (key == local_key_) return false;
  Bucket& bucket = ensure_bucket(bucket_index(key));
  auto& entries = bucket.entries;

  // Dedup on the key (SHA-256 of the PeerID, injective over ids): an
  // inline 32-byte compare instead of chasing the id's digest buffer.
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const Contact& entry) {
                                 return entry.key() == key;
                               });
  const PeerRef& peer = *contact.peer();
  if (it != entries.end()) {
    // Refresh: move to the tail (most recently seen) and take the new
    // handle if the peer moved. PeerRef::operator== compares ids only.
    const PeerRef& held = *it->peer();
    if (held.node != peer.node || held.addresses != peer.addresses)
      *it = contact;
    std::rotate(it, it + 1, entries.end());
    return true;
  }

  if (!admits(entries, peer)) return false;
  entries.push_back(contact);
  ++size_;
  return true;
}

void RoutingTable::bulk_load(std::vector<Contact> contacts) {
  assert(buckets_.empty() && "bulk_load() fills an empty table");
  // Count once per bucket index, then create every occupied bucket in
  // index order, each reserved to its final size when nothing is capped.
  std::array<std::uint32_t, kBucketCount> counts{};
  for (const Contact& contact : contacts)
    if (contact.key() != local_key_) ++counts[bucket_index(contact.key())];
  std::array<std::uint16_t, kBucketCount> slot{};
  for (std::size_t index = 0; index < kBucketCount; ++index) {
    if (counts[index] == 0) continue;
    slot[index] = static_cast<std::uint16_t>(buckets_.size());
    buckets_.push_back(Bucket{static_cast<std::uint16_t>(index), {}});
    buckets_.back().entries.reserve(
        std::min<std::size_t>(counts[index], kBucketSize));
  }

  for (Contact& contact : contacts) {
    if (contact.key() == local_key_) continue;
    auto& bucket = buckets_[slot[bucket_index(contact.key())]].entries;
    if (!admits(bucket, *contact.peer())) continue;
    bucket.push_back(std::move(contact));
    ++size_;
  }
}

std::vector<Contact> RoutingTable::contacts() const {
  std::vector<Contact> out;
  out.reserve(size_);
  for (const auto& bucket : buckets_)
    out.insert(out.end(), bucket.entries.begin(), bucket.entries.end());
  return out;
}

void RoutingTable::remove(const Contact& contact) {
  const std::size_t index = bucket_index(contact.key());
  const auto bucket_it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const Bucket& bucket, std::size_t i) { return bucket.index < i; });
  if (bucket_it == buckets_.end() || bucket_it->index != index) return;
  auto& entries = bucket_it->entries;
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const Contact& entry) {
                                 return entry.key() == contact.key();
                               });
  if (it != entries.end()) {
    entries.erase(it);
    --size_;
    if (entries.empty()) buckets_.erase(bucket_it);
  }
}

bool RoutingTable::contains(const multiformats::PeerId& peer) const {
  const Key key = Key::for_peer(peer);
  const Bucket* bucket = find_bucket(bucket_index(key));
  if (bucket == nullptr) return false;
  return std::any_of(
      bucket->entries.begin(), bucket->entries.end(),
      [&](const Contact& entry) { return entry.key() == key; });
}

std::size_t RoutingTable::bucket_size(std::size_t index) const {
  const Bucket* bucket = find_bucket(index);
  return bucket == nullptr ? 0 : bucket->entries.size();
}

std::vector<Contact> RoutingTable::closest(const Key& target,
                                           std::size_t count) const {
  scratch_.clear();
  scratch_.reserve(size_);
  for (const auto& bucket : buckets_)
    for (const auto& entry : bucket.entries)
      scratch_.push_back({entry.key().distance_to(target), &entry});

  const std::size_t take = std::min(count, scratch_.size());
  std::partial_sort(scratch_.begin(), scratch_.begin() + take,
                    scratch_.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.distance < b.distance;
                    });
  std::vector<Contact> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(*scratch_[i].contact);
  return out;
}

}  // namespace ipfs::dht

#include "dht/lookup.h"

#include <algorithm>

namespace ipfs::dht {

namespace {

const char* lookup_span_name(LookupType type) {
  switch (type) {
    case LookupType::kFindNode:
      return "dht.lookup.find_node";
    case LookupType::kGetProviders:
      return "dht.lookup.get_providers";
    case LookupType::kGetValue:
      return "dht.lookup.get_value";
  }
  return "dht.lookup.find_node";
}

}  // namespace

std::shared_ptr<Lookup> Lookup::start(
    LookupHost host, LookupType type, Key target, std::vector<Contact> seeds,
    Callback cb, std::optional<multiformats::PeerId> target_peer) {
  auto lookup = std::shared_ptr<Lookup>(new Lookup(
      std::move(host), type, std::move(target), std::move(cb),
      std::move(target_peer)));
  lookup->started_at_ = lookup->host_.transport->now();
  lookup->span_ = lookup->host_.transport->metrics().begin_span(
      lookup_span_name(type), lookup->host_.transport->local(), {},
      lookup->host_.parent_span);
  lookup->deadline_timer_ = lookup->host_.transport->schedule_after(
      kLookupDeadline, [weak = std::weak_ptr<Lookup>(lookup)] {
        if (auto self = weak.lock()) self->finish(false);
      });
  for (const auto& seed : seeds) lookup->add_candidate(seed);
  if (lookup->candidates_.empty()) {
    lookup->finish(true);
  } else {
    lookup->pump();
  }
  return lookup;
}

Lookup::Lookup(LookupHost host, LookupType type, Key target, Callback cb,
               std::optional<multiformats::PeerId> target_peer)
    : host_(std::move(host)),
      type_(type),
      target_(std::move(target)),
      cb_(std::move(cb)),
      target_peer_(std::move(target_peer)) {}

void Lookup::add_candidate(const Contact& contact) {
  const PeerRef& peer = *contact.peer();
  if (peer.node == host_.transport->local()) return;
  const Key& key = contact.key();
  if (index_.contains(key)) return;
  const auto distance = key.distance_to(target_);
  index_.emplace(key, distance);
  candidates_.emplace(distance,
                      Candidate{contact, CandidateState::kUnqueried});

  // Early peer-discovery match: someone handed us the target's addresses.
  if (target_peer_ && peer.id == *target_peer_) {
    result_.target_peer = peer;
  }
}

bool Lookup::should_terminate() const {
  if (type_ == LookupType::kGetProviders &&
      result_.providers.size() >= std::max<std::size_t>(
                                      host_.provider_quorum, 1))
    return true;
  if (type_ == LookupType::kGetValue &&
      result_.values.size() >= kValueQuorum)
    return true;
  if (target_peer_ && result_.target_peer.has_value()) return true;

  // FindNode termination: the k closest non-failed candidates have all
  // responded (no closer unqueried or in-flight candidate remains).
  std::size_t seen = 0;
  for (const auto& [distance, candidate] : candidates_) {
    if (candidate.state == CandidateState::kFailed) continue;
    if (candidate.state != CandidateState::kResponded) return false;
    if (++seen >= kReplication) break;
  }
  return true;
}

void Lookup::pump() {
  if (finished_) return;
  if (should_terminate()) {
    // Any straggler queries are abandoned; their routing-table feedback
    // was best-effort anyway.
    finish(true);
    return;
  }

  for (auto& [distance, candidate] : candidates_) {
    if (in_flight_ >= kAlpha) break;
    if (candidate.state != CandidateState::kUnqueried) continue;
    candidate.state = CandidateState::kInFlight;
    ++in_flight_;
    query(candidate.contact.key());
  }

  // No queries possible and none in flight: candidate space exhausted.
  if (in_flight_ == 0) finish(true);
}

void Lookup::query(const Key& candidate_key) {
  const auto it = index_.find(candidate_key);
  const sim::NodeId node = candidates_.at(it->second).contact.peer()->node;
  auto self = shared_from_this();
  host_.transport->connect(node,
                           [self, candidate_key](bool ok, sim::Duration) {
                             self->on_dial_result(candidate_key, ok);
                           });
}

void Lookup::on_dial_result(const Key& candidate_key, bool ok) {
  if (finished_) return;
  const auto it = index_.find(candidate_key);
  Candidate& candidate = candidates_.at(it->second);
  if (!ok) {
    candidate.state = CandidateState::kFailed;
    --in_flight_;
    ++result_.dials_failed;
    host_.transport->metrics().counter("dht.lookup.dials_failed").inc();
    if (host_.on_peer_failed) host_.on_peer_failed(candidate.contact);
    pump();
    return;
  }

  sim::MessagePtr request;
  switch (type_) {
    case LookupType::kFindNode: {
      auto msg =
          std::make_shared<FindNodeRequest>(host_.self, host_.server_mode);
      msg->target = target_;
      request = std::move(msg);
      break;
    }
    case LookupType::kGetProviders: {
      auto msg = std::make_shared<GetProvidersRequest>(host_.self,
                                                       host_.server_mode);
      msg->key = target_;
      request = std::move(msg);
      break;
    }
    case LookupType::kGetValue: {
      auto msg =
          std::make_shared<GetValueRequest>(host_.self, host_.server_mode);
      msg->key = target_;
      request = std::move(msg);
      break;
    }
  }

  ++result_.rpcs_sent;
  host_.transport->metrics().counter("dht.lookup.rpcs_sent").inc();
  auto self = shared_from_this();
  host_.transport->request(
      candidate.contact.peer()->node, std::move(request), kRequestBaseBytes,
      kRpcTimeout,
      [self, candidate_key](sim::RpcStatus status,
                            const sim::MessagePtr& message) {
        self->on_response(candidate_key, status, message);
      });
}

void Lookup::on_response(const Key& candidate_key, sim::RpcStatus status,
                         const sim::MessagePtr& message) {
  if (finished_) return;
  const auto it = index_.find(candidate_key);
  Candidate& candidate = candidates_.at(it->second);
  --in_flight_;

  if (status != sim::RpcStatus::kOk) {
    candidate.state = CandidateState::kFailed;
    ++result_.rpcs_failed;
    host_.transport->metrics().counter("dht.lookup.rpcs_failed").inc();
    if (host_.on_peer_failed) host_.on_peer_failed(candidate.contact);
    pump();
    return;
  }

  candidate.state = CandidateState::kResponded;
  if (host_.on_peer_responded) host_.on_peer_responded(candidate.contact);

  // The answer's closer peers, read in place: `message` outlives this
  // call, and add_candidate() shares each handle it keeps.
  const std::vector<Contact>* closer = nullptr;
  if (const auto* find_node = dynamic_cast<const FindNodeResponse*>(
          message.get())) {
    closer = &find_node->closer;
  } else if (const auto* providers = dynamic_cast<const GetProvidersResponse*>(
                 message.get())) {
    closer = &providers->closer;
    for (const auto& record : providers->providers) {
      // Several resolvers replicate the same record; carrying duplicates
      // forward would skew retrieval's dial ordering (the same provider
      // dialed twice while a distinct fallback waits).
      const bool seen = std::any_of(
          result_.providers.begin(), result_.providers.end(),
          [&record](const ProviderRecord& have) {
            return have.provider.id == record.provider.id;
          });
      if (seen) {
        host_.transport->metrics()
            .counter("dht.lookup.duplicate_providers_dropped")
            .inc();
        continue;
      }
      result_.providers.push_back(record);
    }
  } else if (const auto* value = dynamic_cast<const GetValueResponse*>(
                 message.get())) {
    closer = &value->closer;
    if (value->record) {
      result_.values.push_back(*value->record);
      if (!result_.value || value->record->sequence > result_.value->sequence)
        result_.value = value->record;
    }
  }

  if (closer != nullptr)
    for (const Contact& contact : *closer) add_candidate(contact);
  pump();
}

void Lookup::abort() {
  if (finished_) return;
  finished_ = true;
  deadline_timer_.cancel();
  host_.transport->metrics().end_span(span_, false);
  // In-flight RPC callbacks see finished_ and return without effect.
}

void Lookup::finish(bool completed) {
  if (finished_) return;
  finished_ = true;
  deadline_timer_.cancel();
  result_.completed = completed;
  result_.elapsed = host_.transport->now() - started_at_;
  host_.transport->metrics().end_span(
      span_, completed, static_cast<std::uint64_t>(result_.rpcs_sent));

  // Assemble the closest responded set.
  for (const auto& [distance, candidate] : candidates_) {
    if (candidate.state != CandidateState::kResponded) continue;
    result_.closest.push_back(*candidate.contact.peer());
    if (result_.closest.size() >= kReplication) break;
  }
  cb_(std::move(result_));
}

}  // namespace ipfs::dht

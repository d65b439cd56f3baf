// Real-socket Transport backend: UDP datagrams on a poll(2) event loop.
//
// Where SimTransport delegates to the discrete-event fabric, this backend
// moves the same protocol messages between actual processes: each message
// is serialized with transport/codec.h and shipped as one UDP datagram
// with a fixed 22-byte frame header. A static peer table (add_peer) maps
// PeerAddr values to UDP endpoints — the multi-process examples/ipfsd
// cluster assigns node index i the address i, so the sim-era NodeId keeps
// working as the peer identity on the wire.
//
// Frame layout (little-endian):
//
//   [magic u32 "IPFS"][version u8][kind u8][from u32]
//   [request_id u64][payload_len u32][payload...]
//
// Kinds: datagram (send), request / response (request), and the
// connect / connect-ack / disconnect control frames backing the
// Transport connection surface. Payloads are codec encodings; control
// frames carry none. One message per datagram caps payloads at
// kMaxPayload (65,485 bytes). That is not enough for content: a block
// cut at the default 256 KiB chunk size does not fit, and such a send
// is dropped and only counted in transport.tx.dropped. Fragmentation and
// reassembly are not implemented yet.
//
// Event loop: the backend schedules on a member sim::Simulator clocked
// by wall time, the same event core the simulated backend runs on.
// Timers, RPC timeouts and dial timeouts are all events on it. No thread
// of its own: the owner drives it from one thread via poll_once() /
// run_for(), which wait in poll(2) for a datagram or the next event,
// dispatch what arrived, then run every event that is due. This keeps
// the backend steppable from tests (tests/transport_parity_test.cpp runs
// several instances in one process and round-robins their loops).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "transport/transport.h"

namespace ipfs::transport {

class SocketTransport final : public Transport {
 public:
  // Binds a UDP socket on bind_ip:port (port 0 picks an ephemeral port;
  // read it back with port()). Throws std::runtime_error when the socket
  // cannot be created or bound.
  SocketTransport(PeerAddr local, const std::string& bind_ip,
                  std::uint16_t port);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Registers `peer`'s UDP endpoint. Dials and sends to unregistered
  // peers fail (kUnreachable / dropped); inbound frames from unknown
  // peers auto-register the sender's source endpoint, so a cluster only
  // needs bootstrap entries to converge.
  void add_peer(PeerAddr peer, const std::string& ip, std::uint16_t port);

  // --- Event loop ---------------------------------------------------------

  // Waits up to `max_wait` for a readable socket or a due timer, then
  // drains every pending datagram and fires everything due. Returns true
  // when any datagram, timer, timeout or dial completion was processed.
  bool poll_once(sim::Duration max_wait);
  // Drives poll_once until `duration` wall time has elapsed.
  void run_for(sim::Duration duration);
  // True when nothing foreground is outstanding: no pending requests, no
  // in-flight dials, no non-daemon timers. (Daemon timers — periodic
  // maintenance — intentionally do not count, mirroring the simulator's
  // run-until-idle semantics.) Each pending request and dial group holds
  // a foreground timeout timer, so one count covers all three.
  bool idle() const { return events_.foreground_pending() == 0; }

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  // --- Transport interface ------------------------------------------------

  PeerAddr local() const override { return local_; }
  bool online() const override { return true; }
  sim::Time now() const override;
  Timer schedule_after(sim::Duration delay, std::function<void()> fn) override;
  Timer schedule_daemon_after(sim::Duration delay,
                              std::function<void()> fn) override;
  Timer schedule_daemon_at(sim::Time when, std::function<void()> fn) override;
  void connect(PeerAddr peer, sim::DialCallback cb) override;
  void disconnect(PeerAddr peer) override;
  bool connected(PeerAddr peer) const override;
  std::vector<PeerAddr> connections() const override;
  bool peer_dialable(PeerAddr peer) const override;
  int handshake_round_trips(PeerAddr peer) const override;
  void send(PeerAddr to, sim::MessagePtr message, std::size_t bytes) override;
  void request(PeerAddr to, sim::MessagePtr request, std::size_t request_bytes,
               sim::Duration timeout, sim::ResponseCallback cb) override;
  void set_request_handler(sim::RequestHandler handler) override;
  void set_message_handler(sim::MessageHandler handler) override;
  metrics::Registry& metrics() override { return metrics_; }

 private:
  struct Endpoint {
    std::uint32_t ip = 0;    // network byte order
    std::uint16_t port = 0;  // network byte order
  };
  struct PendingRequest {
    sim::ResponseCallback cb;
    Timer timeout;
  };
  struct PendingDial {
    sim::DialCallback cb;
    sim::Time started = 0;
  };
  // Dials queued to one peer share the timeout armed by the first one.
  struct DialGroup {
    std::vector<PendingDial> dials;
    Timer timeout;
  };

  void send_frame(std::uint8_t kind, PeerAddr to, std::uint64_t request_id,
                  const std::vector<std::uint8_t>& payload);
  void dispatch(const std::uint8_t* data, std::size_t len,
                const Endpoint& source);
  void complete_dials(PeerAddr peer, bool ok);

  PeerAddr local_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  metrics::Registry metrics_;

  std::map<PeerAddr, Endpoint> peers_;
  std::map<PeerAddr, bool> connected_;
  std::map<PeerAddr, DialGroup> dials_;
  std::map<std::uint64_t, PendingRequest> requests_;
  std::uint64_t next_request_id_ = 1;

  // Clocked by wall time: poll_once() runs it up to now(). Equal
  // deadlines fire in schedule order.
  sim::Simulator events_;

  sim::RequestHandler request_handler_;
  sim::MessageHandler message_handler_;
};

}  // namespace ipfs::transport

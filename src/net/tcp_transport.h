// TCP transport for the agent/collector protocol (docs/NETWIDE.md).
//
// Real sockets, loopback-or-LAN: the collector listens on 127.0.0.1 (or a
// given address), agents connect and stream length-prefixed frames
// (net/frame.h). Everything is non-blocking and single-threaded per
// endpoint — each endpoint's Tick()/Send()/Receive() must be called from one
// thread, but different endpoints can live on different threads (the TSan
// suite runs one thread per endpoint).
//
// Reliability split: TCP gives in-order bytes per connection, but
// connections die and processes restart, so the protocol layer (agent ack /
// resend, collector epoch tracking) still owns end-to-end reliability. The
// transport owns: frame reassembly + checksum validation per connection
// (garbage is skipped and counted, never delivered), connect with
// exponential backoff, and write buffering across partial sends.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"

namespace coco::net {

// Reassembles validated raw frames out of a byte stream. Like FrameReader
// but yields the frame's raw bytes (ready to hand to the protocol layer or
// forward) instead of a decoded struct.
class RawFrameReader {
 public:
  void Feed(const uint8_t* data, size_t len);
  bool Next(std::vector<uint8_t>* frame);
  uint64_t bad_bytes() const { return bad_bytes_; }

 private:
  std::vector<uint8_t> buffer_;
  std::deque<std::vector<uint8_t>> frames_;
  uint64_t bad_bytes_ = 0;
};

struct TcpStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_delivered = 0;
  uint64_t bad_bytes = 0;        // skipped during resync
  uint64_t connects = 0;         // successful (re)connects / accepts
  uint64_t disconnects = 0;
};

class TcpCollectorTransport : public CollectorTransport {
 public:
  // Binds and listens on address:port; port 0 picks an ephemeral port (read
  // it back via port()). Check ok() before use.
  explicit TcpCollectorTransport(uint16_t port = 0,
                                 const std::string& address = "127.0.0.1");
  ~TcpCollectorTransport() override;

  TcpCollectorTransport(const TcpCollectorTransport&) = delete;
  TcpCollectorTransport& operator=(const TcpCollectorTransport&) = delete;

  bool ok() const { return listen_fd_ >= 0; }
  uint16_t port() const { return port_; }

  bool Receive(std::vector<uint8_t>* frame) override;
  bool SendTo(uint32_t agent_id, const std::vector<uint8_t>& frame) override;
  void Tick() override;

  const TcpStats& stats() const { return stats_; }

 private:
  struct Connection {
    int fd = -1;
    RawFrameReader reader;
    std::vector<uint8_t> out;  // unsent bytes (partial writes)
    uint32_t agent_id = 0;     // learned from the first valid frame
    bool agent_known = false;
  };

  void AcceptPending();
  void ReadFrom(Connection* conn);
  void FlushTo(Connection* conn);
  void CloseConnection(size_t index);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::unordered_map<uint32_t, Connection*> by_agent_;
  std::deque<std::vector<uint8_t>> rx_;
  TcpStats stats_;
};

struct TcpAgentOptions {
  uint32_t backoff_initial_ms = 5;
  uint32_t backoff_max_ms = 500;
};

class TcpAgentTransport : public AgentTransport {
 public:
  using Options = TcpAgentOptions;

  TcpAgentTransport(const std::string& address, uint16_t port,
                    Options options = {});
  ~TcpAgentTransport() override;

  TcpAgentTransport(const TcpAgentTransport&) = delete;
  TcpAgentTransport& operator=(const TcpAgentTransport&) = delete;

  bool Send(const std::vector<uint8_t>& frame) override;
  bool Receive(std::vector<uint8_t>* frame) override;
  bool Connected() const override { return state_ == State::kConnected; }
  void Tick() override;

  const TcpStats& stats() const { return stats_; }
  uint32_t current_backoff_ms() const { return backoff_ms_; }

 private:
  enum class State { kDisconnected, kConnecting, kConnected };

  void StartConnect();
  void CheckConnecting();
  void Disconnect();
  void ReadSocket();
  void FlushSocket();
  static int64_t NowMs();

  std::string address_;
  uint16_t port_;
  Options options_;
  State state_ = State::kDisconnected;
  int fd_ = -1;
  int64_t next_connect_at_ms_ = 0;
  uint32_t backoff_ms_;
  RawFrameReader reader_;
  std::vector<uint8_t> out_;
  std::deque<std::vector<uint8_t>> rx_;
  TcpStats stats_;
};

}  // namespace coco::net

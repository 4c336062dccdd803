// The byte-stream transport of the distributed actor-learner topology. A
// ByteStream is a bidirectional, reliable, ordered byte pipe between the
// learner and one collector; the wire layer (wire.h) frames persist-encoded
// messages over it. There is one implementation, FdStream over one end of
// an AF_UNIX socketpair (EINTR-safe, poll-based timeouts). Fork-spawned
// collector processes and thread-spawned collectors (tests; no fork, so
// TSan sees the whole protocol) both use it. ByteStream stays virtual as
// the seam where tests can inject short writes, EINTR and half-frame peers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace miras::dist {

enum class RecvStatus : std::uint8_t {
  kData,     // one or more bytes were received
  kTimeout,  // no data within the timeout; the stream is still open
  kClosed,   // end-of-stream: the peer is gone and no bytes remain
};

struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  std::size_t bytes = 0;
};

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Sends all `size` bytes (blocking until written). Throws
  /// std::runtime_error when the peer is gone.
  virtual void send(const void* data, std::size_t size) = 0;

  /// Receives up to `max` bytes, waiting at most `timeout_ms` (0 = just
  /// poll). Returns kData with bytes > 0, kTimeout, or kClosed.
  virtual RecvResult recv_some(void* data, std::size_t max,
                               int timeout_ms) = 0;
};

/// ByteStream over one end of a connected socketpair. Owns and closes the
/// fd. Ignores SIGPIPE process-wide, so a send to a closed peer throws.
class FdStream final : public ByteStream {
 public:
  explicit FdStream(int fd);
  ~FdStream() override;

  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  void send(const void* data, std::size_t size) override;
  RecvResult recv_some(void* data, std::size_t max, int timeout_ms) override;

  /// Closes the fd early (e.g. the parent's copy of a child's end).
  void close_fd();

 private:
  int fd_;
};

/// Creates a connected AF_UNIX socketpair and wraps each end. first is
/// conventionally the learner end, second the collector end; after fork,
/// each process close_fd()s (or destroys) the end it does not use.
std::pair<std::unique_ptr<FdStream>, std::unique_ptr<FdStream>>
make_socketpair_streams();

}  // namespace miras::dist

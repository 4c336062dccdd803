#include "dist/transport.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/contracts.h"
#include "persist/frame_stream.h"

namespace miras::dist {

namespace {
[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("dist: ") + what + ": " +
                           std::strerror(errno));
}
}  // namespace

// ---------------------------------------------------------------- FdStream

FdStream::FdStream(int read_fd, int write_fd)
    : read_fd_(read_fd), write_fd_(write_fd) {
  MIRAS_EXPECTS(read_fd >= 0 && write_fd >= 0);
  // A collector dying mid-send must surface as an EPIPE error we can turn
  // into a respawn, not a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
}

FdStream::~FdStream() { close_fds(); }

void FdStream::close_fds() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  read_fd_ = -1;
  write_fd_ = -1;
}

void FdStream::send(const void* data, std::size_t size) {
  MIRAS_EXPECTS(write_fd_ >= 0);
  persist::write_all_fd(write_fd_, data, size);
}

RecvResult FdStream::recv_some(void* data, std::size_t max, int timeout_ms) {
  MIRAS_EXPECTS(read_fd_ >= 0);
  struct pollfd pfd;
  pfd.fd = read_fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;  // conservatively re-arm the full wait
      throw_errno("poll failed");
    }
    if (ready == 0) return {RecvStatus::kTimeout, 0};
    break;
  }
  const std::size_t n = persist::read_some_fd(read_fd_, data, max);
  if (n == 0) return {RecvStatus::kClosed, 0};
  return {RecvStatus::kData, n};
}

std::pair<std::unique_ptr<FdStream>, std::unique_ptr<FdStream>>
make_socketpair_streams() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw_errno("socketpair failed");
  return {std::make_unique<FdStream>(fds[0], fds[0]),
          std::make_unique<FdStream>(fds[1], fds[1])};
}

// ---------------------------------------------------------- LoopbackStream

LoopbackStream::LoopbackStream(std::shared_ptr<Channel> in,
                               std::shared_ptr<Channel> out)
    : in_(std::move(in)), out_(std::move(out)) {}

std::pair<std::unique_ptr<LoopbackStream>, std::unique_ptr<LoopbackStream>>
LoopbackStream::make_pair() {
  auto a_to_b = std::make_shared<Channel>();
  auto b_to_a = std::make_shared<Channel>();
  auto a = std::unique_ptr<LoopbackStream>(
      new LoopbackStream(b_to_a, a_to_b));
  auto b = std::unique_ptr<LoopbackStream>(
      new LoopbackStream(a_to_b, b_to_a));
  return {std::move(a), std::move(b)};
}

LoopbackStream::~LoopbackStream() {
  {
    std::lock_guard<std::mutex> lock(out_->mutex);
    out_->writer_alive = false;
  }
  out_->ready.notify_all();
  {
    std::lock_guard<std::mutex> lock(in_->mutex);
    in_->reader_alive = false;
  }
  in_->ready.notify_all();
}

void LoopbackStream::send(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  {
    std::lock_guard<std::mutex> lock(out_->mutex);
    if (!out_->reader_alive)
      throw std::runtime_error("dist: loopback peer is gone");
    out_->bytes.insert(out_->bytes.end(), bytes, bytes + size);
  }
  out_->ready.notify_all();
}

RecvResult LoopbackStream::recv_some(void* data, std::size_t max,
                                     int timeout_ms) {
  std::unique_lock<std::mutex> lock(in_->mutex);
  if (!in_->ready.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
        return !in_->bytes.empty() || !in_->writer_alive;
      })) {
    return {RecvStatus::kTimeout, 0};
  }
  if (in_->bytes.empty()) return {RecvStatus::kClosed, 0};
  const std::size_t n = std::min(max, in_->bytes.size());
  auto* dst = static_cast<std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = in_->bytes.front();
    in_->bytes.pop_front();
  }
  return {RecvStatus::kData, n};
}

std::size_t LoopbackStream::peer_unread_bytes() const {
  std::lock_guard<std::mutex> lock(out_->mutex);
  return out_->bytes.size();
}

}  // namespace miras::dist

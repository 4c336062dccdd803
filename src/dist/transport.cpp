#include "dist/transport.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

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

FdStream::FdStream(int fd) : fd_(fd) {
  MIRAS_EXPECTS(fd >= 0);
  // A collector dying mid-send must surface as an EPIPE error we can turn
  // into a respawn, not a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
}

FdStream::~FdStream() { close_fd(); }

void FdStream::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void FdStream::send(const void* data, std::size_t size) {
  MIRAS_EXPECTS(fd_ >= 0);
  persist::write_all_fd(fd_, data, size);
}

RecvResult FdStream::recv_some(void* data, std::size_t max, int timeout_ms) {
  MIRAS_EXPECTS(fd_ >= 0);
  struct pollfd pfd;
  pfd.fd = fd_;
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
  const std::size_t n = persist::read_some_fd(fd_, data, max);
  if (n == 0) return {RecvStatus::kClosed, 0};
  return {RecvStatus::kData, n};
}

std::pair<std::unique_ptr<FdStream>, std::unique_ptr<FdStream>>
make_socketpair_streams() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw_errno("socketpair failed");
  return {std::make_unique<FdStream>(fds[0]),
          std::make_unique<FdStream>(fds[1])};
}

}  // namespace miras::dist

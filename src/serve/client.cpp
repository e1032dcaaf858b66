#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "serve/socket_io.hpp"

namespace lapclique::serve {

namespace {
/// Per-attempt wait for the response line.
constexpr int kResponseTimeoutMs = 60000;
}  // namespace

Client::Client(int port, ClientOptions opt) : port_(port), opt_(opt) {
  if (opt_.max_attempts < 1) opt_.max_attempts = 1;
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

bool Client::ensure_connected() {
  if (fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      fd_ = fd;
      inbuf_.clear();
      return true;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return false;
  }
}

std::optional<std::string> Client::attempt(const std::string& line) {
  if (!ensure_connected()) return std::nullopt;
  std::string framed = line;
  framed.push_back('\n');
  const IoResult w = sock_write_all(fd_, framed.data(), framed.size());
  if (!w.ok) {
    disconnect();
    return std::nullopt;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kResponseTimeoutMs);
  for (;;) {
    const std::size_t pos = inbuf_.find('\n');
    if (pos != std::string::npos) {
      std::string response = inbuf_.substr(0, pos);
      inbuf_.erase(0, pos + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      disconnect();  // anything buffered is a truncated line — discard it
      return std::nullopt;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, static_cast<int>(left.count()) + 1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      disconnect();
      return std::nullopt;
    }
    if (pr == 0) continue;  // loop re-checks the deadline
    char chunk[4096];
    const IoResult r = sock_read(fd_, chunk, sizeof(chunk));
    if (!r.ok || r.n == 0) {
      // EOF/reset mid-line: whatever sits in inbuf_ is truncated — a retry
      // resends and reassembles from scratch, so no damaged bytes can ever
      // reach the caller.
      disconnect();
      return std::nullopt;
    }
    inbuf_.append(chunk, static_cast<std::size_t>(r.n));
  }
}

std::string Client::call(const std::string& request_line) {
  int backoff_ms = opt_.backoff_initial_ms;
  for (int tries = 0; tries < opt_.max_attempts; ++tries) {
    if (std::optional<std::string> response = attempt(request_line)) {
      return *response;
    }
    if (tries + 1 < opt_.max_attempts) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = backoff_ms * 2 < opt_.backoff_max_ms ? backoff_ms * 2
                                                        : opt_.backoff_max_ms;
    }
  }
  throw std::runtime_error("serve::Client: no response from 127.0.0.1:" +
                           std::to_string(port_) + " after " +
                           std::to_string(opt_.max_attempts) + " attempts");
}

}  // namespace lapclique::serve

#include "serve/protocol.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace st::serve {

namespace {

constexpr int kPollSliceMs = 100;

enum class IoStatus { kOk, kClosed, kError };

/// Read exactly `len` bytes into `out`, waiting in poll slices so a
/// stop request can interrupt an idle connection.
IoStatus read_exact(int fd, char* out, std::size_t len,
                    const std::atomic<bool>* stop) {
  std::size_t got = 0;
  while (got < len) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return IoStatus::kClosed;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, kPollSliceMs);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      return IoStatus::kError;
    }
    if (pr == 0) {
      continue;  // timeout slice; re-check stop
    }
    const ssize_t n = ::read(fd, out + got, len - got);
    if (n == 0) {
      return IoStatus::kClosed;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        continue;
      }
      return IoStatus::kError;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

}  // namespace

json::Value ok_response() {
  json::Value v = json::Value::object();
  v.set("ok", json::Value::boolean(true));
  return v;
}

json::Value error_response(std::string_view code, std::string_view message) {
  json::Value err = json::Value::object();
  err.set("code", code);
  err.set("message", message);
  json::Value v = json::Value::object();
  v.set("ok", json::Value::boolean(false));
  v.set("error", std::move(err));
  return v;
}

FrameReadResult read_frame(int fd, std::uint32_t max_bytes,
                           const std::atomic<bool>* stop) {
  FrameReadResult result;
  unsigned char header[4] = {0, 0, 0, 0};
  switch (read_exact(fd, reinterpret_cast<char*>(header), sizeof(header),
                     stop)) {
    case IoStatus::kClosed:
      result.status = FrameStatus::kClosed;
      return result;
    case IoStatus::kError:
      result.status = FrameStatus::kError;
      return result;
    case IoStatus::kOk:
      break;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8U) |
                            (static_cast<std::uint32_t>(header[2]) << 16U) |
                            (static_cast<std::uint32_t>(header[3]) << 24U);
  if (len > max_bytes) {
    // Reject before allocating: only the four header bytes were read.
    result.status = FrameStatus::kTooLarge;
    return result;
  }
  result.payload.resize(len);
  if (len > 0) {
    switch (read_exact(fd, result.payload.data(), len, stop)) {
      case IoStatus::kClosed:
      case IoStatus::kError:
        // A closed peer mid-payload is a truncated frame, not a clean
        // connection end — the header promised more bytes.
        result.payload.clear();
        result.status = FrameStatus::kError;
        return result;
      case IoStatus::kOk:
        break;
    }
  }
  result.status = FrameStatus::kOk;
  return result;
}

FrameReadResult read_frame_deadline(int fd, std::uint32_t max_bytes,
                                    int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        FrameReadResult result;
        result.status = FrameStatus::kTimeout;
        return result;
      }
      wait_ms = static_cast<int>(left.count());
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      FrameReadResult result;
      result.status = FrameStatus::kError;
      return result;
    }
    if (pr == 0) {
      FrameReadResult result;
      result.status = FrameStatus::kTimeout;
      return result;
    }
    // Bytes (or EOF) are pending: the frame resolves without a deadline.
    return read_frame(fd, max_bytes, nullptr);
  }
}

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxResponseFrameBytes) {
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char header[4] = {
      static_cast<unsigned char>(len & 0xFFU),
      static_cast<unsigned char>((len >> 8U) & 0xFFU),
      static_cast<unsigned char>((len >> 16U) & 0xFFU),
      static_cast<unsigned char>((len >> 24U) & 0xFFU),
  };
  std::string buf;
  buf.reserve(sizeof(header) + payload.size());
  buf.append(reinterpret_cast<const char*>(header), sizeof(header));
  buf.append(payload.data(), payload.size());
  std::size_t sent = 0;
  while (sent < buf.size()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-stream must surface as a
    // write error, not a process-wide SIGPIPE (subscribe streams make
    // writes to half-closed sockets routine).
    const ssize_t n =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // a signal sliced the send mid-frame; resume at `sent`
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full send buffer: wait for writability
        // instead of spinning on send(). EINTR here just re-polls.
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        if (::poll(&pfd, 1, kPollSliceMs) < 0 && errno != EINTR) {
          return false;
        }
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace st::serve

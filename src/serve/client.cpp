#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "serve/job.hpp"
#include "serve/protocol.hpp"

namespace st::serve {

Client::~Client() { close(); }

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

json::Value Client::request_raw(std::string_view payload) {
  if (fd_ < 0) {
    throw std::runtime_error("serve client: not connected");
  }
  if (!write_frame(fd_, payload)) {
    throw std::runtime_error("serve client: write failed");
  }
  FrameReadResult frame = read_frame(fd_, kMaxResponseFrameBytes, nullptr);
  if (frame.status != FrameStatus::kOk) {
    throw std::runtime_error("serve client: connection closed by server");
  }
  return json::parse(frame.payload);
}

json::Value Client::request(const json::Value& req) {
  return request_raw(req.dump());
}

namespace {

[[nodiscard]] json::Value typed(std::string_view type) {
  json::Value v = json::Value::object();
  v.set("type", type);
  return v;
}

[[nodiscard]] json::Value typed_id(std::string_view type, std::uint64_t id) {
  json::Value v = typed(type);
  v.set("id", id);
  return v;
}

}  // namespace

json::Value Client::ping() { return request(typed("ping")); }

json::Value Client::submit(const json::Value& job) {
  json::Value v = typed("submit");
  v.set("job", job);
  return request(v);
}

json::Value Client::status(std::uint64_t id) {
  return request(typed_id("status", id));
}

json::Value Client::events(std::uint64_t id, std::uint64_t after) {
  json::Value v = typed_id("events", id);
  v.set("after", after);
  return request(v);
}

json::Value Client::result(std::uint64_t id) {
  return request(typed_id("result", id));
}

json::Value Client::cancel(std::uint64_t id) {
  return request(typed_id("cancel", id));
}

json::Value Client::stats() { return request(typed("stats")); }

json::Value Client::drain() { return request(typed("drain")); }

json::Value Client::subscribe(std::string_view filter,
                              std::uint32_t snapshot_period_ms, bool delta,
                              std::size_t queue) {
  json::Value v = typed("subscribe");
  v.set("filter", filter);
  v.set("snapshot_period_ms",
        json::Value::unsigned_integer(snapshot_period_ms));
  v.set("delta", json::Value::boolean(delta));
  if (queue > 0) {
    v.set("queue", queue);
  }
  return request(v);
}

std::optional<json::Value> Client::next_frame(int timeout_ms, bool* closed) {
  if (closed != nullptr) {
    *closed = false;
  }
  if (fd_ < 0) {
    if (closed != nullptr) {
      *closed = true;
    }
    return std::nullopt;
  }
  FrameReadResult frame =
      read_frame_deadline(fd_, kMaxResponseFrameBytes, timeout_ms);
  switch (frame.status) {
    case FrameStatus::kOk:
      return json::parse(frame.payload);
    case FrameStatus::kTimeout:
      return std::nullopt;
    case FrameStatus::kClosed:
    case FrameStatus::kTooLarge:
    case FrameStatus::kError:
      break;
  }
  if (closed != nullptr) {
    *closed = true;
  }
  return std::nullopt;
}

std::optional<json::Value> Client::wait(std::uint64_t id, int timeout_ms,
                                        int poll_interval_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    json::Value response = status(id);
    const json::Value* state = response.find("state");
    if (state != nullptr && state->kind() == json::Value::Kind::kString) {
      const std::string& s = state->as_string();
      if (s != "queued" && s != "running") {
        return response;
      }
    } else {
      // unknown_job / bad_request — polling further cannot help.
      return response;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_interval_ms));
  }
}

}  // namespace st::serve

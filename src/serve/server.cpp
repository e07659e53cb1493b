#include "serve/server.hpp"

#ifdef __linux__

#include <cerrno>
#include <cstring>
#include <exception>
#include <stdexcept>

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace lfp::serve {

namespace {

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnectionId = 2;

/// How often run() looks for connections past their deadline.
constexpr std::chrono::milliseconds kSweepInterval{100};

std::runtime_error system_error(const std::string& call) {
    return std::runtime_error("serve::Server: " + call + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(std::string socket_path, CensusService& service, const QueryEngine& engine)
    : socket_path_(std::move(socket_path)),
      service_(service),
      engine_(engine),
      next_id_(kFirstConnectionId) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(address.sun_path)) {
        throw std::runtime_error("serve::Server: socket path too long: " + socket_path_);
    }
    std::memcpy(address.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    try {
        listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (listener_ < 0) throw system_error("socket");
        ::unlink(socket_path_.c_str());
        if (::bind(listener_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
            throw system_error("bind " + socket_path_);
        }
        bound_ = true;
        if (::listen(listener_, SOMAXCONN) != 0) throw system_error("listen");
        epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
        if (epoll_ < 0) throw system_error("epoll_create1");
        wake_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (wake_ < 0) throw system_error("eventfd");
        for (const auto& [fd, id] :
             {std::pair{listener_, kListenerId}, std::pair{wake_, kWakeId}}) {
            epoll_event event{};
            event.events = EPOLLIN;
            event.data.u64 = id;
            if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &event) != 0) {
                throw system_error("epoll_ctl");
            }
        }
    } catch (...) {
        close_fds();
        throw;
    }
}

Server::~Server() {
    // A census job on the scheduler thread holds `this` until it reports.
    while (censuses_running_ > 0) {
        pollfd wake{.fd = wake_, .events = POLLIN, .revents = 0};
        ::poll(&wake, 1, 100);
        (void)take_finished();
    }
    for (auto& [id, connection] : connections_) ::close(connection.fd);
    close_fds();
}

void Server::close_fds() noexcept {
    for (int* fd : {&listener_, &epoll_, &wake_}) {
        if (*fd >= 0) ::close(*fd);
        *fd = -1;
    }
    if (bound_) ::unlink(socket_path_.c_str());
    bound_ = false;
}

void Server::request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
    const std::uint64_t one = 1;
    (void)!::write(wake_, &one, sizeof(one));
}

void Server::run() {
    std::array<epoll_event, 64> events;
    Clock::time_point next_sweep = Clock::now() + kSweepInterval;
    while (true) {
        if (!stopping_ && stop_requested_.load(std::memory_order_relaxed)) begin_stop();
        if (stopping_ && connections_.empty() && censuses_running_ == 0) return;
        const int timeout = connections_.empty() ? -1 : static_cast<int>(kSweepInterval.count());
        const int ready = ::epoll_wait(epoll_, events.data(), static_cast<int>(events.size()),
                                       timeout);
        if (ready < 0) {
            if (errno == EINTR) continue;
            throw system_error("epoll_wait");
        }
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
            if (id == kListenerId) {
                accept_all();
            } else if (id == kWakeId) {
                on_wake();
            } else {
                on_ready(id, events[static_cast<std::size_t>(i)].events);
            }
        }
        const Clock::time_point now = Clock::now();
        if (now >= next_sweep) {
            close_expired(now);
            next_sweep = now + kSweepInterval;
        }
    }
}

void Server::accept_all() {
    while (listener_ >= 0) {
        const int fd = ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED) continue;
            return;  // backlog empty, or out of fds until a connection closes
        }
        const std::uint64_t id = next_id_++;
        Connection& connection = connections_[id];
        connection.fd = fd;
        connection.deadline = Clock::now() + kPeerDeadline;
        serve(id, connection);
    }
}

void Server::serve(std::uint64_t id, Connection& connection) {
    // One read per call: a client that pipelines without pause cannot hold
    // the loop, and epoll reports again whatever that read left behind.
    bool has_read = false;
    while (!connection.parked && !connection.writing) {
        if (connection.closing) return drop(id);
        if (std::optional<std::string> request = connection.decoder.next()) {
            answer(id, connection, std::move(*request));
            continue;
        }
        if (connection.decoder.error()) {
            // Structured rejection: one error frame naming the violation,
            // then hang up — never a silent close, never an attempt to
            // resynchronize a stream we can no longer trust.
            send(connection, "ERR protocol: " + connection.decoder.error_reason());
            connection.closing = true;
            continue;
        }
        if (stopping_) return drop(id);  // draining: nothing more is read
        if (has_read) break;
        has_read = true;
        const ssize_t n = ::read(connection.fd, chunk_.data(), chunk_.size());
        if (n > 0) {
            connection.decoder.feed(chunk_.data(), static_cast<std::size_t>(n));
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
            break;
        } else {
            // EOF or error — including a peer that vanished mid-frame: the
            // partial frame still in the decoder is simply abandoned.
            return drop(id);
        }
    }
    watch(id, connection);
}

void Server::answer(std::uint64_t id, Connection& connection, std::string request) {
    if (runs_census(request)) {
        connection.parked = true;
        ++censuses_running_;
        service_.post([this, id, request = std::move(request)] {
            std::string response;
            try {
                response = handle_request(request, service_, engine_).response;
            } catch (const std::exception& error) {
                response = std::string("ERR census failed: ") + error.what();
            }
            {
                std::lock_guard<std::mutex> guard(finished_mutex_);
                finished_.emplace_back(id, std::move(response));
            }
            const std::uint64_t one = 1;
            (void)!::write(wake_, &one, sizeof(one));
        });
        return;
    }
    RequestOutcome outcome = handle_request(request, service_, engine_);
    send(connection, std::move(outcome.response));
    if (outcome.shutdown) {
        connection.closing = true;
        stop_requested_.store(true, std::memory_order_relaxed);
    }
}

void Server::send(Connection& connection, std::string payload) {
    const auto size = static_cast<std::uint32_t>(payload.size());
    connection.header = {static_cast<std::uint8_t>(size & 0xFF),
                         static_cast<std::uint8_t>((size >> 8) & 0xFF),
                         static_cast<std::uint8_t>((size >> 16) & 0xFF),
                         static_cast<std::uint8_t>((size >> 24) & 0xFF)};
    connection.payload = std::move(payload);
    connection.sent = 0;
    connection.writing = true;
    flush(connection);
}

void Server::flush(Connection& connection) {
    const std::size_t header_size = connection.header.size();
    const std::size_t total = header_size + connection.payload.size();
    while (connection.sent < total) {
        iovec parts[2];
        std::size_t count = 0;
        if (connection.sent < header_size) {
            parts[count++] = {connection.header.data() + connection.sent,
                              header_size - connection.sent};
            parts[count++] = {connection.payload.data(), connection.payload.size()};
        } else {
            const std::size_t offset = connection.sent - header_size;
            parts[count++] = {connection.payload.data() + offset,
                              connection.payload.size() - offset};
        }
        msghdr message{};
        message.msg_iov = parts;
        message.msg_iovlen = count;
        const ssize_t n = ::sendmsg(connection.fd, &message, MSG_NOSIGNAL);
        if (n > 0) {
            connection.sent += static_cast<std::size_t>(n);
            connection.deadline = Clock::now() + kPeerDeadline;
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        } else {
            connection.closing = true;  // the peer is gone
            break;
        }
    }
    connection.writing = false;
    connection.payload = std::string();  // an EXPORT answer is not kept
}

void Server::watch(std::uint64_t id, Connection& connection) {
    // Parked: no events asked for; epoll still reports a hangup.
    const std::uint32_t interest =
        connection.parked ? 0u : (connection.writing ? EPOLLOUT : EPOLLIN);
    if (connection.registered && interest == connection.interest) return;
    epoll_event event{};
    event.events = interest;
    event.data.u64 = id;
    const int op = connection.registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
    if (::epoll_ctl(epoll_, op, connection.fd, &event) != 0) throw system_error("epoll_ctl");
    connection.registered = true;
    connection.interest = interest;
}

void Server::on_ready(std::uint64_t id, std::uint32_t events) {
    const auto it = connections_.find(id);
    if (it == connections_.end()) return;
    Connection& connection = it->second;
    if (connection.parked) {
        // Only a hangup reaches a parked connection: its peer left, and the
        // census answer will find no one to write to.
        if ((events & (EPOLLHUP | EPOLLERR)) != 0) drop(id);
        return;
    }
    if (connection.writing) flush(connection);
    serve(id, connection);
}

std::vector<std::pair<std::uint64_t, std::string>> Server::take_finished() {
    std::uint64_t count = 0;
    (void)!::read(wake_, &count, sizeof(count));
    std::vector<std::pair<std::uint64_t, std::string>> finished;
    {
        std::lock_guard<std::mutex> guard(finished_mutex_);
        finished.swap(finished_);
    }
    censuses_running_ -= finished.size();
    return finished;
}

void Server::on_wake() {
    for (auto& [id, response] : take_finished()) {
        const auto it = connections_.find(id);
        if (it == connections_.end()) continue;
        Connection& connection = it->second;
        connection.parked = false;
        send(connection, std::move(response));
        serve(id, connection);
    }
}

void Server::begin_stop() {
    stopping_ = true;
    ::close(listener_);
    listener_ = -1;
    std::vector<std::uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, connection] : connections_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
        const auto it = connections_.find(id);
        if (it != connections_.end()) serve(id, it->second);
    }
}

void Server::close_expired(Clock::time_point now) {
    std::vector<std::uint64_t> expired;
    for (const auto& [id, connection] : connections_) {
        if (!connection.parked && now >= connection.deadline) expired.push_back(id);
    }
    for (const std::uint64_t id : expired) drop(id);
}

void Server::drop(std::uint64_t id) {
    const auto it = connections_.find(id);
    ::close(it->second.fd);
    connections_.erase(it);
}

}  // namespace lfp::serve

#endif  // __linux__

// The lfp_serve event loop: one thread, one epoll set, every connection
// nonblocking, answering the wire protocol (serve/wire.hpp) on a
// unix-domain socket.
//
// - A new connection is read at once after accept4(): a connect-per-
//   request client has usually sent its request by then, so it costs no
//   extra epoll_wait round trip. A connection is read at most once per
//   wake, so a client that pipelines without pause cannot hold the loop.
// - Each connection has its own FrameDecoder (capped at kMaxRequestPayload)
//   and at most one answer in its output buffer. The answer is written
//   nonblocking; EPOLLOUT is watched only when a write would block, and the
//   connection reads nothing more until that answer is out.
// - TRIGGER and PATHCENSUS are posted to the CensusService's scheduler
//   thread. Their connection is parked: nothing more is read from it, so
//   its answers stay in request order. Every other connection keeps being
//   answered from the current snapshot. The census thread hands the answer
//   back through an eventfd and the loop writes it.
// - A connection that keeps the server waiting past kPeerDeadline is
//   closed, whether it is idle, dripping a request, or not reading its
//   answer.
// - SHUTDOWN or request_stop() drains: the listener closes, nothing more
//   is read, every request already received is answered, and run()
//   returns once the last answer is written.
//
// Linux only (epoll, eventfd, accept4); elsewhere this header declares
// nothing.
#pragma once

#ifdef __linux__

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace lfp::serve {

/// How long a connection may keep the server waiting: for a whole request
/// once it is idle (from accept, or from its last answer), and for any
/// progress while its answer is being written. A parked connection, whose
/// census is running, has no deadline.
inline constexpr std::chrono::milliseconds kPeerDeadline{2000};

class Server {
  public:
    /// Binds and listens on a unix-domain socket at `socket_path`,
    /// replacing a stale socket file; clients may connect as soon as this
    /// returns. Throws std::runtime_error naming the call that failed.
    Server(std::string socket_path, CensusService& service, const QueryEngine& engine);
    /// Waits for census requests still running, closes every connection,
    /// and removes the socket file.
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Serves until SHUTDOWN or request_stop(), then drains (see the file
    /// comment) and returns.
    void run();

    /// Asks run() to drain and return. Async-signal-safe and callable from
    /// any thread, before or during run().
    void request_stop() noexcept;

  private:
    using Clock = std::chrono::steady_clock;

    struct Connection {
        int fd = -1;
        FrameDecoder decoder{kMaxRequestPayload};
        /// The answer being written, as header + payload; `sent` counts
        /// bytes of both.
        std::array<std::uint8_t, 4> header{};
        std::string payload;
        std::size_t sent = 0;
        bool writing = false;
        bool parked = false;   ///< its census request runs on the scheduler thread
        bool closing = false;  ///< close once the pending answer is written
        bool registered = false;
        std::uint32_t interest = 0;  ///< epoll events registered for it
        Clock::time_point deadline;
    };

    void accept_all();
    /// Answers what the connection has buffered and reads more, until it
    /// is parked, waits on a write, would block, or is closed.
    void serve(std::uint64_t id, Connection& connection);
    void answer(std::uint64_t id, Connection& connection, std::string request);
    void send(Connection& connection, std::string payload);
    void flush(Connection& connection);
    /// Registers the epoll events the connection's state needs.
    void watch(std::uint64_t id, Connection& connection);
    void on_ready(std::uint64_t id, std::uint32_t events);
    /// Writes the census answers the scheduler thread has finished.
    void on_wake();
    std::vector<std::pair<std::uint64_t, std::string>> take_finished();
    void begin_stop();
    void close_expired(Clock::time_point now);
    void drop(std::uint64_t id);
    void close_fds() noexcept;

    std::string socket_path_;
    CensusService& service_;
    const QueryEngine& engine_;
    int listener_ = -1;
    int epoll_ = -1;
    int wake_ = -1;  ///< eventfd: census answers ready, or a stop request
    bool bound_ = false;

    std::atomic<bool> stop_requested_{false};
    bool stopping_ = false;
    std::unordered_map<std::uint64_t, Connection> connections_;
    std::uint64_t next_id_;
    std::size_t censuses_running_ = 0;

    std::mutex finished_mutex_;
    /// Census answers from the scheduler thread, by connection id.
    std::vector<std::pair<std::uint64_t, std::string>> finished_;

    std::array<std::uint8_t, 16384> chunk_;
};

}  // namespace lfp::serve

#endif  // __linux__

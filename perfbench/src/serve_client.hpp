// The client side of the serve-mixed workload: the lfp_serve child process,
// a blocking one-shot request, and the open-loop generator that keeps at
// most a fixed number of connect-per-request exchanges in flight on one
// thread. Frames are written with serve::encode_frame and read back through
// a serve::FrameDecoder, the daemon's own wire format (serve/wire.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "serve/wire.hpp"

namespace lfpbench {

/// One lfp_serve child on a unix socket in a private directory. The
/// destructor stops it and reaps it whatever state it is in.
class Daemon {
  public:
    /// Spawns `binary` with `flags`, serving on `<dir>/s.sock`, its output in
    /// `<dir>/daemon.log`, with every LFP_* variable removed from its
    /// environment, and pinned to `cpu` when it is not negative. Throws when
    /// fork/exec fails.
    Daemon(const std::string& binary, const std::string& dir,
           const std::vector<std::string>& flags, int cpu = -1);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] pid_t pid() const noexcept { return pid_; }
    [[nodiscard]] const std::string& socket_path() const noexcept { return socket_; }
    /// True once the child exited (reaped).
    [[nodiscard]] bool exited();
    /// Polls PING until "OK pong" or `timeout_s` passes or the child exits.
    [[nodiscard]] bool wait_ready(double timeout_s);
    /// SHUTDOWN, then SIGTERM, then SIGKILL, each after a deadline; always
    /// reaps. Returns whether the daemon left on SHUTDOWN alone.
    bool stop();

  private:
    bool wait_exit(double timeout_s);

    pid_t pid_ = -1;
    std::string socket_;
};

/// One request over a fresh connection; nullopt on refusal, I/O error or
/// timeout.
[[nodiscard]] std::optional<std::string> request_once(const std::string& socket_path,
                                                      std::string_view payload, double timeout_s);

/// The open-loop generator's connection set (epoll, non-blocking sockets).
class Generator {
  public:
    struct Done {
        std::uint64_t id = 0;
        std::int64_t launched_ns = 0;
        std::int64_t connected_ns = 0;
        std::int64_t finished_ns = 0;
        bool ok = false;
        std::string response;  ///< the payload, or the failure reason
    };

    Generator(std::string socket_path, std::size_t max_in_flight, double timeout_s);
    ~Generator();
    Generator(const Generator&) = delete;
    Generator& operator=(const Generator&) = delete;

    [[nodiscard]] bool can_launch() const noexcept { return conns_.size() < max_in_flight_; }
    /// Connects and sends `payload`. Returns false when the listen backlog
    /// is full (try again later); a refused connection finishes at once as
    /// a failed Done.
    bool launch(std::uint64_t id, std::string_view payload, std::vector<Done>& out);
    /// Waits for socket events until `until_ns` (steady clock) and appends
    /// finished exchanges to `out`; returns at the first event or deadline.
    void poll(std::int64_t until_ns, std::vector<Done>& out);

  private:
    struct Conn {
        int fd = -1;
        std::uint64_t id = 0;
        std::int64_t launched_ns = 0;
        std::int64_t connected_ns = 0;
        std::vector<std::uint8_t> out;
        std::size_t written = 0;
        lfp::serve::FrameDecoder in;
    };
    void finish(std::size_t index, bool ok, std::string response, std::vector<Done>& out);
    void on_event(std::size_t index, std::uint32_t events, std::vector<Done>& out);

    std::string socket_path_;
    std::size_t max_in_flight_;
    std::int64_t timeout_ns_;
    int epoll_ = -1;
    std::vector<Conn> conns_;
};

}  // namespace lfpbench

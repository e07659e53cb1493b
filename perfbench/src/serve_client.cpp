#include "serve_client.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"

extern char** environ;

namespace lfpbench {
namespace {

bool fill_address(sockaddr_un& address, const std::string& path) {
    address = {};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) return false;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    return true;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& dir,
               const std::vector<std::string>& flags, int cpu)
    : socket_(dir + "/s.sock") {
    std::vector<std::string> argv_storage = {binary, "--socket", socket_};
    argv_storage.insert(argv_storage.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        if (std::strncmp(*entry, "LFP_", 4) != 0) envp.push_back(*entry);
    }
    envp.push_back(nullptr);
    const std::string log = dir + "/daemon.log";
    const pid_t parent = ::getpid();

    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
        // The daemon never outlives the benchmark, even one that is killed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        if (cpu >= 0) {
            cpu_set_t only;
            CPU_ZERO(&only);
            CPU_SET(cpu, &only);
            if (::sched_setaffinity(0, sizeof(only), &only) != 0) ::_exit(127);
        }
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execve(binary.c_str(), argv.data(), envp.data());
        ::_exit(127);
    }
}

Daemon::~Daemon() {
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
}

bool Daemon::exited() {
    if (pid_ <= 0) return true;
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
    }
    return false;
}

bool Daemon::wait_exit(double timeout_s) {
    const auto start = Clock::now();
    while (!exited()) {
        if (seconds_since(start) >= timeout_s) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

bool Daemon::wait_ready(double timeout_s) {
    const auto start = Clock::now();
    while (seconds_since(start) < timeout_s) {
        if (exited()) return false;
        const auto answer = request_once(socket_, "PING", 1.0);
        if (answer && *answer == "OK pong") return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

bool Daemon::stop() {
    if (exited()) return false;
    const auto answer = request_once(socket_, "SHUTDOWN", 2.0);
    if (answer && *answer == "OK bye" && wait_exit(3.0)) return true;
    ::kill(pid_, SIGTERM);
    if (wait_exit(3.0)) return false;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
}

std::optional<std::string> request_once(const std::string& socket_path, std::string_view payload,
                                        double timeout_s) {
    sockaddr_un address{};
    if (!fill_address(address, socket_path)) return std::nullopt;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::nullopt;
    struct Closer {
        int fd;
        ~Closer() { ::close(fd); }
    } closer{fd};
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
        return std::nullopt;
    }
    const std::vector<std::uint8_t> frame = lfp::serve::encode_frame(payload);
    const ssize_t sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (sent != static_cast<ssize_t>(frame.size())) {
        return std::nullopt;
    }
    const auto start = Clock::now();
    lfp::serve::FrameDecoder decoder;
    std::uint8_t chunk[65536];
    while (true) {
        if (auto frame_payload = decoder.next()) return frame_payload;
        if (decoder.error()) return std::nullopt;
        const double left = timeout_s - seconds_since(start);
        if (left <= 0) return std::nullopt;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1) <= 0) continue;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) return std::nullopt;
        decoder.feed(chunk, static_cast<std::size_t>(n));
    }
}

namespace {
constexpr std::int64_t kSpinNs = 200'000;
}  // namespace

Generator::Generator(std::string socket_path, std::size_t max_in_flight, double timeout_s)
    : socket_path_(std::move(socket_path)),
      max_in_flight_(max_in_flight),
      timeout_ns_(static_cast<std::int64_t>(timeout_s * 1e9)),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)) {
    if (epoll_ < 0) throw std::runtime_error(std::string("epoll_create1: ") + std::strerror(errno));
}

Generator::~Generator() {
    for (Conn& conn : conns_) ::close(conn.fd);
    ::close(epoll_);
}

bool Generator::launch(std::uint64_t id, std::string_view payload, std::vector<Done>& out) {
    Conn conn;
    conn.id = id;
    conn.launched_ns = now_ns();
    sockaddr_un address{};
    if (!fill_address(address, socket_path_)) {
        out.push_back({id, conn.launched_ns, 0, now_ns(), false, "socket path too long"});
        return true;
    }
    conn.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) {
        out.push_back({id, conn.launched_ns, 0, now_ns(), false, std::strerror(errno)});
        return true;
    }
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
        const int error = errno;
        ::close(conn.fd);
        if (error == EAGAIN) return false;  // listen backlog full
        out.push_back({id, conn.launched_ns, 0, now_ns(), false,
                       std::string("connect: ") + std::strerror(error)});
        return true;
    }
    conn.connected_ns = now_ns();
    conn.out = lfp::serve::encode_frame(payload);
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    conn.written = n > 0 ? static_cast<std::size_t>(n) : 0;
    epoll_event event{};
    event.events = conn.written < conn.out.size() ? EPOLLOUT : EPOLLIN;
    event.data.fd = conn.fd;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, conn.fd, &event);
    conns_.push_back(std::move(conn));
    return true;
}

void Generator::finish(std::size_t index, bool ok, std::string response, std::vector<Done>& out) {
    Conn& conn = conns_[index];
    ::epoll_ctl(epoll_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    out.push_back(
        {conn.id, conn.launched_ns, conn.connected_ns, now_ns(), ok, std::move(response)});
    conns_[index] = std::move(conns_.back());
    conns_.pop_back();
}

void Generator::on_event(std::size_t index, std::uint32_t events, std::vector<Done>& out) {
    Conn& conn = conns_[index];
    if (conn.written < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.written,
                                 conn.out.size() - conn.written, MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN) return finish(index, false, "send failed", out);
        if (n > 0) conn.written += static_cast<std::size_t>(n);
        if (conn.written == conn.out.size()) {
            epoll_event event{};
            event.events = EPOLLIN;
            event.data.fd = conn.fd;
            ::epoll_ctl(epoll_, EPOLL_CTL_MOD, conn.fd, &event);
        }
        return;
    }
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) return;
    std::uint8_t chunk[65536];
    while (true) {
        const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n > 0) {
            conn.in.feed(chunk, static_cast<std::size_t>(n));
            if (auto payload = conn.in.next()) {
                return finish(index, true, std::move(*payload), out);
            }
            if (conn.in.error()) {
                return finish(index, false, "bad frame: " + conn.in.error_reason(), out);
            }
            continue;
        }
        if (n < 0 && errno == EAGAIN) return;
        return finish(index, false, "connection closed before a response", out);
    }
}

void Generator::poll(std::int64_t until_ns, std::vector<Done>& out) {
    const std::int64_t now = now_ns();
    for (std::size_t i = conns_.size(); i-- > 0;) {
        if (now - conns_[i].launched_ns > timeout_ns_) finish(i, false, "timeout", out);
    }
    std::int64_t wait = std::max<std::int64_t>(0, until_ns - now);
    bool answer_due = false;
    for (const Conn& conn : conns_) {
        wait = std::min(wait, std::max<std::int64_t>(0, conn.launched_ns + timeout_ns_ - now));
        answer_due |= now - conn.launched_ns < kSpinNs;
    }
    epoll_event events[16];
    int ready = 0;
    if (wait <= kSpinNs || answer_due) {
        // Busy-poll: a deadline this close, or an answer this soon, is met
        // awake, so the generator's own wake-up does not count in a read.
        const std::int64_t spin_until = now + std::min(wait, kSpinNs);
        do {
            ready = ::epoll_wait(epoll_, events, 16, 0);
        } while (ready == 0 && now_ns() < spin_until);
    } else {
        // Sleep, but wake kSpinNs early and spin the rest (next call).
        wait -= kSpinNs;
        timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                         static_cast<long>(wait % 1'000'000'000)};
        ready = ::epoll_pwait2(epoll_, events, 16, &timeout, nullptr);
    }
    for (int e = 0; e < ready; ++e) {
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (conns_[i].fd == events[e].data.fd) {
                on_event(i, events[e].events, out);
                break;
            }
        }
    }
}

}  // namespace lfpbench

#include "tracing_transport.hpp"

namespace lfpbench {
namespace {

/// Per-thread CPU reading at the previous exit from send_batch / a poll
/// call; 0 until the thread's first call. A lane thread drives one
/// transport, so one slot per thread suffices.
thread_local std::int64_t t_last_send_exit_cpu = 0;
thread_local std::int64_t t_last_poll_exit_cpu = 0;

}  // namespace

void TracingTransport::send_batch(std::span<const lfp::net::Bytes> packets) {
    tally_.packets.fetch_add(packets.size(), std::memory_order_relaxed);
    if (!timed_) {
        inner_.send_batch(packets);
        return;
    }
    const std::int64_t cpu = thread_cpu_ns();
    if (t_last_send_exit_cpu != 0) {
        tally_.send_busy_ns.fetch_add(cpu - t_last_send_exit_cpu, std::memory_order_relaxed);
    }
    const std::int64_t sim_start = now_ns();
    inner_.send_batch(packets);
    tally_.sim_ns.fetch_add(now_ns() - sim_start, std::memory_order_relaxed);
    t_last_send_exit_cpu = thread_cpu_ns();
}

std::vector<lfp::net::Bytes> TracingTransport::poll_responses(std::chrono::milliseconds timeout) {
    poll_entered();
    std::vector<lfp::net::Bytes> out = inner_.poll_responses(timeout);
    received(out.size());
    return out;
}

void TracingTransport::poll_responses_into(std::chrono::milliseconds timeout,
                                           std::vector<lfp::net::Bytes>& out) {
    poll_entered();
    const std::size_t first = out.size();
    inner_.poll_responses_into(timeout, out);
    received(out.size() - first);
}

void TracingTransport::poll_entered() {
    if (!timed_) return;
    const std::int64_t cpu = thread_cpu_ns();
    if (t_last_poll_exit_cpu != 0) {
        tally_.recv_busy_ns.fetch_add(cpu - t_last_poll_exit_cpu, std::memory_order_relaxed);
    }
}

void TracingTransport::received(std::size_t count) {
    tally_.polls.fetch_add(1, std::memory_order_relaxed);
    if (count == 0) {
        tally_.empty_polls.fetch_add(1, std::memory_order_relaxed);
    } else {
        tally_.responses.fetch_add(count, std::memory_order_relaxed);
    }
    if (timed_) t_last_poll_exit_cpu = thread_cpu_ns();
}

}  // namespace lfpbench

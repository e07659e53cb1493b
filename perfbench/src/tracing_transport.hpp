// The forwarding probe::ProbeTransport decorator the census workloads put in
// front of every simulated vantage. It overrides every virtual and forwards
// each one unchanged, so lane assignment (backend_hint), the drained-proof
// fast path (drained) and the pooled receive path (poll_responses_into,
// recycle) behave exactly as without it.
//
// Always on: packet, response and poll counts. Traced runs only: the wall
// time inside the forwarded send_batch (both simulated transports answer
// synchronously there, so this is the simulator's busy time) and the
// sender/receiver thread CPU spent outside send_batch and the poll calls,
// read with CLOCK_THREAD_CPUTIME_ID.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "probe/transport.hpp"

namespace lfpbench {

/// Counters one decorator accumulates; summed over lanes at read.
struct TransportTally {
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> polls{0};
    std::atomic<std::uint64_t> empty_polls{0};
    std::atomic<std::int64_t> sim_ns{0};
    std::atomic<std::int64_t> send_busy_ns{0};
    std::atomic<std::int64_t> recv_busy_ns{0};
};

class TracingTransport final : public lfp::probe::ProbeTransport {
  public:
    TracingTransport(lfp::probe::ProbeTransport& inner, bool timed)
        : inner_(inner), timed_(timed) {}

    void send_batch(std::span<const lfp::net::Bytes> packets) override;
    std::vector<lfp::net::Bytes> poll_responses(std::chrono::milliseconds timeout) override;
    void poll_responses_into(std::chrono::milliseconds timeout,
                             std::vector<lfp::net::Bytes>& out) override;
    void recycle(lfp::net::Bytes&& buffer) override { inner_.recycle(std::move(buffer)); }
    [[nodiscard]] bool drained() const override { return inner_.drained(); }
    [[nodiscard]] lfp::net::IPv4Address vantage_address() const override {
        return inner_.vantage_address();
    }
    [[nodiscard]] std::optional<std::uint64_t> backend_hint(
        lfp::net::IPv4Address target) const override {
        return inner_.backend_hint(target);
    }
    [[nodiscard]] std::chrono::milliseconds transact_timeout() const override {
        return inner_.transact_timeout();
    }

    [[nodiscard]] const TransportTally& tally() const noexcept { return tally_; }

  private:
    /// Receive-thread CPU since the previous poll returned (traced runs).
    void poll_entered();
    /// Receive-thread counts for a poll that returned `count` packets.
    void received(std::size_t count);

    lfp::probe::ProbeTransport& inner_;
    bool timed_;
    TransportTally tally_;
};

}  // namespace lfpbench

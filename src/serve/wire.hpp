// The lfp_serve wire protocol: length-prefixed text frames over a local
// stream socket. Each frame is a 4-byte little-endian payload length
// followed by that many bytes of UTF-8 text; a request is one line-like
// command ("VENDOR 10.0.0.1"), a response is either "OK ..."/"ERR ..." or,
// for EXPORT, the raw CSV payload. The framing is deliberately minimal —
// the daemon serves the local operator loop (CLI, smoke tests, dashboards
// polling over a unix socket), not the open internet — but it is a real
// protocol: framed (no delimiter ambiguity), bounded (kMaxRequestPayload
// for requests, kMaxFramePayload for responses), and versionless text so
// `lfp_query` output diffs cleanly against the batch pipeline's artifacts.
//
// Commands (case-sensitive verbs, space-separated operands):
//   PING                     liveness check
//   STATS                    snapshot version/counts/retention summary
//   VENDOR <ip>              point lookup: vendors, kind, confidence, pass
//   ASMIX <asn>              per-AS vendor mix
//   PATH <ip> [<ip>...]      per-hop vendor profile + combination key
//   PATH @<index>            profile of measured path <index> from the
//                            snapshot's own path census (hops + verdicts
//                            answer from one snapshot)
//   DIFF <from> <to>         signature stability between retained versions
//   EXPORT                   current snapshot as measurement CSV (raw)
//   TRIGGER                  run one census now; answers with the version
//                            it published
//   PATHCENSUS               run one path census now: traceroute-discovered
//                            hops collapsed into census targets, measured
//                            paths stored for PATH @<index> (requires a
//                            configured path source)
//   SHUTDOWN                 stop serving after this response
//
// TRIGGER and PATHCENSUS stay synchronous to their own client: the answer
// comes once the census has published, and later frames on that
// connection wait behind it, so answers arrive in request order. The
// census itself runs on the service's scheduler thread (see
// serve/server.hpp), so every other connection keeps being answered from
// the current snapshot meanwhile. Each TRIGGER runs exactly one census.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/query.hpp"
#include "serve/service.hpp"

namespace lfp::serve {

/// Responses larger than this are a protocol violation (the full-census
/// CSV export of a 10M-target snapshot fits comfortably). Clients decode
/// with this cap.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// Requests larger than this are a protocol violation. The server decodes
/// with this cap, so a 4-byte header can never commit it to buffering more
/// than this (a PATH of 4000 hops still fits).
inline constexpr std::uint32_t kMaxRequestPayload = 64u << 10;

/// Serializes one frame: 4-byte little-endian length + payload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(std::string_view payload);

/// Incremental frame decoder for a byte stream: feed() arbitrary chunks,
/// next() yields complete payloads in order. Zero-length frames and frames
/// over the decoder's cap are protocol violations, detected as soon as the
/// 4-byte header arrives: they set error() with a reason (error_reason()),
/// and the connection should answer with a structured "ERR protocol: ..."
/// frame and close (serve::Server does). A frame length of zero is rejected
/// rather than round-tripped because no command and no response is ever
/// empty; an all-zero length prefix is what a desynchronized or garbage
/// byte stream most often looks like.
class FrameDecoder {
  public:
    explicit FrameDecoder(std::uint32_t max_payload = kMaxFramePayload)
        : max_payload_(max_payload) {}

    void feed(const std::uint8_t* data, std::size_t size);

    /// The next complete frame payload, or nullopt when more bytes are
    /// needed.
    [[nodiscard]] std::optional<std::string> next();

    [[nodiscard]] bool error() const noexcept { return error_; }
    /// Why the stream was rejected (empty while error() is false).
    [[nodiscard]] const std::string& error_reason() const noexcept { return error_reason_; }

  private:
    /// Received bytes; [0, consumed_) is already decoded and dropped by the
    /// next feed() once it passes half the buffer.
    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;
    std::uint32_t max_payload_;
    bool error_ = false;
    std::string error_reason_;
};

#ifndef _WIN32
/// Blocking fd helpers for clients (lfp_query, tests; POSIX only). write_frame
/// returns false on I/O error; read_frame returns nullopt on EOF/error.
[[nodiscard]] bool write_frame(int fd, std::string_view payload);
[[nodiscard]] std::optional<std::string> read_frame(int fd);
#endif

/// One request's outcome: the response payload plus whether the server
/// should stop accepting connections (SHUTDOWN).
struct RequestOutcome {
    std::string response;
    bool shutdown = false;
};

/// Executes one wire command against the service on the calling thread.
/// Pure request/response — transport-agnostic, so tests exercise the full
/// command surface without a socket.
[[nodiscard]] RequestOutcome handle_request(std::string_view request, CensusService& service,
                                            const QueryEngine& engine);

/// Whether `request` runs a census (TRIGGER, PATHCENSUS): the requests the
/// server hands to the scheduler thread instead of answering inline.
[[nodiscard]] bool runs_census(std::string_view request);

}  // namespace lfp::serve

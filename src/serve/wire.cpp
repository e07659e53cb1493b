#include "serve/wire.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "io/csv_export.hpp"
#include "util/strings.hpp"

namespace lfp::serve {

namespace {

std::vector<std::string_view> split_words(std::string_view text) {
    std::vector<std::string_view> words;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && text[i] == ' ') ++i;
        std::size_t start = i;
        while (i < text.size() && text[i] != ' ') ++i;
        if (i > start) words.push_back(text.substr(start, i - start));
    }
    return words;
}

std::string err(std::string message) { return "ERR " + std::move(message); }

std::string handle_stats(const CensusService& service, const QueryEngine& engine) {
    std::ostringstream out;
    out << "OK censuses=" << service.censuses_completed();
    const std::shared_ptr<const Snapshot> snapshot = engine.snapshot();
    if (snapshot == nullptr) {
        out << " version=0 records=0";
        return out.str();
    }
    const core::MeasurementCounts& counts = snapshot->counts();
    out << " version=" << snapshot->version() << " name=" << snapshot->name()
        << " records=" << snapshot->records().size() << " responsive=" << counts.responsive
        << " snmp=" << counts.snmp << " snmp_and_lfp=" << counts.snmp_and_lfp
        << " lfp_only=" << counts.lfp_only << " passes=" << snapshot->pass_stats().size();
    if (snapshot->restored()) {
        // Degraded mode: this snapshot was reloaded from disk after a
        // restart; stamp its staleness so the operator loop can tell old
        // answers from fresh ones until the next census publishes.
        const auto now_ms =
            static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                           std::chrono::system_clock::now().time_since_epoch())
                                           .count());
        const std::uint64_t created = snapshot->created_unix_ms();
        out << " degraded=1 age_ms=" << (now_ms > created ? now_ms - created : 0);
    }
    out << " retained=";
    bool first = true;
    for (const auto& retained : service.store().retained()) {
        if (!first) out << ',';
        first = false;
        out << retained->version();
    }
    return out.str();
}

std::string handle_vendor(const QueryEngine& engine, std::string_view operand) {
    auto address = net::IPv4Address::parse(operand);
    if (!address) return err("bad address '" + std::string(operand) + "'");
    const VendorAnswer answer = engine.vendor_of(address.value());
    std::ostringstream out;
    out << "OK version=" << answer.version << " ip=" << operand
        << " known=" << (answer.known ? 1 : 0);
    if (!answer.known) return out.str();
    out << " responsive=" << (answer.responsive ? 1 : 0);
    if (answer.asn) out << " asn=" << *answer.asn;
    out << " snmp=" << (answer.snmp_vendor ? stack::to_string(*answer.snmp_vendor) : "-")
        << " lfp=" << (answer.lfp_vendor ? stack::to_string(*answer.lfp_vendor) : "-")
        << " kind=" << core::to_string(answer.kind) << " confidence=" << answer.confidence
        << " pass=" << answer.pass;
    return out.str();
}

std::string handle_asmix(const QueryEngine& engine, std::string_view operand) {
    std::uint32_t asn = 0;
    if (!util::parse_number(operand, asn)) return err("bad asn '" + std::string(operand) + "'");
    const AsMixAnswer answer = engine.as_mix(asn);
    std::ostringstream out;
    out << "OK version=" << answer.version << " asn=" << answer.asn;
    if (!answer.mix) {
        out << " unknown";
        return out.str();
    }
    out << " routers=" << answer.mix->routers_total
        << " identified=" << answer.mix->routers_identified << " mix=";
    bool first = true;
    for (const auto& [vendor, count] : answer.mix->vendor_counts) {
        if (!first) out << ',';
        first = false;
        out << stack::to_string(vendor) << '=' << count;
    }
    return out.str();
}

std::string render_profile(const PathProfile& profile) {
    std::ostringstream out;
    out << "OK version=" << profile.version << " hops=" << profile.hops.size()
        << " known=" << profile.known_hops << " identified=" << profile.identified_hops
        << " combination=" << profile.combination << " |";
    for (const PathProfile::Hop& hop : profile.hops) {
        out << ' ' << hop.address.to_string() << '=';
        if (!hop.known) {
            out << '?';
        } else if (hop.vendor) {
            out << stack::to_string(*hop.vendor);
        } else {
            out << '-';
        }
    }
    return out.str();
}

std::string handle_path(const QueryEngine& engine, std::span<const std::string_view> operands) {
    // PATH @<index>: a measured path from the snapshot's own path census,
    // addressed by discovery index instead of client-supplied hops.
    if (operands.size() == 1 && operands[0].starts_with('@')) {
        std::size_t index = 0;
        if (!util::parse_number(operands[0].substr(1), index)) {
            return err("bad path index '" + std::string(operands[0]) + "'");
        }
        const auto profile = engine.measured_path(index);
        if (!profile) return err(profile.error().message);
        return render_profile(profile.value());
    }
    std::vector<net::IPv4Address> hops;
    hops.reserve(operands.size());
    for (const std::string_view operand : operands) {
        auto address = net::IPv4Address::parse(operand);
        if (!address) return err("bad address '" + std::string(operand) + "'");
        hops.push_back(address.value());
    }
    return render_profile(engine.path_profile(hops));
}

std::string handle_path_census(CensusService& service) {
    if (!service.has_path_source()) {
        return err("no path source configured (path censuses need traceroute discovery)");
    }
    const PathCensusResult result = service.run_path_census_now();
    std::ostringstream out;
    out << "OK version=" << result.version << " paths=" << result.paths
        << " hops=" << result.hops_listed << " targets=" << result.targets
        << " duplicates=" << result.duplicates_collapsed
        << " unroutable=" << result.unroutable_dropped;
    return out.str();
}

std::string handle_diff(const QueryEngine& engine, std::string_view from_text,
                        std::string_view to_text) {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    if (!util::parse_number(from_text, from) || !util::parse_number(to_text, to)) {
        return err("bad version operand");
    }
    const auto result = engine.diff(from, to);
    if (!result) return err(result.error().message);
    const SnapshotDiff& diff = result.value();
    std::ostringstream out;
    out << "OK from=" << diff.from_version << " to=" << diff.to_version
        << " common=" << diff.stability.common_ips
        << " identical=" << diff.stability.identical_signature
        << " changed=" << diff.stability.changed_signature
        << " vendor_changed=" << diff.stability.vendor_changed
        << " stability=" << diff.stability.stability()
        << " from_passes=" << diff.from_pass_stats.size()
        << " to_passes=" << diff.to_pass_stats.size();
    return out.str();
}

std::string handle_export(const QueryEngine& engine) {
    const std::shared_ptr<const Snapshot> snapshot = engine.snapshot();
    if (snapshot == nullptr) return err("no snapshot published");
    // One record expanded at a time: the CSV is the only copy of the
    // snapshot this answer builds.
    std::ostringstream out;
    io::write_measurement_csv_header(out);
    for (const core::CompactRecord& record : snapshot->records()) {
        io::write_measurement_csv_row(out, record.to_record());
    }
    return std::move(out).str();
}

}  // namespace

std::vector<std::uint8_t> encode_frame(std::string_view payload) {
    const auto size = static_cast<std::uint32_t>(payload.size());
    std::vector<std::uint8_t> frame;
    frame.reserve(4 + payload.size());
    frame.push_back(static_cast<std::uint8_t>(size & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((size >> 8) & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((size >> 16) & 0xFF));
    frame.push_back(static_cast<std::uint8_t>((size >> 24) & 0xFF));
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
    if (error_) return;
    if (consumed_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<std::string> FrameDecoder::next() {
    const std::size_t available = buffer_.size() - consumed_;
    if (error_ || available < 4) return std::nullopt;
    const std::uint8_t* head = buffer_.data() + consumed_;
    const std::uint32_t length = static_cast<std::uint32_t>(head[0]) |
                                 (static_cast<std::uint32_t>(head[1]) << 8) |
                                 (static_cast<std::uint32_t>(head[2]) << 16) |
                                 (static_cast<std::uint32_t>(head[3]) << 24);
    if (length == 0) {
        error_ = true;
        error_reason_ = "zero-length frame";
        return std::nullopt;
    }
    if (length > max_payload_) {
        error_ = true;
        error_reason_ = "frame of " + std::to_string(length) +
                        " bytes exceeds the cap of " + std::to_string(max_payload_);
        return std::nullopt;
    }
    if (available - 4 < length) return std::nullopt;
    std::string payload(reinterpret_cast<const char*>(head + 4), length);
    consumed_ += 4 + std::size_t{length};
    if (consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    }
    return payload;
}

#ifndef _WIN32

bool write_frame(int fd, std::string_view payload) {
    const std::vector<std::uint8_t> frame = encode_frame(payload);
    std::size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n = ::write(fd, frame.data() + written, frame.size() - written);
        if (n <= 0) return false;
        written += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string> read_frame(int fd) {
    FrameDecoder decoder;
    std::uint8_t chunk[4096];
    while (true) {
        if (auto payload = decoder.next()) return payload;
        if (decoder.error()) return std::nullopt;
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) return std::nullopt;
        decoder.feed(chunk, static_cast<std::size_t>(n));
    }
}

#endif  // !_WIN32

bool runs_census(std::string_view request) {
    const std::size_t start = request.find_first_not_of(' ');
    if (start == std::string_view::npos) return false;
    const std::string_view verb = request.substr(start, request.find(' ', start) - start);
    return verb == "TRIGGER" || verb == "PATHCENSUS";
}

RequestOutcome handle_request(std::string_view request, CensusService& service,
                              const QueryEngine& engine) {
    const std::vector<std::string_view> words = split_words(request);
    if (words.empty()) return {err("empty request"), false};
    const std::string_view verb = words[0];
    const std::span<const std::string_view> operands(words.data() + 1, words.size() - 1);

    if (verb == "PING") {
        if (!operands.empty()) return {err("PING takes no operands"), false};
        return {"OK pong", false};
    }
    if (verb == "STATS") {
        if (!operands.empty()) return {err("STATS takes no operands"), false};
        return {handle_stats(service, engine), false};
    }
    if (verb == "VENDOR") {
        if (operands.size() != 1) return {err("usage: VENDOR <ip>"), false};
        return {handle_vendor(engine, operands[0]), false};
    }
    if (verb == "ASMIX") {
        if (operands.size() != 1) return {err("usage: ASMIX <asn>"), false};
        return {handle_asmix(engine, operands[0]), false};
    }
    if (verb == "PATH") {
        if (operands.empty()) return {err("usage: PATH <ip> [<ip>...] | PATH @<index>"), false};
        return {handle_path(engine, operands), false};
    }
    if (verb == "PATHCENSUS") {
        if (!operands.empty()) return {err("PATHCENSUS takes no operands"), false};
        return {handle_path_census(service), false};
    }
    if (verb == "DIFF") {
        if (operands.size() != 2) return {err("usage: DIFF <from-version> <to-version>"), false};
        return {handle_diff(engine, operands[0], operands[1]), false};
    }
    if (verb == "EXPORT") {
        if (!operands.empty()) return {err("EXPORT takes no operands"), false};
        return {handle_export(engine), false};
    }
    if (verb == "TRIGGER") {
        if (!operands.empty()) return {err("TRIGGER takes no operands"), false};
        return {"OK version=" + std::to_string(service.run_census_now()), false};
    }
    if (verb == "SHUTDOWN") {
        if (!operands.empty()) return {err("SHUTDOWN takes no operands"), false};
        return {"OK bye", true};
    }
    return {err("unknown command '" + std::string(verb) + "'"), false};
}

}  // namespace lfp::serve

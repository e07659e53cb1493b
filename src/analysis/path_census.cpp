#include "analysis/path_census.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/topology.hpp"

namespace lfp::analysis {

namespace {

double env_double(const char* name, double fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE) {
        throw std::invalid_argument(std::string(name) + "=\"" + value + "\" is not a number");
    }
    return parsed;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const std::uint64_t parsed = std::strtoull(value, &end, 10);
    // strtoull silently wraps negative input ("-1" -> 2^64-1), so reject a
    // minus sign explicitly.
    if (end == value || *end != '\0' || errno == ERANGE ||
        std::string_view(value).find('-') != std::string_view::npos) {
        throw std::invalid_argument(std::string(name) + "=\"" + value +
                                    "\" is not an unsigned integer");
    }
    return parsed;
}

}  // namespace

PathCensusConfig PathCensusConfig::from_env() { return from_env(PathCensusConfig{}); }

PathCensusConfig PathCensusConfig::from_env(PathCensusConfig base) {
    base.seed = env_u64("LFP_PATH_SEED", base.seed);
    base.sources = static_cast<std::size_t>(env_u64("LFP_PATH_SOURCES", base.sources));
    base.destinations = static_cast<std::size_t>(env_u64("LFP_PATH_DESTS", base.destinations));
    base.flows_per_pair = static_cast<std::size_t>(env_u64("LFP_PATH_FLOWS", base.flows_per_pair));
    base.stale_fraction = env_double("LFP_PATH_STALE", base.stale_fraction);
    base.private_fraction = env_double("LFP_PATH_PRIVATE", base.private_fraction);
    base.db_min_occurrences =
        static_cast<std::size_t>(env_u64("LFP_PATH_DB_MIN", base.db_min_occurrences));
    base.validate();
    return base;
}

void PathCensusConfig::validate() const {
    if (sources == 0) {
        throw std::invalid_argument(
            "PathCensusConfig: sources (LFP_PATH_SOURCES) must be >= 1 — a sweep needs a "
            "vantage point");
    }
    if (sources > kMaxSources) {
        throw std::invalid_argument("PathCensusConfig: sources (LFP_PATH_SOURCES) = " +
                                    std::to_string(sources) + " exceeds the ceiling of " +
                                    std::to_string(kMaxSources));
    }
    if (destinations == 0) {
        throw std::invalid_argument(
            "PathCensusConfig: destinations (LFP_PATH_DESTS) must be >= 1");
    }
    if (destinations > kMaxDestinations) {
        throw std::invalid_argument("PathCensusConfig: destinations (LFP_PATH_DESTS) = " +
                                    std::to_string(destinations) + " exceeds the ceiling of " +
                                    std::to_string(kMaxDestinations));
    }
    if (flows_per_pair == 0 || flows_per_pair > kMaxFlows) {
        throw std::invalid_argument("PathCensusConfig: flows_per_pair (LFP_PATH_FLOWS) = " +
                                    std::to_string(flows_per_pair) + " must be in [1, " +
                                    std::to_string(kMaxFlows) + "]");
    }
    auto check_fraction = [](const char* what, double value) {
        if (!(value >= 0.0) || !(value <= 1.0)) {
            throw std::invalid_argument(std::string("PathCensusConfig: ") + what + " = " +
                                        std::to_string(value) + " must be in [0, 1]");
        }
    };
    check_fraction("stale_fraction (LFP_PATH_STALE)", stale_fraction);
    check_fraction("private_fraction (LFP_PATH_PRIVATE)", private_fraction);
    if (db_min_occurrences == 0) {
        throw std::invalid_argument(
            "PathCensusConfig: db_min_occurrences (LFP_PATH_DB_MIN) must be >= 1 — a "
            "signature seen zero times cannot be admitted");
    }
}

std::vector<std::vector<net::IPv4Address>> PathDiscovery::hop_lists() const {
    std::vector<std::vector<net::IPv4Address>> out;
    out.reserve(traces.size());
    for (const sim::Traceroute& trace : traces) out.push_back(trace.hops);
    return out;
}

PathCensus::PathCensus(const sim::Topology& topology, PathCensusConfig config)
    : topology_(&topology), config_(config) {
    config_.validate();
}

PathDiscovery PathCensus::discover() const {
    PathDiscovery out;

    // Vantage and destination selection: a deterministic shuffle of the AS
    // list driven purely by the sweep seed. The first `sources` ASes become
    // vantages, the next `destinations` the hitlist (wrapping when the
    // topology is smaller than the ask — small test worlds may trace within
    // one AS, which the synthesizer handles).
    const std::vector<sim::AsNode>& nodes = topology_->graph().nodes();
    if (nodes.empty()) return out;
    std::vector<std::uint32_t> asns;
    asns.reserve(nodes.size());
    for (const sim::AsNode& node : nodes) asns.push_back(node.asn);
    util::Rng rng(config_.seed ^ 0xA17D0C5E5u);
    for (std::size_t i = asns.size(); i > 1; --i) {
        std::swap(asns[i - 1], asns[rng.below(i)]);
    }
    for (std::size_t s = 0; s < config_.sources; ++s) {
        out.sources.push_back(asns[s % asns.size()]);
    }
    for (std::size_t d = 0; d < config_.destinations; ++d) {
        out.destinations.push_back(asns[(config_.sources + d) % asns.size()]);
    }

    // The sweep itself: every (source, destination, flow) triple in
    // source-major order, through the deterministic per-flow entry point —
    // flow f of a pair is always flow f, so two sweeps over the same world
    // list identical paths hop for hop.
    sim::TracerouteSynthesizer synthesizer(*topology_, config_.seed);
    synthesizer.set_noise(config_.stale_fraction, config_.private_fraction);
    for (std::size_t s = 0; s < out.sources.size(); ++s) {
        for (const std::uint32_t destination : out.destinations) {
            bool reachable = false;
            for (std::size_t flow = 0; flow < config_.flows_per_pair; ++flow) {
                auto trace = synthesizer.trace(out.sources[s], destination, flow);
                if (!trace) break;  // no valley-free route for any flow
                reachable = true;
                out.traces.push_back(std::move(*trace));
                out.trace_source.push_back(static_cast<std::uint32_t>(s));
            }
            if (!reachable) ++out.unreachable_pairs;
        }
    }
    return out;
}

PathCensusResult PathCensus::run(core::CensusRunner& runner,
                                 const core::SignatureDatabase* database) const {
    PathCensusResult result;
    result.discovery = discover();

    const std::vector<std::vector<net::IPv4Address>> paths = result.discovery.hop_lists();
    core::CollectingSink collect("path-census");
    runner.stream_paths(paths, result.discovery.trace_source, 0, collect);
    result.measurement = collect.take();
    result.targets = runner.last_path_targets();
    result.pass_stats = runner.last_pass_stats();

    // Classification: against the caller's database when given, otherwise
    // self-calibrating — the database aggregates from this measurement's own
    // SNMP-labeled population, exactly like the batch pipeline's step 3.
    if (database != nullptr) {
        runner.classify(result.measurement, *database);
    } else {
        const core::SignatureDatabase own =
            runner.build_database(std::span(&result.measurement, 1),
                                  {.min_occurrences = config_.db_min_occurrences});
        runner.classify(result.measurement, own);
    }

    // Response-level staleness: an address-level filter cannot see phantom
    // interfaces (routable addresses bound to no router), but they are the
    // only targets that answer *nothing* across every pass in a loss-free
    // world — and stay the overwhelming majority of silent targets in a
    // lossy one, since real targets get passes * 10 chances.
    for (const core::TargetRecord& record : result.measurement.records) {
        if (!record.responsive()) ++result.stale_unresponsive;
    }

    result.vendors = VendorMap::from_measurement(result.measurement, config_.method);
    return result;
}

VendorMap PathCensus::ground_truth(const core::PathTargets& targets) const {
    VendorMap truth;
    for (const net::IPv4Address address : targets.targets) {
        const std::size_t index = topology_->find_by_interface(address);
        if (index == sim::Topology::npos) continue;  // phantom: no router, no vendor
        truth.assign(address, topology_->router(index).vendor());
    }
    return truth;
}

PathAgreement PathCensus::agreement(const VendorMap& measured, const VendorMap& truth,
                                    const core::PathTargets& targets) {
    PathAgreement out;
    out.hops = targets.targets.size();
    for (const net::IPv4Address address : targets.targets) {
        const auto expected = truth.lookup(address);
        const auto observed = measured.lookup(address);
        if (expected) ++out.truth_known;
        if (observed) ++out.measured_known;
        if (expected && observed) {
            ++out.both_known;
            if (*expected == *observed) ++out.matches;
        }
    }
    return out;
}

PathStats PathCensusResult::stats(const sim::Topology& topology, PathScope scope,
                                  PathAnalysisConfig config) const {
    const PathAnalyzer analyzer(topology, vendors);
    return analyzer.analyze(discovery.traces, scope, config);
}

}  // namespace lfp::analysis

// lfp_census: one deterministic census over the simulated Internet, as a
// standalone process — the operator-shaped entry point the robustness smoke
// scripts drive.
//
// The world is rebuilt from fixed seeds, so two invocations with the same
// flags produce byte-identical CSV — which is what makes the script-level
// checks meaningful:
//
//   - fault matrix: every LFP_FAULT_* knob applies here (the transport is
//     wrapped in a FaultInjectingTransport whenever any fault rate is set),
//     so `LFP_FAULT_CORRUPT=0.2 lfp_census` is a whole census under
//     deterministic damage — it must complete and exit 0, never crash;
//   - kill-and-resume: with --checkpoint-dir the spilled multi-pass census
//     journals a manifest at every pass boundary; SIGKILL this process
//     mid-run, rerun it with the same flags, and the resumed CSV must be
//     byte-identical to an uninterrupted run (tools/resume_smoke.sh).
//
// The measurement CSV goes to --out (default stdout); progress and fault
// tallies go to stderr, so `lfp_census > census.csv` stays clean.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/path_census.hpp"
#include "core/census.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "sim/faults.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "util/strings.hpp"

namespace {

using namespace lfp;

struct CensusArgs {
    std::size_t target_limit = 400;  // 0 = every router
    std::size_t passes = 3;
    double pps = 0.0;  // 0 = unpaced
    double loss_rate = 0.03;
    double scale = 0.5;
    std::string checkpoint_dir;
    std::string out;  // empty = stdout
    /// Path-census mode (--paths N): traceroute N destinations from
    /// --path-sources vantages, collapse the discovered hops into the
    /// target list, and census those instead of the router roster.
    std::size_t path_destinations = 0;  // 0 = classic roster census
    std::size_t path_sources = 4;
    std::size_t path_flows = 1;
    std::size_t vantages = 1;  ///< census lanes (path mode only)
};

void usage(std::ostream& out) {
    out << "usage: lfp_census [--targets N] [--passes N] [--pps RATE] [--loss RATE]\n"
           "                  [--scale S] [--checkpoint-dir PATH] [--out PATH]\n"
           "                  [--paths N [--path-sources N] [--flows N] [--vantages N]]\n"
           "Runs one deterministic multi-pass census over the simulated Internet and\n"
           "writes the measurement CSV to --out (default stdout). Identical flags give\n"
           "byte-identical CSV. --checkpoint-dir enables crash-tolerant resume: a run\n"
           "killed mid-pass continues at the last pass boundary when rerun.\n"
           "--paths N switches to path-census mode: traceroute N destinations from\n"
           "--path-sources vantage ASes, dedup the discovered hops, and census those\n"
           "as the target list across --vantages lanes (the CSV is byte-identical at\n"
           "any lane count; a per-path summary goes to stderr).\n"
           "Environment: LFP_FAULT_* (deterministic fault injection),\n"
           "             LFP_WATCHDOG_MS, LFP_CHECKPOINT_DIR; path mode also honors\n"
           "             LFP_PATH_SEED/SOURCES/DESTS/FLOWS/STALE/PRIVATE overrides.\n";
}

/// The path-census leg: discovery, hop census, classification, and the
/// measured-vs-ground-truth summary — the CSV still goes through the same
/// --out plumbing as the classic census.
int run_path_census(const CensusArgs& args, sim::Topology& topology, sim::Internet& internet,
                    const sim::FaultPlan& fault_plan, core::Measurement& measurement) {
    analysis::PathCensusConfig config;
    config.sources = args.path_sources;
    config.destinations = args.path_destinations;
    config.flows_per_pair = args.path_flows;
    config = analysis::PathCensusConfig::from_env(config);

    // One transport per census lane; the traceroute *discovery* vantages
    // are config.sources and do not vary with the lane count, so the lane
    // count changes probing parallelism only, never the measured bytes.
    std::vector<std::unique_ptr<probe::SimTransport>> transports;
    std::vector<std::unique_ptr<sim::FaultInjectingTransport>> faulted;
    core::CensusPlan plan;
    plan.name = "path-census";
    for (std::size_t lane = 0; lane < args.vantages; ++lane) {
        transports.push_back(std::make_unique<probe::SimTransport>(internet));
        if (fault_plan.any()) {
            faulted.push_back(
                std::make_unique<sim::FaultInjectingTransport>(*transports.back(), fault_plan));
            plan.vantages.push_back(faulted.back().get());
        } else {
            plan.vantages.push_back(transports.back().get());
        }
    }
    plan.campaign.window = 16;
    plan.campaign.packets_per_second = args.pps;
    plan.passes = args.passes;

    core::CensusRunner runner(std::move(plan));
    const analysis::PathCensus census(topology, config);
    analysis::PathCensusResult result = census.run(runner);

    const analysis::VendorMap truth = census.ground_truth(result.targets);
    const analysis::PathAgreement agreement =
        analysis::PathCensus::agreement(result.vendors, truth, result.targets);
    const analysis::PathStats stats = result.stats(topology, analysis::PathScope::all);

    std::cerr << "lfp_census: path census: " << result.discovery.traces.size() << " paths ("
              << config.sources << " sources x " << config.destinations << " destinations, "
              << result.discovery.unreachable_pairs << " unreachable), "
              << result.targets.hops_listed << " hops -> " << result.targets.targets.size()
              << " targets (" << result.targets.duplicates_collapsed << " duplicates, "
              << result.targets.unroutable_dropped << " unroutable dropped)\n";
    std::cerr << "lfp_census: " << result.measurement.records.size() << " targets, "
              << result.pass_stats.size() << " passes, " << runner.packets_sent()
              << " packets sent, " << runner.responses_received() << " responses, "
              << result.stale_unresponsive << " stale-unresponsive\n";
    std::cerr << "lfp_census: vs ground truth: accuracy=" << agreement.accuracy()
              << " coverage=" << agreement.coverage() << " (truth=" << agreement.truth_known
              << " measured=" << agreement.measured_known << " of " << agreement.hops
              << " hops); paths considered=" << stats.paths_considered
              << " median vendors/path="
              << (stats.vendors_per_path.empty() ? 0.0 : stats.vendors_per_path.quantile(0.5))
              << '\n';

    measurement = std::move(result.measurement);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    CensusArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) return std::nullopt;
            return std::string(argv[++i]);
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return 0;
        }
        std::optional<std::string> value;
        bool parsed = true;
        if (flag == "--targets" && (value = next())) {
            parsed = util::parse_number(*value, args.target_limit);
        } else if (flag == "--passes" && (value = next())) {
            parsed = util::parse_number(*value, args.passes);
        } else if (flag == "--pps" && (value = next())) {
            parsed = util::parse_number(*value, args.pps);
        } else if (flag == "--loss" && (value = next())) {
            parsed = util::parse_number(*value, args.loss_rate);
        } else if (flag == "--scale" && (value = next())) {
            parsed = util::parse_number(*value, args.scale);
        } else if (flag == "--checkpoint-dir" && (value = next())) {
            args.checkpoint_dir = *value;
        } else if (flag == "--out" && (value = next())) {
            args.out = *value;
        } else if (flag == "--paths" && (value = next())) {
            parsed = util::parse_number(*value, args.path_destinations);
        } else if (flag == "--path-sources" && (value = next())) {
            parsed = util::parse_number(*value, args.path_sources);
        } else if (flag == "--flows" && (value = next())) {
            parsed = util::parse_number(*value, args.path_flows);
        } else if (flag == "--vantages" && (value = next())) {
            parsed = util::parse_number(*value, args.vantages);
        } else {
            parsed = false;
        }
        if (!parsed) {
            std::cerr << "lfp_census: bad argument '" << flag
                      << (value ? " " + *value : std::string()) << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    try {
        sim::Topology topology = sim::Topology::build({.seed = 77,
                                                       .num_ases = 150,
                                                       .tier1_count = 4,
                                                       .transit_fraction = 0.2,
                                                       .scale = args.scale});
        sim::Internet internet(topology, {.seed = 13, .loss_rate = args.loss_rate});

        // Fault injection rides in via the environment: wrap only when some
        // class can actually fire, so the healthy path stays undecorated.
        const sim::FaultPlan fault_plan = sim::FaultPlan::from_env();

        if (args.path_destinations != 0) {
            core::Measurement measurement;
            const int status =
                run_path_census(args, topology, internet, fault_plan, measurement);
            if (status != 0) return status;
            if (args.out.empty()) {
                io::export_measurement_csv(std::cout, measurement);
                if (!std::cout) {
                    std::cerr << "lfp_census: write to stdout failed\n";
                    return 1;
                }
            } else {
                std::ofstream out(args.out);
                if (!out) {
                    std::cerr << "lfp_census: cannot write " << args.out << '\n';
                    return 1;
                }
                io::export_measurement_csv(out, measurement);
                if (!out) {
                    std::cerr << "lfp_census: write to " << args.out << " failed\n";
                    return 1;
                }
            }
            return 0;
        }

        probe::SimTransport transport(internet);
        std::unique_ptr<sim::FaultInjectingTransport> faulted;
        probe::ProbeTransport* vantage = &transport;
        if (fault_plan.any()) {
            faulted = std::make_unique<sim::FaultInjectingTransport>(transport, fault_plan);
            vantage = faulted.get();
        }

        core::CensusPlan plan;
        plan.name = "census";
        for (std::size_t i = 0; i < topology.router_count(); ++i) {
            if (args.target_limit != 0 && plan.targets.size() >= args.target_limit) break;
            plan.targets.push_back(topology.router(i).interfaces().front());
        }
        plan.vantages.push_back(vantage);
        plan.campaign.window = 16;
        plan.campaign.packets_per_second = args.pps;
        plan.passes = args.passes;
        if (!args.checkpoint_dir.empty()) {
            plan.checkpoint_dir = args.checkpoint_dir;
            plan.spill = true;
            plan.spill_config.segment_records = 64;
        }

        core::CensusRunner runner(std::move(plan));
        const core::Measurement measurement =
            runner.measure_passes(runner.plan().name, runner.plan().targets);

        if (runner.resumed_from_checkpoint()) {
            std::cerr << "lfp_census: resumed from checkpoint in " << args.checkpoint_dir
                      << '\n';
        }
        std::cerr << "lfp_census: " << measurement.records.size() << " targets, "
                  << runner.last_pass_stats().size() << " passes, "
                  << runner.packets_sent() << " packets sent, "
                  << runner.responses_received() << " responses\n";
        if (faulted) {
            std::cerr << "lfp_census: injected " << faulted->injected_total()
                      << " faults (send=" << faulted->send_faults()
                      << " truncate=" << faulted->truncated()
                      << " corrupt=" << faulted->corrupted()
                      << " duplicate=" << faulted->duplicated()
                      << " reorder=" << faulted->reordered()
                      << " stall=" << faulted->stalled() << ")\n";
        }

        if (args.out.empty()) {
            io::export_measurement_csv(std::cout, measurement);
            if (!std::cout) {
                std::cerr << "lfp_census: write to stdout failed\n";
                return 1;
            }
        } else {
            std::ofstream out(args.out);
            if (!out) {
                std::cerr << "lfp_census: cannot write " << args.out << '\n';
                return 1;
            }
            io::export_measurement_csv(out, measurement);
            if (!out) {
                std::cerr << "lfp_census: write to " << args.out << " failed\n";
                return 1;
            }
        }
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "lfp_census: " << error.what() << '\n';
        return 1;
    }
}

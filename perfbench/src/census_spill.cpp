// census-spill: the stateless sim::ScaleTransport world (65% responsive, 2%
// loss) on one vantage lane, two passes with plan.spill through
// CensusRunner::stream_passes into the benchmark's checking sink. The
// engine stages and the hash responder carry the work: targets share
// nothing, and every record is spilled to disk and read back.
#include <iostream>
#include <memory>

#include "census_common.hpp"
#include "sim/scale_world.hpp"

namespace lfpbench {
namespace {

/// Targets per census and records per spill segment: a census runs ~1.5 s
/// on a 4-core Xeon host and spills four segments, so a run holds a dozen
/// censuses and a burst of host noise moves few of them.
constexpr std::size_t kTargets = 50'000;
constexpr std::size_t kSegmentRecords = std::size_t{1} << 14;
constexpr int kSetups = 5;

/// One census's inputs and engine, built by the set-up step.
struct Census {
    std::vector<lfp::net::IPv4Address> targets;
    std::unique_ptr<lfp::sim::ScaleTransport> world;
    std::unique_ptr<Lanes> lanes;
    std::unique_ptr<lfp::core::CensusRunner> runner;
};

/// Agreement of the record stream with the hash world's personas: a
/// record matches when every protocol the persona answers drew all its
/// rounds and every other protocol drew none.
struct PersonaAgreement {
    std::uint64_t truth_responsive = 0;
    std::uint64_t measured_responsive = 0;
    std::uint64_t covered = 0;
    std::uint64_t matching = 0;
};

/// Folds one record into the agreement tally.
void agree(PersonaAgreement& out, const lfp::sim::ScaleTransport& world,
           const lfp::core::TargetRecord& record) {
    const auto persona = world.persona_for(record.probes.target);
    const bool truth[3] = {persona.exists && persona.responds_icmp,
                           persona.exists && persona.responds_tcp,
                           persona.exists && persona.responds_udp};
    const bool truth_any = truth[0] || truth[1] || truth[2];
    bool same = true;
    for (std::size_t p = 0; p < 3; ++p) {
        const std::size_t answered =
            record.probes.responses_for(static_cast<lfp::probe::ProtoIndex>(p));
        same = same && answered == (truth[p] ? lfp::probe::kRoundsPerProtocol : 0);
    }
    const bool measured_any = record.probes.any_response();
    out.truth_responsive += truth_any;
    out.measured_responsive += measured_any;
    out.covered += truth_any && measured_any;
    out.matching += measured_any && same;
}

}  // namespace

int run_census_spill(const Args& args, Report& report, Tracer& tracer) {
    // Inputs from the seed: the world's hash seed and the address block.
    const std::uint32_t base = 0x0B000000u + static_cast<std::uint32_t>((args.seed % 4096) << 12);
    const std::string spill_dir = make_private_dir(args.work_dir, "spill-");
    struct Cleanup {
        std::string dir;
        ~Cleanup() { remove_tree(dir); }
    } cleanup{spill_dir};

    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    std::optional<std::uint64_t> reference_digest;
    std::uint64_t last_digest = 0;
    PersonaAgreement agreement;
    const auto set_up = [&](bool timed) {
        Census census;
        census.targets.reserve(kTargets);
        for (std::size_t t = 0; t < kTargets; ++t) {
            census.targets.emplace_back(base + static_cast<std::uint32_t>(t));
        }
        census.world = std::make_unique<lfp::sim::ScaleTransport>(lfp::sim::ScaleWorldConfig{
            .seed = args.seed, .responsive_fraction = 0.65, .loss_rate = 0.02});
        lfp::probe::ProbeTransport* inner[] = {census.world.get()};
        census.lanes = std::make_unique<Lanes>(inner, timed);
        lfp::core::CensusPlan plan;
        plan.name = "census-spill";
        plan.vantages = census.lanes->vantages();
        plan.campaign.window = 256;
        plan.campaign.keep_request_bytes = false;
        plan.campaign.response_timeout = std::chrono::milliseconds(250);
        plan.passes = 2;
        plan.spill = true;
        plan.spill_config.directory = spill_dir;
        plan.spill_config.segment_records = kSegmentRecords;
        census.runner = std::make_unique<lfp::core::CensusRunner>(std::move(plan));
        return census;
    };
    const auto run_start = Clock::now();

    // A traced run measures one untraced census first: its digest and rate
    // are the references for the traced censuses that follow.
    for (std::size_t i = 0;; ++i) {
        const bool timed = args.trace && i > 0;
        // At least three censuses; no census that would end past --seconds.
        const double last_s = untraced.empty() && traced.empty()
                                  ? 0.0
                                  : (traced.empty() ? untraced : traced).back().wall_s;
        if (i >= 3 && seconds_since(run_start) + last_s > args.seconds) break;

        // Set-up is cheap next to a census, so it is repeated and the
        // median taken; the last one serves the census.
        Iteration it;
        std::vector<double> setups;
        Census census;
        for (int k = 0; k < kSetups; ++k) {
            const auto setup_start = Clock::now();
            Census next = set_up(timed);
            setups.push_back(seconds_since(setup_start));
            census = std::move(next);
        }
        it.setup_s = median(setups);
        const auto& targets = census.targets;
        lfp::core::CensusRunner& runner = *census.runner;
        const Lanes& lanes = *census.lanes;
        // The first census also scores its records against the personas.
        CheckingSink::Observer observe;
        if (i == 0) {
            const lfp::sim::ScaleTransport* world = census.world.get();
            observe = [&agreement, world](const lfp::core::TargetRecord& record) {
                agree(agreement, *world, record);
            };
        }
        CheckingSink sink(kTargets, /*keep=*/false, std::move(observe));

        set_alloc_counting(timed);
        const AllocCounts allocs_before = alloc_counts();
        const IoCounters io_before = io_counters();
        const double cpu_before = process_cpu_s();
        const auto start = Clock::now();
        {
            ScopedSpan span(tracer, "core.stream_passes", i);
            runner.stream_passes(targets, {}, 2, sink);
        }
        const auto end = Clock::now();
        it.cpu_s = process_cpu_s() - cpu_before;
        const IoCounters io_after = io_counters();
        const AllocCounts allocs_after = alloc_counts();
        set_alloc_counting(false);

        it.wall_s = seconds_between(start, end);
        it.targets = kTargets;
        it.io = {io_after.read_bytes - io_before.read_bytes,
                 io_after.write_bytes - io_before.write_bytes};
        for (std::size_t s = 0; s < it.allocs.size(); ++s) {
            it.allocs[s] = allocs_after[s] - allocs_before[s];
        }
        read_sink(it, sink, start);
        read_census(it, lanes, runner);
        read_waits(it, sink.waits_us());

        // Output checks: a gap-free in-order stream of every target, one
        // finish, a retry pass that repaired something, and the same digest
        // as every other census of this run (traced or not).
        report.attempt(kTargets);
        const std::uint64_t missing = kTargets - std::min<std::uint64_t>(kTargets, sink.records());
        if (missing + sink.out_of_order() > 0) {
            report.fail("census-spill: " + std::to_string(missing) + " missing and " +
                            std::to_string(sink.out_of_order()) + " out-of-order records",
                        missing + sink.out_of_order());
        }
        report.check(sink.finishes() == 1, "census-spill: sink finished exactly once");
        report.check(it.upgraded > 0, "census-spill: the second pass upgraded a target");
        last_digest = sink.digest();
        if (!reference_digest) {
            reference_digest = sink.digest();
        } else if (sink.digest() != *reference_digest) {
            report.fail("census-spill: record digest " + hex(sink.digest()) + " != " +
                            hex(*reference_digest) + (timed ? " (traced)" : ""),
                        kTargets);
        }
        (timed ? traced : untraced).push_back(it);
    }

    std::cout << "census-spill: " << untraced.size() + traced.size() << " censuses of " << kTargets
              << " targets, record digest " << hex(last_digest) << '\n';
    if (args.trace) {
        report_census_layers(report, traced, untraced.front().targets_per_s());
    } else {
        report_census_e2e(report, untraced);
        report.metric("path_accuracy",
                      static_cast<double>(agreement.matching) /
                          static_cast<double>(agreement.measured_responsive),
                      "ratio");
        report.metric("path_coverage",
                      static_cast<double>(agreement.covered) /
                          static_cast<double>(agreement.truth_responsive),
                      "ratio");
    }
    return 0;
}

}  // namespace lfpbench

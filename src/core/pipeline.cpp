#include "core/pipeline.hpp"

namespace lfp::core {

namespace {

CensusPlan single_vantage_plan(probe::ProbeTransport& transport, const PipelineConfig& config) {
    CensusPlan plan;
    plan.vantages = {&transport};
    plan.campaign = config.campaign;
    plan.extractor = config.extractor;
    plan.worker_threads = config.worker_threads;
    plan.shard_grain = config.shard_grain;
    return plan;
}

}  // namespace

LfpPipeline::LfpPipeline(probe::ProbeTransport& transport, PipelineConfig config)
    : runner_(single_vantage_plan(transport, config)) {}

Measurement LfpPipeline::measure(std::string name, std::span<const net::IPv4Address> targets) {
    return runner_.measure_passes(std::move(name), targets, {}, 1);
}

SignatureDatabase LfpPipeline::build_database(std::span<const Measurement> measurements,
                                              SignatureDbConfig config,
                                              std::size_t worker_threads) {
    util::ThreadPool pool(worker_threads);
    return build_signature_database(measurements, config, pool);
}

void LfpPipeline::classify_measurement(Measurement& measurement,
                                       const SignatureDatabase& database,
                                       LfpClassifier::Options options,
                                       std::size_t worker_threads, std::size_t shard_grain) {
    util::ThreadPool pool(worker_threads);
    classify_records(measurement, database, options, pool, shard_grain);
}

}  // namespace lfp::core

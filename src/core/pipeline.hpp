// End-to-end LFP pipeline (paper Figure 1): probe targets, extract features,
// label via SNMPv3, build the signature database, classify.
//
// LfpPipeline is the classic single-transport entry point, kept as a thin
// single-vantage wrapper over the CensusRunner (core/census.hpp) — measure()
// is a one-pass CensusRunner::measure_passes() — so existing call sites keep
// compiling. New code — anything that wants several vantage transports,
// explicit lane assignment, more passes, or incremental record consumption
// — should build a CensusPlan and drive a CensusRunner (stream_passes()
// with a RecordSink chain) directly.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/census.hpp"
#include "core/labeler.hpp"
#include "core/measurement.hpp"

namespace lfp::core {

struct PipelineConfig {
    probe::Campaign::Config campaign;
    FeatureExtractorConfig extractor;
    /// Worker pool size for sharded feature extraction and classification.
    /// 1 = single-threaded (default), 0 = one shard per hardware thread.
    /// Any value yields identical output: shards are merged by target index.
    std::size_t worker_threads = 1;
    /// Records per extraction shard.
    std::size_t shard_grain = 64;
};

class LfpPipeline {
  public:
    explicit LfpPipeline(probe::ProbeTransport& transport)
        : LfpPipeline(transport, PipelineConfig{}) {}
    LfpPipeline(probe::ProbeTransport& transport, PipelineConfig config);

    /// Probes every target and assembles records (steps 1-2 of Figure 1).
    [[nodiscard]] Measurement measure(std::string name,
                                      std::span<const net::IPv4Address> targets);

    [[nodiscard]] std::uint64_t packets_sent() const noexcept {
        return runner_.packets_sent();
    }

    /// Builds the signature database from the labeled subset of the given
    /// measurements (step 3). Returns a finalized database. Aggregation is
    /// sharded per measurement across `worker_threads` (1 = serial, 0 = one
    /// per hardware thread); the merged database is identical at any width.
    [[nodiscard]] static SignatureDatabase build_database(
        std::span<const Measurement> measurements, SignatureDbConfig config = {},
        std::size_t worker_threads = 1);

    /// Classifies every record in place (steps 4-5), sharded across
    /// `worker_threads` with deterministic index-order merge.
    static void classify_measurement(Measurement& measurement,
                                     const SignatureDatabase& database,
                                     LfpClassifier::Options options = {},
                                     std::size_t worker_threads = 1,
                                     std::size_t shard_grain = 64);

  private:
    CensusRunner runner_;
};

}  // namespace lfp::core

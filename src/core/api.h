// uavres public experiment API — the one header a consumer of this library
// (CLI subcommands, benches, the serve daemon, external embedders) includes
// to describe and run experiments.
//
// It promotes the three configuration types that together form an
// experiment's IDENTITY and re-exports them under `uavres::api`:
//
//   * api::ExperimentSpec  — WHAT runs: drone + mission, optional fault,
//     seed base (uav/simulation_runner.h). The identity tuple; hashed by
//     api::ExperimentCacheKey, printed by operator<<, serialized by the
//     serve wire codec (telemetry/spec_codec.h).
//   * api::RunConfig       — HOW one run is harnessed: tracking cadence,
//     bubble risk factor, recording, the recovery axis.
//   * api::CampaignConfig  — HOW a grid executes: durations, threads,
//     cache directory. Construct via CampaignConfig::Builder.
//
// ## Schema versioning (api::kSpecSchemaVersion)
//
// One number versions experiment identity everywhere it crosses a process
// boundary, shared VERBATIM by three consumers:
//
//   1. the serve wire protocol — exchanged in the Hello handshake; a
//      version-skewed client is rejected before any spec is accepted,
//   2. api::ExperimentCacheKey — mixed into every key, so entries written
//      under one schema can never satisfy a lookup from another, and
//   3. the persistent result store — stamped into every on-disk entry.
//
// Bump telemetry::kSpecSchemaVersion (the single definition) whenever the
// wire layout, the key recipe, or any simulation-affecting semantics change
// that the spec fields cannot express. Compatibility rule: client and
// server versions must be EQUAL — there is no negotiation, because a
// skewed spec would silently name a different experiment.
//
// ## Construction discipline
//
// CampaignConfig: treat the struct as read-only and build instances with
// CampaignConfig::Builder (fail-fast validation at Build()) layered over
// CampaignConfig::FromEnvironment() — direct field poking skips validation
// and is deprecated outside the implementation. ExperimentSpec and
// RunConfig are plain aggregates by design (every field combination is
// meaningful); Campaign and SimulationRunner still validate at the point
// of use.
#pragma once

#include "core/campaign.h"
#include "core/fleet.h"
#include "core/result_store.h"

namespace uavres::api {

/// The experiment-identity schema version (see file comment; defined once
/// in telemetry/spec_codec.h).
inline constexpr std::uint32_t kSpecSchemaVersion = telemetry::kSpecSchemaVersion;

// Identity + harness configuration.
using ExperimentSpec = uav::ExperimentSpec;
using RunConfig = uav::RunConfig;
using CampaignConfig = core::CampaignConfig;
using Campaign = core::Campaign;
using CampaignResults = core::CampaignResults;
using MissionResult = core::MissionResult;
using FaultSpec = core::FaultSpec;
using DroneSpec = core::DroneSpec;

// Fleet-scale experiments (DESIGN.md §18): the airspace-level identity
// tuple, its cache key, and the serialized result form fleet runs dedupe
// through the ResultStore with.
using FleetExperimentSpec = core::FleetExperimentSpec;
using FleetScenario = core::FleetScenario;
using FleetRecord = telemetry::FleetRecord;
using core::FleetCacheKey;

/// Stable 64-bit key of one experiment's identity under a given harness
/// config (core/result_store.h).
using core::ExperimentCacheKey;

/// The runner executing one spec (uav/simulation_runner.h).
using SimulationRunner = uav::SimulationRunner;

}  // namespace uavres::api

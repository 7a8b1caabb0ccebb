// Named application models: the paper's PARSEC and SPLASH-2 parallel
// workloads plus the SPEC CPU2006 multiprogrammed mix (§5.1).
#pragma once

#include <string>
#include <vector>

#include "cpu/workload.hpp"

namespace rc {

/// The paper's application models in its evaluation order: 21 parallel
/// applications + "mix". The figures average over these (RC_FULL=1).
const std::vector<std::string>& paper_app_names();

/// Every application model: paper_app_names(), then the two structured
/// sharing-stress generators (producer_consumer, sharing_heavy) that the
/// protocol studies, rc-sim --app and sweep specs may name.
const std::vector<std::string>& app_names();

/// A representative subset used by the fast default bench runs.
const std::vector<std::string>& app_names_small();

/// Profile for a named application; fatal on unknown names.
AppProfile app_profile(const std::string& name);

/// The 16 SPEC CPU2006 models used to build the multiprogrammed mix
/// (§5.1: "16 applications with a large working set", bound one per core;
/// on the 64-core chip each appears four times).
const std::vector<std::string>& spec_app_names();
AppProfile spec_profile(const std::string& name);

/// Per-core profile assignment for a workload name: homogeneous for the
/// parallel apps; for "mix", a seed-shuffled assignment of the 16 SPEC
/// models (each exactly num_cores/16 times).
std::vector<AppProfile> core_profiles(const std::string& workload,
                                      int num_cores, std::uint64_t seed);

}  // namespace rc

#pragma once

#include "common.hpp"

namespace perfbench {

/// Generates the workload's dataset into `out` (created if absent).
void generate_dataset(const WorkloadSpec& spec, const fs::path& out);

}  // namespace perfbench

// Writes one workload's dataset through the workload module, in the same
// on-disk layout `iotscope synth` produces, plus the raw compaction subset
// and the generator's emission counters. Never timed.
//
// The world (inventory, device roles, threat repository, malware corpus)
// is built from the workload module's default seed; the run's seed draws
// the week of traffic. An operator analyzes new weeks against one
// inventory, and a seeded inventory makes the per-record join cost a
// property of the seed: the inventory's open-addressing index places
// skewed's one hot non-inventory source in a probe run whose length
// varies by inventory, which moved skewed's batch speed by up to 65 %
// between seeds.
#include "generate.hpp"

#include <fstream>

#include "intel/synth.hpp"
#include "telescope/capture.hpp"
#include "workload/synth.hpp"

namespace perfbench {

void generate_dataset(const WorkloadSpec& spec, const fs::path& out) {
  namespace telescope = iotscope::telescope;
  const auto& config = spec.scenario;  // traffic: the run's seed
  auto world = config;
  world.seed = iotscope::workload::kDefaultSeed;
  fs::create_directories(out);
  const auto scenario = iotscope::workload::build_scenario(world);
  scenario.inventory.save_csv(out / "inventory.csv");

  telescope::FlowTupleStore store(out / "flowtuples");
  if (spec.compressed) store.set_write_format(telescope::StoreFormat::Compressed);
  // The compaction phase converts these raw hours again on every pass.
  const telescope::FlowTupleStore subset(out / "compact_src");
  telescope::TelescopeCapture capture(
      telescope::DarknetSpace(config.darknet),
      [&](iotscope::net::FlowBatch&& batch) {
        store.put(batch);
        if (in_compaction_subset(batch.interval)) subset.put(batch);
      });
  const auto stats =
      iotscope::workload::synthesize_into(scenario, config, capture);

  iotscope::intel::synthesize_threat_repository(scenario, world)
      .save_csv(out / "threats.csv");
  iotscope::intel::MalwareSynthConfig malware_config;
  malware_config.corpus_size = spec.malware_reports;
  const auto corpus = iotscope::intel::synthesize_malware_corpus(
      scenario, world, malware_config);
  corpus.database.export_xml(out / "malware");
  corpus.resolver.save_csv(out / "verdicts.csv");

  std::ofstream facts(out / "synth_facts.txt");
  facts << "total " << stats.total << "\n"
        << "noise " << stats.noise << "\n"
        << "unindexed " << stats.unindexed << "\n"
        << "heavy_hitter " << stats.heavy_hitter << "\n";
}

}  // namespace perfbench

// Figure 4b: request count at the gateway over one day (5-minute bins
// in the paper; 30-minute bins here to keep the output readable). An
// empty request log exits nonzero.
#include <cstdio>

#include "gateway_common.h"

using namespace ipfs;

int main() {
  bench::print_header(
      "Figure 4b: gateway request rate over one day",
      "7.1 M requests/day at ipfs.io with a clear diurnal swing "
      "(volume scaled down in simulation)");

  auto experiment = bench::setup_gateway_experiment(
      bench::scaled(900, 250), bench::scaled(160, 40),
      bench::scaled(12000, 1500));
  auto& world = *experiment.world;

  experiment.workload->run(*experiment.gateway);
  world.simulator().run_until(sim::hours(24) + world.simulator().now());
  world.simulator().run();

  const auto& log = experiment.workload->log();
  std::printf("requests served: %zu\n\n", log.size());
  if (log.empty()) {
    std::printf("no requests logged\n");
    return 1;
  }

  constexpr int kBins = 48;  // 30-minute bins
  std::vector<std::size_t> bins(kBins, 0);
  for (const auto& entry : log) {
    const auto bin = static_cast<std::size_t>(
        (entry.timestamp % sim::hours(24)) / sim::minutes(30));
    ++bins[std::min<std::size_t>(bin, kBins - 1)];
  }

  const std::size_t peak = *std::max_element(bins.begin(), bins.end());
  std::printf("%-8s %8s  histogram\n", "time", "requests");
  for (int i = 0; i < kBins; ++i) {
    const int hour = i / 2;
    const int minute = (i % 2) * 30;
    const int bar = peak == 0 ? 0 : static_cast<int>(bins[i] * 40 / peak);
    std::printf("%02d:%02d    %8zu  %s\n", hour, minute, bins[i],
                std::string(bar, '#').c_str());
  }

  const std::size_t trough = *std::min_element(bins.begin(), bins.end());
  std::printf("\npeak/trough ratio: %.2f (paper shows a pronounced "
              "diurnal swing)\n",
              trough == 0 ? 0.0
                          : static_cast<double>(peak) /
                                static_cast<double>(trough));
  return 0;
}

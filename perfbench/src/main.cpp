// perfbench: the one end-to-end benchmark of this reproduction
// (README.md). Usage:
//
//   perfbench --workload <census|publish_retrieve|gateway_day|bulk_fetch>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// A run repeats set-up, the measured phase and teardown of one workload,
// all on the same seed, for about --seconds of host time (at least three
// untraced repetitions; with --trace 1 traced and untraced ones alternate,
// at least one of each), and reports host times as medians.
// Every repetition must reproduce the first one's simulated outputs
// exactly (the determinism fingerprint) and pass the workload's output
// checks; otherwise the run exits nonzero and prints no result. The last
// line of stdout is one JSON object: the end-to-end metrics untraced, the
// per-layer metrics with --trace 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end", reported by every workload untraced.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"teardown_s", "s"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json "per_layer", reported by every workload with --trace 1.
// A layer a workload does not exercise reads 0 there (the bypass). The
// first ten are the workload-level simulated and host figures.
const std::vector<MetricSpec> kPerLayer = {
    {"failed_ratio", "ratio"},
    {"publish_p50_s", "s"},
    {"publish_p90_s", "s"},
    {"retrieve_p50_s", "s"},
    {"retrieve_p90_s", "s"},
    {"gateway_p50_ms", "ms"},
    {"gateway_p99_ms", "ms"},
    {"gateway_absorbed_share", "ratio"},
    {"fetch_MiBps", "MiB/s"},
    {"add_MBps", "MB/s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"world.build_s", "s"},
    {"world.population_s", "s"},
    {"world.teardown_s", "s"},
    {"dht.publish_walk_p50_s", "s"},
    {"dht.rpc_batch_p50_s", "s"},
    {"dht.provider_walk_p50_s", "s"},
    {"dht.peer_walk_share", "ratio"},
    {"dht.lookup_rpcs", "count"},
    {"dht.lookup_dial_fail_ratio", "ratio"},
    {"crawler.peers_found", "count"},
    {"crawler.dialable_share", "ratio"},
    {"crawler.crawl_s", "s"},
    {"net.dials_attempted", "count"},
    {"net.dial_fail_ratio", "ratio"},
    {"net.rpcs_sent", "count"},
    {"net.dial_p50_s", "s"},
    {"transport.tx.messages", "count"},
    {"transport.tx.bytes", "bytes"},
    {"transport.find_node.handler_us", "us"},
    {"transport.get_providers.handler_us", "us"},
    {"transport.want_have.handler_us", "us"},
    {"transport.want_block.handler_us", "us"},
    {"node.add_s", "s"},
    {"bitswap.discovery_p50_s", "s"},
    {"bitswap.fetch_p50_s", "s"},
    {"bitswap.want_have_per_block", "ratio"},
    {"bitswap.dont_have_rx", "count"},
    {"bitswap.retried_blocks", "count"},
    {"bitswap.fetch_host_s", "s"},
    {"merkledag.import_MBps", "MB/s"},
    {"merkledag.cat_MBps", "MB/s"},
    {"blockstore.put_calls", "count"},
    {"blockstore.put_us", "us"},
    {"blockstore.get_us", "us"},
    {"blockstore.flush_s", "s"},
    {"blockstore.write_amp", "ratio"},
    {"blockstore.reopen_s", "s"},
    {"gateway.tier.nginx_share", "ratio"},
    {"gateway.tier.node_store_share", "ratio"},
    {"gateway.tier.origin_share", "ratio"},
    {"gateway.tier.p2p_share", "ratio"},
    {"gateway.p2p_coalesced", "count"},
    {"gateway.negative_hits", "count"},
    {"gateway.spills", "count"},
    {"gateway.host_us_per_request", "us"},
    {"metrics.rss_growth_mb", "MB"},
    {"metrics.trace_overhead_s", "s"},
};

constexpr std::size_t kMinUntracedReps = 3;
constexpr std::size_t kMaxReps = 64;

struct Repetition {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double rss_growth_mb = 0.0;
  Outcome outcome;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) value = -1.0;  // a percentile on failures
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

int usage(const char* what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               what);
  return 2;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "census") return make_census(options);
  if (options.workload == "publish_retrieve")
    return make_publish_retrieve(options);
  if (options.workload == "gateway_day") return make_gateway_day(options);
  if (options.workload == "bulk_fetch") return make_bulk_fetch(options);
  return nullptr;
}

Repetition run_once(Workload& workload, Tracer* tracer, std::uint32_t index) {
  Repetition rep;
  rep.traced = tracer != nullptr;
  if (tracer) {
    tracer->set_repetition(index);
    tracer->set_phase(Phase::kSetup);
  }
  auto start = Clock::now();
  workload.setup(tracer);
  rep.setup_s = seconds_since(start);
  const double rss_after_setup = current_rss_mb();

  if (tracer) tracer->set_phase(Phase::kRun);
  start = Clock::now();
  rep.outcome = workload.run(tracer);
  rep.run_s = seconds_since(start);
  rep.rss_growth_mb = current_rss_mb() - rss_after_setup;

  if (tracer) tracer->set_phase(Phase::kTeardown);
  start = Clock::now();
  workload.teardown(tracer);
  rep.teardown_s = seconds_since(start);
  workload.remove_files();
  return rep;
}

// Median of one value over the traced or the untraced repetitions.
double median_over(const std::vector<Repetition>& reps, bool traced,
                   const std::function<double(const Repetition&)>& value) {
  std::vector<double> values;
  for (const Repetition& rep : reps)
    if (rep.traced == traced) values.push_back(value(rep));
  return median(std::move(values));
}

double setup_of(const Repetition& r) { return r.setup_s; }
double run_of(const Repetition& r) { return r.run_s; }
double teardown_of(const Repetition& r) { return r.teardown_s; }
double rss_growth_of(const Repetition& r) { return r.rss_growth_mb; }

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool trace = false;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    return usage("--workload, --seed and --seconds are required");
  if (options.work_dir.empty())
    options.work_dir = ".bench_build/perfbench-work";
  std::filesystem::create_directories(options.work_dir);

  std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) return usage(("unknown workload " + options.workload).c_str());

  // Repeat on the same seed until the time budget is spent. Untraced
  // runs do at least kMinUntracedReps repetitions; traced runs alternate
  // traced and untraced repetitions (the difference is the tracing
  // overhead) and do at least one of each.
  Tracer tracer;
  std::vector<Repetition> reps;
  const auto run_start = Clock::now();
  std::size_t untraced = 0, traced = 0;
  for (std::uint32_t index = 0; index < kMaxReps; ++index) {
    const bool traced_rep = trace && index % 2 == 0;
    reps.push_back(run_once(*workload, traced_rep ? &tracer : nullptr, index));
    (traced_rep ? traced : untraced) += 1;
    const Repetition& rep = reps.back();
    std::fprintf(stderr,
                 "rep %u%s: setup %.3f s, run %.3f s, teardown %.3f s, "
                 "fingerprint %016llx\n",
                 index, traced_rep ? " (traced)" : "", rep.setup_s, rep.run_s,
                 rep.teardown_s,
                 static_cast<unsigned long long>(
                     rep.outcome.fingerprint.value()));
    const bool minimum_done = trace ? (traced >= 1 && untraced >= 1)
                                    : untraced >= kMinUntracedReps;
    const double elapsed = seconds_since(run_start);
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (minimum_done && elapsed + per_rep > options.seconds) break;
    if (!rep.outcome.check_failures.empty()) break;
  }

  // Output checks and determinism: every repetition must pass its checks
  // and reproduce the first repetition's simulated outputs bit for bit.
  bool correct = true;
  const std::uint64_t fingerprint = reps.front().outcome.fingerprint.value();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const std::string& failure : reps[i].outcome.check_failures) {
      std::fprintf(stderr, "CHECK FAILED (rep %zu): %s\n", i, failure.c_str());
      correct = false;
    }
    if (reps[i].outcome.fingerprint.value() != fingerprint) {
      std::fprintf(stderr,
                   "CHECK FAILED: rep %zu fingerprint %016llx differs from "
                   "rep 0 (%016llx) on the same seed\n",
                   i,
                   static_cast<unsigned long long>(
                       reps[i].outcome.fingerprint.value()),
                   static_cast<unsigned long long>(fingerprint));
      correct = false;
    }
  }
  if (!correct) return 1;

  const Outcome& first = reps.front().outcome;
  std::uint64_t attempted = 0, failed = 0;
  for (const Repetition& rep : reps) {
    attempted += rep.outcome.attempted;
    failed += rep.outcome.failed;
  }
  if (attempted == 0) {
    std::fprintf(stderr, "CHECK FAILED: the workload attempted nothing\n");
    return 1;
  }

  std::printf("perfbench workload=%s seed=%llu repetitions=%zu "
              "(untraced %zu, traced %zu)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), reps.size(),
              untraced, traced);
  std::printf("fingerprint %s seed=%llu %016llx\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(fingerprint));
  for (const auto& f : first.fidelity) {
    std::printf(
        "fidelity %-30s measured %12.4f  paper %12.4f  diff %+12.4f %s\n",
        f.name.c_str(), f.measured, f.paper, f.measured - f.paper,
        f.unit.c_str());
  }

  std::map<std::string, double> values;
  if (!trace) {
    values["setup_s"] = median_over(reps, false, setup_of);
    values["run_s"] = median_over(reps, false, run_of);
    values["teardown_s"] = median_over(reps, false, teardown_of);
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Workload-computed values: the median over traced repetitions (the
    // simulated ones are identical in every repetition anyway).
    for (const MetricSpec& spec : kPerLayer) {
      values[spec.name] = median_over(reps, true, [&](const Repetition& r) {
        const auto it = r.outcome.metrics.find(spec.name);
        return it == r.outcome.metrics.end() ? 0.0 : it->second;
      });
    }
    // Span-derived values, averaged per traced repetition.
    const double per_rep = 1.0 / static_cast<double>(traced);
    values["world.build_s"] =
        tracer.total_s("world.build", Phase::kSetup) * per_rep;
    values["world.population_s"] =
        tracer.total_s("world.population", Phase::kSetup) * per_rep;
    values["world.teardown_s"] =
        tracer.total_s("world.teardown", Phase::kTeardown) * per_rep;
    values["node.add_s"] = tracer.total_s("node.add", Phase::kRun) * per_rep;
    for (const std::string& family : dispatch_families()) {
      values["transport." + family + ".handler_us"] =
          tracer.mean_us("transport." + family, Phase::kRun);
    }
    values["blockstore.put_calls"] =
        static_cast<double>(tracer.count("blockstore.put", Phase::kRun)) *
        per_rep;
    values["blockstore.put_us"] = tracer.mean_us("blockstore.put", Phase::kRun);
    values["blockstore.get_us"] = tracer.mean_us("blockstore.get", Phase::kRun);
    values["blockstore.flush_s"] =
        tracer.total_s("blockstore.flush", Phase::kRun) * per_rep;
    values["metrics.rss_growth_mb"] = median_over(reps, true, rss_growth_of);
    values["metrics.trace_overhead_s"] =
        median_over(reps, true, run_of) - median_over(reps, false, run_of);

    const std::string trace_path = options.work_dir + "/" + options.workload +
                                   "-seed" + std::to_string(options.seed) +
                                   ".spans.jsonl";
    if (tracer.write_jsonl(trace_path))
      std::printf("spans written to %s\n", trace_path.c_str());
  }

  const auto& specs = trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    std::printf("metric %-36s %16s %s\n", spec.name,
                format_number(values[spec.name]).c_str(), spec.unit);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
            format_number(values[specs[i].name]) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// bench_e2e — keep-alive load on the inference route (/ei_algorithms),
// direct and through the fleet router, with a per-layer breakdown.
//
// Usage: bench_e2e --workload vgg_infer|mlp_fleet|model_churn --seed N
//                  --seconds S --trace 0|1
//
// One run: build the topology several times (setup_s is the median), warm
// up, then a closed-loop phase (one request in flight per connection) in
// one-second rounds with a burst of hot-swaps after each, and an open-loop
// phase at the workload's fixed rate, S/2 seconds each.  Every answer is
// checked against the in-process oracle.  --trace 0 reports the end-to-end
// metrics; --trace 1 serves through benchmark-owned servers that time each
// handler and reports the per-layer metrics instead.  Human-readable lines
// go first; the last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "layers.h"
#include "loadgen.h"
#include "tensor/pack.h"
#include "tensor/quantize.h"
#include "workloads.h"

namespace openei::bench_e2e {
namespace {

using common::Json;
using common::JsonObject;

constexpr int kSetupReps = 41;
constexpr std::size_t kSwapsPerRound = 10;
constexpr double kWarmupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 && argc % 2 == 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

/// A phase's counts, which outlive its samples.
struct Tally {
  std::size_t sent = 0, ok = 0, wrong = 0, failed = 0;
  double seconds = 0.0;
  std::vector<std::string> wrong_answers;

  void add(const Phase& phase) {
    sent += phase.samples.size();
    ok += phase.count(Outcome::kOk);
    wrong += phase.count(Outcome::kWrong);
    failed += phase.count(Outcome::kFailed);
    seconds += phase.seconds;
    wrong_answers.insert(wrong_answers.end(), phase.wrong.begin(),
                         phase.wrong.end());
  }
};

void print_phase(const char* name, const Tally& t) {
  std::printf("phase %-6s sent %zu  ok %zu  wrong %zu  failed %zu  in %.2f s\n",
              name, t.sent, t.ok, t.wrong, t.failed, t.seconds);
  for (const std::string& wrong : t.wrong_answers) {
    std::printf("  wrong answer: %s\n", wrong.c_str());
  }
}

/// Appends one round's samples to a phase made of several rounds.
void append(Phase& into, Phase part) {
  into.samples.insert(into.samples.end(), part.samples.begin(),
                      part.samples.end());
  into.wrong.insert(into.wrong.end(), part.wrong.begin(), part.wrong.end());
  into.seconds += part.seconds;
}

/// Correct closed-loop answers within the workload's latency limit.
double good_answers(const WorkloadSpec& spec, const Phase& phase) {
  double good = 0.0;
  for (const Sample& s : phase.samples) {
    if (s.outcome == Outcome::kOk && s.service_ms() <= spec.limit_ms) good += 1;
  }
  return good;
}

/// End-to-end metrics of one load run.  `round_goodput` holds each
/// closed-loop round's goodput.  `p99_ms` receives the open-loop p99, which
/// the traced run reports ungated: on a shared host it swings with host
/// stalls from run to run (see README).
std::vector<Metric> end_to_end(const LoadRun& run,
                               const std::vector<double>& round_goodput,
                               const Counters& open_start, double setup_s,
                               double& p99_ms) {
  // Open loop: inference latency from the scheduled send, per second of the
  // schedule.  Swaps: the bursts between closed-loop rounds; swaps that ride
  // in the request mix (model_churn) are printed but wait behind the load.
  std::vector<double> latency, lateness, swap_ms, in_load_swap_ms;
  std::vector<Timed> latency_by_time;
  for (const Sample& s : run.open.samples) {
    lateness.push_back(s.lateness_ms());
    if (s.swap) {
      in_load_swap_ms.push_back(s.service_ms());
      continue;
    }
    latency.push_back(s.latency_ms());
    latency_by_time.push_back({s.sched_ns, s.latency_ms()});
  }
  for (const Sample& s : run.swaps.samples) swap_ms.push_back(s.service_ms());
  p99_ms = quantile(latency, 0.99);
  std::printf("open-loop latency samples %zu: p50 %.3f p90 %.3f p99 %.3f max "
              "%.3f ms; median of per-second p50s %.3f ms\n",
              latency.size(), quantile(latency, 0.5), quantile(latency, 0.9),
              p99_ms, quantile(latency, 1.0), median_of_seconds(latency_by_time));
  std::printf("swap bursts %zu: min %.3f p25 %.3f p50 %.3f p75 %.3f max %.3f "
              "ms; open-loop swaps %zu: p50 %.3f p99 %.3f ms\n",
              swap_ms.size(), quantile(swap_ms, 0.0), quantile(swap_ms, 0.25),
              quantile(swap_ms, 0.5), quantile(swap_ms, 0.75),
              quantile(swap_ms, 1.0), in_load_swap_ms.size(),
              quantile(in_load_swap_ms, 0.5), quantile(in_load_swap_ms, 0.99));
  std::printf("generator lateness p99 %.3f max %.3f ms\n",
              quantile(lateness, 0.99), quantile(lateness, 1.0));

  double completed = static_cast<double>(run.open.count(Outcome::kOk));
  // Energy is charged over the open-loop window only.
  double energy_mj = (run.after.energy_j - open_start.energy_j) * 1e3;
  return {
      {"goodput_rps", median(round_goodput), "1/s"},
      {"latency_p50_ms", median_of_seconds(latency_by_time), "ms"},
      {"swap_iqm_ms", iqm(swap_ms), "ms"},
      {"energy_mj_per_req", completed > 0 ? energy_mj / completed : 0.0, "mJ"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", setup_s, "s"},
  };
}

int run(const Args& args) {
  WorkloadSpec spec = make_workload(args.workload, args.seed);
  Spans spans;
  Spans* traced = args.trace ? &spans : nullptr;
  std::size_t first_read = 0;
  while (spec.pool[first_read].swap) ++first_read;

  // Setup: build nodes, deploy, start servers, until the first right answer.
  std::vector<double> setups;
  std::unique_ptr<Topology> topo;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    topo.reset();
    std::int64_t start = now_ns();
    topo = start_topology(spec, traced);
    int attempts = 0;
    while (!answered(spec.pool[first_read], topo->port)) {
      if (++attempts > 100) {
        std::fprintf(stderr, "setup: no correct answer from the program\n");
        return 1;
      }
    }
    setups.push_back((now_ns() - start) * 1e-9);
  }

  std::size_t lanes = std::min<std::size_t>(
      4, std::max(1U, std::thread::hardware_concurrency()));
  LoadGen load(spec, topo->port, args.seed, lanes);
  load.closed(kWarmupSeconds);
  LoadRun run;
  // Reserved, not grown: untouched capacity is never resident, and growth by
  // doubling would make peak_rss_mb jump with the request count.
  run.closed.samples.reserve(args.trace ? std::size_t{1} << 23 : 0);
  run.before = snapshot(*topo);
  // The closed loop runs in one-second rounds; goodput is the median round.
  // A short burst of hot-swaps, one at a time, follows each round, each burst
  // on the next connection and so on the next server loop thread: the swap
  // figure samples the whole run, not one spell of the shared host on one
  // thread.  Untraced runs keep only the rounds' counts: at 40 bytes a
  // sample, keeping them all would tie peak_rss_mb to how many requests the
  // host let the run complete.
  auto rounds =
      static_cast<std::size_t>(std::max(1.0, std::round(args.seconds / 2)));
  std::vector<double> round_goodput;
  double closed_good = 0.0;
  Tally closed;
  for (std::size_t r = 0; r < rounds; ++r) {
    Phase round = load.closed(args.seconds / 2 / static_cast<double>(rounds));
    double good = good_answers(spec, round);
    closed_good += good;
    round_goodput.push_back(round.seconds > 0.0 ? good / round.seconds : 0.0);
    closed.add(round);
    if (args.trace) append(run.closed, std::move(round));
    std::vector<std::size_t> burst;
    for (std::size_t i = 0; i < kSwapsPerRound; ++i) {
      burst.push_back(spec.swaps[(r * kSwapsPerRound + i) % spec.swaps.size()]);
    }
    append(run.swaps, load.sequence(burst, r % lanes));
  }
  Counters open_start = snapshot(*topo);
  run.open = load.open(args.seconds / 2, spec.rate_rps);
  run.after = snapshot(*topo);

  std::printf("workload %s  seed %llu  trace %d  lanes %zu  rate %.0f/s  "
              "limit %.1f ms\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, lanes, spec.rate_rps, spec.limit_ms);
  Tally open, swaps;
  open.add(run.open);
  swaps.add(run.swaps);
  print_phase("closed", closed);
  print_phase("open", open);
  print_phase("swaps", swaps);
  std::printf("closed-loop goodput per round (%zu rounds): min %.0f median "
              "%.0f max %.0f; whole phase %.0f\n",
              round_goodput.size(), quantile(round_goodput, 0.0),
              median(round_goodput), quantile(round_goodput, 1.0),
              closed.seconds > 0.0 ? closed_good / closed.seconds : 0.0);

  double p99_ms = 0.0;
  std::vector<Metric> metrics =
      end_to_end(run, round_goodput, open_start, median(setups), p99_ms);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  for (const Tally* t : {&closed, &open, &swaps}) {
    attempted += t->sent;
    failed += t->failed;
    wrong += t->wrong;
  }
  std::printf("error_rate %.6f (%zu failed, %zu wrong of %zu)\n",
              attempted > 0 ? static_cast<double>(failed + wrong) / attempted : 1.0,
              failed, wrong, attempted);

  bool correct = failed == 0 && wrong == 0;
  if (args.trace) {
    std::vector<std::string> notes;
    bool replay_correct = true;
    std::vector<Metric> layers =
        layer_metrics(spec, *topo, run, spans, load.last_rid() + 1, args.seed,
                      notes, replay_correct);
    for (const std::string& note : notes) std::printf("%s\n", note.c_str());
    correct = correct && replay_correct;
    // The traced run's own end-to-end figures: compared with an untraced
    // run of the same seed they give the tracing overhead.
    layers.push_back({"trace.goodput_rps", metrics[0].value, "1/s"});
    layers.push_back({"trace.latency_p50_ms", metrics[1].value, "ms"});
    layers.push_back({"trace.latency_p99_ms", p99_ms, "ms"});
    metrics = std::move(layers);
  }
  topo.reset();

  Json out_metrics{JsonObject{}};
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    Json entry{JsonObject{}};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out_metrics.set(m.name, std::move(entry));
  }
  const char* threads = std::getenv("OPENEI_THREADS");
  std::printf("host: %u cpus, fp32 isa %s (level %d), int8 isa %s (level %d), "
              "OPENEI_THREADS=%s\n",
              std::thread::hardware_concurrency(),
              tensor::fp32_isa_name(tensor::fp32_isa_level_detected()),
              tensor::fp32_isa_level_detected(), tensor::int8_isa_name(),
              tensor::int8_isa_level(), threads != nullptr ? threads : "unset");
  Json result{JsonObject{}};
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed + wrong);
  result.set("metrics", std::move(out_metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace openei::bench_e2e

int main(int argc, char** argv) {
  openei::common::set_log_level(openei::common::LogLevel::kError);
  openei::bench_e2e::Args args;
  if (!openei::bench_e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  try {
    return openei::bench_e2e::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}

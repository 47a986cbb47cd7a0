// perfbench: the workload side of the repository benchmark (run.py drives
// it). Every mode prints a human summary and, as its last stdout line, one
// raw-report JSON object that run.py turns into metrics:
//
//   perfbench solve --seed=N --seconds=T --trace=0|1 --dir=RUN_DIR
//   perfbench serve-load --daemon=H:P --seed=N --seconds=T --trace=0|1
//                        --dir=RUN_DIR --t0=MONOTONIC_S [--setup-only]
//   perfbench sweep --seed=N --seconds=T --trace=0|1 --dir=RUN_DIR
//   perfbench hostref     the host reference kernel, no cmetile code
//   perfbench selftest    checks of the answer comparison
//
// The binary is also its own sweep pipe worker (--sweep-worker).

#include <barrier>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "serve/client.hpp"

namespace {

using namespace cmetile;
using namespace perfbench;

/// Length of one unit of every workload's fixed work on a 4-vCPU host;
/// --seconds scales the work in whole multiples of it.
constexpr double kUnitSeconds = 20.0;
constexpr int kSetups = 5;

int units(const CliArgs& args) {
  const double seconds = args.get_double_strict("seconds", kUnitSeconds);
  return std::max(1, (int)std::lround(seconds / kUnitSeconds));
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string label(const core::OptimizeRequest& request) {
  return request.nest.name + "/" + core::to_string(request.kind) + "/L" +
         std::to_string(request.hierarchy.depth());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text << "\n";
}

/// Gates shared by the request workloads: answer gate, miss-cost ratio and
/// the simulation cross-check over distinct answers.
struct AnswerGates {
  std::vector<std::string> failures;
  std::vector<double> miss_cost;
  std::vector<SimJob> sims;

  void check(const core::OptimizeRequest& request, const core::OptimizeResponse& response) {
    if (std::string why = check_answer(request, response); !why.empty())
      failures.push_back(label(request) + ": " + why);
    miss_cost.push_back(
        miss_cost_ratio(response.before.weighted_cost, response.after.weighted_cost));
    SimJob job{label(request), request.nest, request.hierarchy, response.tiles, std::nullopt};
    if (request.kind == core::OptimizeKind::Padding)
      job.tiles = transform::TileVector::untiled(request.nest);
    if (request.kind != core::OptimizeKind::Tiling) job.pads = response.pads;
    sims.push_back(std::move(job));
  }

  void report(Json& out) {
    out.set("sim_miss", numbers(simulate_all(sims, failures)));
    out.set("failures", strings(failures));
    out.set("miss_cost", numbers(miss_cost));
  }
};

struct GaCounts {
  i64 generations = 0, evaluations = 0, objective_calls = 0;
  void add(const ga::GaResult& ga) {
    generations += ga.generations;
    evaluations += ga.evaluations;
    objective_calls += ga.objective_calls;
  }
  void report(Json& counts) const {
    counts.set("ga.generations", Json::integer(generations));
    counts.set("ga.evaluations", Json::integer(evaluations));
    counts.set("ga.objective_calls", Json::integer(objective_calls));
  }
};

/// A seeded sample of `n` indices into [0, size), distinct, ascending.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t size, std::size_t n) {
  std::vector<std::size_t> all(size);
  for (std::size_t i = 0; i < size; ++i) all[i] = i;
  perfbench::Rng rng{mix(seed ^ 0x5A3B1E)};
  for (std::size_t i = 0; i < std::min(n, size); ++i)
    std::swap(all[i], all[i + rng.below(size - i)]);
  all.resize(std::min(n, size));
  std::sort(all.begin(), all.end());
  return all;
}

/// Per-layer metrics of a finished traced composition; writes its spans.
Json layers_of(const Tracer& tracer, LayerCounts& counts,
               const std::vector<core::OptimizeRequest>& requests,
               const std::vector<core::OptimizeResponse>& responses, const std::string& dir) {
  time_classify(requests, responses, counts);
  Json layers = Json::object();
  add_core_layers(tracer, counts, responses, layers);
  write_file(dir + "/spans.json", tracer.to_json().dump());
  return layers;
}

/// Traced composition over `requests` after the timed phase; `mismatches`
/// names the answers that differ from `expected` (core::optimize's), when
/// given.
Json traced_layers(const std::vector<core::OptimizeRequest>& requests,
                   const std::vector<std::uint64_t>* expected, const std::string& dir,
                   std::vector<core::OptimizeResponse>& responses,
                   std::vector<std::string>& mismatches) {
  Tracer tracer;
  LayerCounts counts;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(traced_optimize(requests[i], tracer, (i64)i, counts));
    if (expected != nullptr && answer_hash(responses.back()) != (*expected)[i])
      mismatches.push_back(label(requests[i]));
  }
  return layers_of(tracer, counts, requests, responses, dir);
}

// -- solve ---------------------------------------------------------------------

int run_solve(const CliArgs& args) {
  const std::uint64_t seed = (std::uint64_t)args.get_int_strict("seed", 1);
  const bool traced = args.get_int_strict("trace", 0) != 0;
  const std::string dir = args.get("dir", ".");

  // Set-up: build the corpus and warm the OpenMP pool and the allocator on
  // one request of each kind; repeated, the median is reported.
  std::vector<double> setup_s;
  std::vector<core::OptimizeRequest> corpus;
  for (int k = 0; k < kSetups; ++k) {
    const double start = now_s();
    corpus = solve_corpus(seed, units(args));
    perfbench::Rng rng{mix(seed ^ 0x3A3A)};
    for (const core::OptimizeKind kind :
         {core::OptimizeKind::Tiling, core::OptimizeKind::Padding, core::OptimizeKind::Joint}) {
      core::OptimizeRequest warm = core::OptimizeRequest::tiling(
          kernels::build_kernel("MM", 100),
          cache::Hierarchy::single(cache::CacheConfig::direct_mapped(8192, 32)),
          seeded_options(rng));
      warm.kind = kind;
      (void)core::optimize(warm);
    }
    setup_s.push_back(now_s() - start);
  }

  Tracer tracer;
  LayerCounts counts;
  std::vector<core::OptimizeResponse> responses;
  std::vector<double> latency_ms;
  const double start = now_s();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const double t0 = now_s();
    responses.push_back(traced ? traced_optimize(corpus[i], tracer, (i64)i, counts)
                               : core::optimize(corpus[i]));
    latency_ms.push_back((now_s() - t0) * 1e3);
  }
  const double wall = now_s() - start;
  const double rss = peak_rss_mb_self();

  AnswerGates gates;
  GaCounts ga;
  std::uint64_t digest = fnv("solve");
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    gates.check(corpus[i], responses[i]);
    ga.add(responses[i].ga);
    digest = fnv(hex(answer_hash(responses[i])), digest);
  }

  Json out = Json::object();
  out.set("workload", Json::string("solve"));
  out.set("setup_s", numbers(setup_s));
  out.set("timed_s", Json::number(wall));
  out.set("attempted", Json::integer((i64)corpus.size()));
  out.set("answered", Json::integer((i64)responses.size()));
  out.set("cold_ms", numbers(latency_ms));
  out.set("peak_rss_mb", Json::number(rss));
  gates.report(out);
  out.set("digest", Json::string(hex(digest)));
  Json exact = Json::object();
  ga.report(exact);
  out.set("counts", std::move(exact));
  if (traced) {
    Json layers = layers_of(tracer, counts, corpus, responses, dir);
    measure_codec(corpus, responses, dir + "/codec-cache", layers);
    out.set("layers", std::move(layers));
  }
  std::cout << "solve: " << corpus.size() << " requests in " << wall << " s, "
            << gates.failures.size() << " gate failures\n"
            << out.dump() << std::endl;
  return 0;
}

// -- serve ---------------------------------------------------------------------

/// The cold list is worked through in blocks of 2 × kOwnPerBlock + 1
/// requests: each cold connection sends kOwnPerBlock of its own, one after
/// another, then both send the block's last request at once, so it
/// coalesces.
constexpr std::size_t kOwnPerBlock = 5;
constexpr int kColdRepeats = 4;      ///< cold list = 33 kernel sizes × this, per unit
constexpr int kWarmPerUnit = 90000;  ///< warm replies per unit of work

struct ConnectionLog {
  std::map<std::string, i64> status;
  std::vector<double> cold_ms, warm_ms;
  std::vector<std::string> failures;
};

int run_serve_load(const CliArgs& args) {
  const std::uint64_t seed = (std::uint64_t)args.get_int_strict("seed", 1);
  const bool traced = args.get_int_strict("trace", 0) != 0;
  const std::string dir = args.get("dir", ".");
  const std::string connect = args.get("daemon", "");
  const double t0 = args.get_double_strict("t0", now_s());

  const std::vector<core::OptimizeRequest> warm = serve_warm_set(seed);
  const std::vector<core::OptimizeRequest> cold = serve_cold_list(seed, kColdRepeats * units(args));
  const i64 warm_replies = (i64)kWarmPerUnit * units(args);
  const std::size_t blocks = cold.size() / (2 * kOwnPerBlock + 1);
  const i64 cold_requests = (i64)(blocks * (2 * kOwnPerBlock + 2));
  if (args.has("plan")) {  // request counts, for the daemon's --max-requests
    Json out = Json::object();
    out.set("setup_requests", Json::integer((i64)warm.size()));
    out.set("timed_requests", Json::integer(warm_replies + cold_requests));
    std::cout << out.dump() << std::endl;
    return 0;
  }

  std::unique_ptr<serve::ServeClient> clients[3];
  for (auto& client : clients) {
    client = serve::ServeClient::connect(connect, 30.0);
    if (!client) {
      std::cerr << "serve-load: cannot connect to " << connect << "\n";
      return 1;
    }
  }

  // Set-up: compute the warm set through the daemon (pipelined, so both
  // workers run), keeping each answer for the timed-phase comparison.
  std::vector<core::OptimizeResponse> warm_answers(warm.size());
  std::vector<std::uint64_t> warm_hash(warm.size());
  std::map<i64, std::size_t> by_id;
  for (std::size_t i = 0; i < warm.size(); ++i) by_id[clients[0]->send(warm[i])] = i;
  for (std::size_t n = 0; n < warm.size(); ++n) {
    const std::optional<serve::Reply> reply = clients[0]->receive(120.0);
    if (!reply || !reply->ok || !reply->response || !by_id.contains(reply->id)) {
      std::cerr << "serve-load: set-up request failed\n";
      return 1;
    }
    const std::size_t i = by_id[reply->id];
    warm_answers[i] = *reply->response;
    warm_hash[i] = answer_hash(warm_answers[i]);
  }
  const double setup_s = now_s() - t0;
  if (args.has("setup-only")) {
    Json out = Json::object();
    out.set("setup_s", Json::number(setup_s));
    std::cout << out.dump() << std::endl;
    return 0;
  }

  // Timed phase. Warm: one connection replays the warm set back to back.
  ConnectionLog warm_log;
  const double start = now_s();
  double warm_s = 0, cold_s = 0;
  std::thread warm_thread([&] {
    for (i64 j = 0; j < warm_replies; ++j) {
      const std::size_t i = (std::size_t)j % warm.size();
      const double sent = now_s();
      const std::optional<serve::Reply> reply = clients[0]->ask(warm[i], 120.0);
      const double ms = (now_s() - sent) * 1e3;
      if (!reply || !reply->ok || !reply->response) {
        ++warm_log.status["failed"];
        continue;
      }
      ++warm_log.status[reply->status];
      if (reply->status == "warm") warm_log.warm_ms.push_back(ms);
      if (answer_hash(*reply->response) != warm_hash[i])
        warm_log.failures.push_back("warm reply differs from the set-up answer: " +
                                    label(warm[i]));
    }
    warm_s = now_s() - start;
  });

  // Cold: two connections, meeting once per block for the coalesced request.
  std::vector<std::optional<core::OptimizeResponse>> cold_answers(cold.size());
  ConnectionLog cold_logs[2];
  std::barrier sync(2);
  auto cold_loop = [&](int side) {
    ConnectionLog& log = cold_logs[side];
    const auto ask = [&](std::size_t i) {
      const double sent = now_s();
      const std::optional<serve::Reply> reply = clients[1 + side]->ask(cold[i], 300.0);
      const double ms = (now_s() - sent) * 1e3;
      if (!reply || !reply->ok || !reply->response) {
        ++log.status["failed"];
        return std::optional<core::OptimizeResponse>();
      }
      ++log.status[reply->status];
      if (reply->status == "cold") log.cold_ms.push_back(ms);
      return reply->response;
    };
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t first = b * (2 * kOwnPerBlock + 1);
      for (std::size_t k = 0; k < kOwnPerBlock; ++k) {
        const std::size_t i = first + (std::size_t)side * kOwnPerBlock + k;
        cold_answers[i] = ask(i);
      }
      const std::size_t both = first + 2 * kOwnPerBlock;
      sync.arrive_and_wait();  // send together: the pair must overlap to coalesce
      const std::optional<core::OptimizeResponse> answer = ask(both);
      if (side == 1) cold_answers[both] = answer;
      sync.arrive_and_wait();
      // Both replies of a coalesced pair must carry the same answer.
      if (side == 0 && answer && cold_answers[both] &&
          answer_hash(*answer) != answer_hash(*cold_answers[both]))
        log.failures.push_back("coalesced answers differ: " + label(cold[both]));
    }
  };
  std::thread cold_thread(cold_loop, 1);
  cold_loop(0);
  cold_s = now_s() - start;
  cold_thread.join();
  warm_thread.join();
  const double wall = now_s() - start;

  // Gates over the distinct answers.
  AnswerGates gates;
  GaCounts ga;
  std::uint64_t digest = fnv("serve");
  std::vector<core::OptimizeRequest> answered_requests;
  std::vector<core::OptimizeResponse> answered;
  std::vector<std::uint64_t> answered_hash;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    answered_requests.push_back(warm[i]);
    answered.push_back(warm_answers[i]);
  }
  for (std::size_t i = 0; i < cold.size(); ++i) {
    if (!cold_answers[i]) continue;
    answered_requests.push_back(cold[i]);
    answered.push_back(*cold_answers[i]);
  }
  for (std::size_t i = 0; i < answered.size(); ++i) {
    gates.check(answered_requests[i], answered[i]);
    ga.add(answered[i].ga);
    answered_hash.push_back(answer_hash(answered[i]));
    digest = fnv(hex(answered_hash.back()), digest);
  }
  for (const ConnectionLog* log : {&warm_log, &cold_logs[0], &cold_logs[1]})
    gates.failures.insert(gates.failures.end(), log->failures.begin(), log->failures.end());

  // Recompute a seeded sample in-process; answers must match the daemon's.
  std::vector<core::OptimizeRequest> sample;
  std::vector<std::uint64_t> sample_hash;
  for (const std::size_t i : sample_indices(seed, answered.size(), 6)) {
    sample.push_back(answered_requests[i]);
    sample_hash.push_back(answered_hash[i]);
  }
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (answer_hash(core::optimize(sample[i])) != sample_hash[i])
      gates.failures.push_back("in-process recompute differs from the served answer: " +
                               label(sample[i]));

  std::map<std::string, i64> status;
  std::vector<double> cold_ms;
  for (const ConnectionLog* log : {&warm_log, &cold_logs[0], &cold_logs[1]}) {
    for (const auto& [name, n] : log->status) status[name] += n;
    cold_ms.insert(cold_ms.end(), log->cold_ms.begin(), log->cold_ms.end());
  }
  // Exact counts: the plan fixes every status; any other count is a failure.
  if (status["warm"] != warm_replies || status["cold"] != cold_requests - (i64)blocks ||
      status["coalesced"] != (i64)blocks || status["failed"] != 0)
    gates.failures.push_back("reply statuses differ from the plan");

  Json out = Json::object();
  out.set("workload", Json::string("serve"));
  out.set("setup_s", Json::number(setup_s));
  out.set("timed_s", Json::number(wall));
  const i64 attempted = warm_replies + cold_requests;
  out.set("attempted", Json::integer(attempted));
  out.set("answered", Json::integer(status["warm"] + status["cold"] + status["coalesced"]));
  out.set("cold_ms", numbers(cold_ms));
  out.set("warm_ms", numbers(warm_log.warm_ms));
  gates.report(out);
  out.set("digest", Json::string(hex(digest)));
  Json exact = Json::object();
  for (const char* name : {"warm", "cold", "coalesced", "rejected"})
    exact.set(std::string("serve.") + name, Json::integer(status[name]));
  ga.report(exact);
  double bytes = 0;
  for (const core::OptimizeResponse& response : answered)
    bytes += (double)sweep::json_of_response(response).dump().size();
  exact.set("sweep.response_bytes", Json::integer((i64)bytes));
  out.set("counts", std::move(exact));
  if (traced) {
    std::vector<std::string> mismatches;
    std::vector<core::OptimizeResponse> recomputed;
    Json layers = traced_layers(sample, &sample_hash, dir, recomputed, mismatches);
    measure_codec(answered_requests, answered, dir + "/codec-cache", layers);
    out.set("layers", std::move(layers));
    out.set("traced_mismatches", strings(mismatches));
  }
  std::cout << "serve: " << attempted << " requests in " << wall << " s (warm " << warm_s
            << " s, cold " << cold_s << " s), "
            << gates.failures.size() << " gate failures\n"
            << out.dump() << std::endl;
  return 0;
}

// -- sweep ---------------------------------------------------------------------

constexpr int kSweepJobs = 2;
/// Cold passes over the specs per unit, each with its own experiment seed
/// (two give the 136 cold cells a p90 needs).
constexpr int kColdPassesPerUnit = 2;
constexpr int kReplaysPerUnit = 100;

sweep::SchedulerOptions scheduler_options(const std::string& cache_dir) {
  sweep::SchedulerOptions options;
  options.cache_dir = cache_dir;
  options.jobs = kSweepJobs;
  return options;
}

int run_sweep(const CliArgs& args) {
  namespace fs = std::filesystem;
  const std::uint64_t seed = (std::uint64_t)args.get_int_strict("seed", 1);
  const bool traced = args.get_int_strict("trace", 0) != 0;
  const std::string dir = args.get("dir", ".");

  // Set-up: expand the specs and start a first fleet (two pipe workers on
  // two cheap cells in a throwaway cache) — the process spawn, handshake and
  // page-in a sweep user waits for before the first real cell.
  std::vector<double> setup_s;
  std::vector<sweep::SweepSpec> specs;
  for (int k = 0; k < kSetups; ++k) {
    const double start = now_s();
    specs.clear();
    for (int u = 0; u < kColdPassesPerUnit * units(args); ++u)
      for (sweep::SweepSpec& spec : sweep_specs(mix(seed) + (std::uint64_t)u))
        specs.push_back(std::move(spec));
    sweep::SweepSpec warmup;
    warmup.entries = {{"T2D", 100}, {"MATMUL", 100}};
    warmup.caches = {cache::CacheConfig::direct_mapped(8192, 32)};
    warmup.options.seed = seed;
    const std::string warm_dir = dir + "/warmup-" + std::to_string(k);
    (void)sweep::run_sweep(warmup, scheduler_options(warm_dir));
    setup_s.push_back(now_s() - start);
    fs::remove_all(warm_dir);
  }

  const std::string cache_dir = dir + "/cache";
  std::vector<sweep::SweepRun> cold;
  double start = now_s();
  for (const sweep::SweepSpec& spec : specs)
    cold.push_back(sweep::run_sweep(spec, scheduler_options(cache_dir)));
  const double wall = now_s() - start;
  const double rss = peak_rss_mb_self() + kSweepJobs * peak_rss_mb_children();

  std::vector<double> replay_ms;
  std::vector<std::string> failures;
  sweep::SweepStats totals;
  for (int r = 0; r < kReplaysPerUnit * units(args); ++r) {
    start = now_s();
    std::vector<sweep::SweepRun> replay;
    for (const sweep::SweepSpec& spec : specs)
      replay.push_back(sweep::run_sweep(spec, scheduler_options(cache_dir)));
    replay_ms.push_back((now_s() - start) * 1e3);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      totals.cache_hits += replay[s].stats.cache_hits;
      totals.computed += replay[s].stats.computed;
      for (std::size_t c = 0; c < replay[s].results.size(); ++c)
        if (answer_of(replay[s].results[c]) != answer_of(cold[s].results[c]))
          failures.push_back("replayed row differs from the computed one: " +
                             specs[s].cells()[c].entry.label());
    }
  }

  std::vector<double> cold_ms, miss_cost;
  std::vector<SimJob> sims;
  std::uint64_t digest = fnv("sweep");
  i64 cells = 0, bytes = 0, evaluations = 0;
  std::vector<std::pair<sweep::SweepCell, const sweep::CellResult*>> rows;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::vector<sweep::SweepCell> spec_cells = specs[s].cells();
    totals.cache_hits += cold[s].stats.cache_hits;
    totals.computed += cold[s].stats.computed;
    totals.remote += cold[s].stats.remote;
    totals.worker_failures += cold[s].stats.worker_failures;
    for (std::size_t c = 0; c < spec_cells.size(); ++c) {
      const sweep::SweepCell& cell = spec_cells[c];
      const sweep::CellResult& result = cold[s].results[c];
      rows.emplace_back(cell, &result);
      ++cells;
      if (std::string why = check_cell(cell, result); !why.empty())
        failures.push_back(cell.entry.label() + ": " + why);
      const std::string answer = answer_of(result);
      digest = fnv(answer, digest);
      bytes += (i64)answer.size();  // the encoding minus wall-clock and scheduling telemetry
      const ir::LoopNest nest = kernels::build_kernel(cell.entry.name, cell.entry.size);
      switch (cell.kind) {
        case sweep::SweepKind::Tiling: {
          cold_ms.push_back(result.tiling.seconds * 1e3);
          miss_cost.push_back(
              miss_cost_ratio(result.tiling.no_tiling_repl, result.tiling.tiling_repl));
          evaluations += result.tiling.ga_evaluations;
          sims.push_back(
              {cell.entry.label(), nest, cell.hierarchy, result.tiling.tiles, std::nullopt});
          break;
        }
        case sweep::SweepKind::Padding: {
          cold_ms.push_back(result.padding.seconds * 1e3);
          miss_cost.push_back(
              miss_cost_ratio(result.padding.original_repl, result.padding.padding_tiling_repl));
          sims.push_back(
              {cell.entry.label(), nest, cell.hierarchy, result.padding.tiles, result.padding.pads});
          break;
        }
        case sweep::SweepKind::Hierarchy:
          cold_ms.push_back(result.hierarchy.seconds * 1e3);
          miss_cost.push_back(
              miss_cost_ratio(result.hierarchy.cost_l1_tiles, result.hierarchy.cost_tiles));
          evaluations += result.hierarchy.ga_evaluations;
          break;
      }
    }
  }

  // Recompute a seeded sample of cells in-process.
  for (const std::size_t i : sample_indices(seed, rows.size(), 4)) {
    const auto& [cell, result] = rows[i];
    if (answer_of(sweep::run_cell(cell)) != answer_of(*result))
      failures.push_back("in-process recompute differs from the sweep row: " + cell.entry.label());
  }

  Json out = Json::object();
  out.set("workload", Json::string("sweep"));
  out.set("setup_s", numbers(setup_s));
  out.set("timed_s", Json::number(wall));
  out.set("attempted", Json::integer(cells));
  out.set("answered", Json::integer(cells));
  out.set("cold_ms", numbers(cold_ms));
  out.set("replay_ms", numbers(replay_ms));
  out.set("peak_rss_mb", Json::number(rss));
  out.set("sim_miss", numbers(simulate_all(sims, failures)));
  out.set("failures", strings(failures));
  out.set("miss_cost", numbers(miss_cost));
  out.set("digest", Json::string(hex(digest)));
  Json exact = Json::object();
  exact.set("sweep.cache_hits", Json::integer((i64)totals.cache_hits));
  exact.set("sweep.computed", Json::integer((i64)totals.computed));
  exact.set("sweep.response_bytes", Json::integer(bytes));
  exact.set("ga.evaluations", Json::integer(evaluations));
  out.set("counts", std::move(exact));
  if (traced) {
    // The cells' own layer: cell codec and fleet counters...
    Json layers = Json::object();
    constexpr int kReps = 20;
    double decode_s = 0;
    for (const auto& [cell, result] : rows) {
      const std::string line = sweep::json_of_result(*result).dump();
      const double t = now_s();
      for (int r = 0; r < kReps; ++r) {
        const std::optional<Json> parsed = Json::parse(line);
        expects(parsed && sweep::result_of_json(*parsed), "cell result does not decode");
      }
      decode_s += now_s() - t;
    }
    // ...and the core layers under it: tiling requests on the kernels and
    // cache geometries of a seeded sample of the cells.
    std::vector<core::OptimizeRequest> requests;
    for (const std::size_t i : sample_indices(seed + 1, rows.size(), 8)) {
      const sweep::SweepCell& cell = rows[i].first;
      core::OptimizeRequest request = core::OptimizeRequest::tiling(
          kernels::build_kernel(cell.entry.name, cell.entry.size), cell.hierarchy,
          cell.options.optimizer);
      request.options.ga.seed = mix(seed + i);
      requests.push_back(std::move(request));
    }
    std::vector<std::string> mismatches;
    std::vector<core::OptimizeResponse> responses;
    Json core_layers = traced_layers(requests, nullptr, dir, responses, mismatches);
    for (const auto& [name, value] : core_layers.members()) layers.set(name, value);
    measure_codec(requests, responses, dir + "/codec-cache", layers);
    layers.set("sweep.cell_decode_us", Json::number(decode_s / (double)(cells * kReps) * 1e6));
    layers.set("sweep.cells_per_s", Json::number((double)totals.computed / wall));
    layers.set("sweep.remote_share",
               Json::number(totals.computed > 0 ? (double)totals.remote / (double)totals.computed
                                                : 0.0));
    layers.set("sweep.worker_failures", Json::integer((i64)totals.worker_failures));
    out.set("layers", std::move(layers));
  }
  std::cout << "sweep: " << cells << " cells in " << wall << " s, " << failures.size()
            << " gate failures\n"
            << out.dump() << std::endl;
  return 0;
}

// -- host reference --------------------------------------------------------------

/// A fixed CPU + memory kernel with no cmetile code: a dependent pointer
/// chase through 32 MiB (memory latency) plus an integer mixing loop (core
/// speed). Its time says how fast the host was around a run.
double host_ref_ms() {
  constexpr std::size_t kSlots = 8u << 20;  // 32 MiB of uint32
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) next[i] = (std::uint32_t)i;
  perfbench::Rng rng{12345};
  for (std::size_t i = kSlots - 1; i > 0; --i)  // Sattolo: one cycle
    std::swap(next[i], next[rng.below(i)]);
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = now_s();
    std::uint32_t at = 0;
    for (int step = 0; step < 1'000'000; ++step) at = next[at];
    std::uint64_t x = at;
    for (int step = 0; step < 40'000'000; ++step) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    times.push_back((now_s() - start) * 1e3);
    if (x == 42) std::cout << "";  // keep the loop observable
  }
  return median(times);
}

// -- self test -------------------------------------------------------------------

int run_selftest() {
  int failed = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cout << "FAIL: " << what << "\n";
      ++failed;
    }
  };
  perfbench::Rng rng{7};
  core::OptimizeRequest request = core::OptimizeRequest::tiling(
      kernels::build_kernel("MM", 100),
      cache::Hierarchy::single(cache::CacheConfig::direct_mapped(8192, 32)), seeded_options(rng));
  request.options.shrink_for_smoke();
  const core::OptimizeResponse base = core::optimize(request);
  expect(check_answer(request, base).empty(), "a real answer passes the answer gate");

  core::OptimizeResponse other = base;
  other.ga.eval_cache_lookups += 17;
  other.ga.eval_cache_hits += 5;
  expect(answer_hash(other) == answer_hash(base), "answer hash ignores eval_cache_*");
  other = base;
  other.tiles.t[0] = other.tiles.t[0] == 1 ? 2 : 1;
  expect(answer_hash(other) != answer_hash(base), "answer hash sees the tiles");
  other = base;
  other.after.levels.front().replacement_ratio += 1e-12;
  expect(answer_hash(other) != answer_hash(base), "answer hash sees the estimates");
  other = base;
  other.ga.generations += 1;
  expect(answer_hash(other) != answer_hash(base), "answer hash sees GA generations");
  other = base;
  other.tiles.t[0] = 0;
  expect(!check_answer(request, other).empty(), "a tile outside [1, trip] fails the gate");
  other = base;
  other.after.weighted_cost = base.before.weighted_cost * 2 + 1;
  expect(!check_answer(request, other).empty(), "after above before fails the gate");

  sweep::SweepSpec spec;
  spec.entries = {{"T2D", 100}};
  spec.caches = {cache::CacheConfig::direct_mapped(8192, 32)};
  spec.options.optimizer.shrink_for_smoke();
  const sweep::SweepCell cell = spec.cells().front();
  const sweep::CellResult row = sweep::run_cell(cell);
  sweep::CellResult row_other = row;
  row_other.tiling.eval_cache_hits += 3;
  row_other.tiling.seconds += 1.0;
  row_other.from_cache = !row.from_cache;
  expect(answer_of(row_other) == answer_of(row), "row answer ignores telemetry fields");
  row_other.tiling.tiles.t[0] += 1;
  expect(answer_of(row_other) != answer_of(row), "row answer sees the tiles");
  expect(check_cell(cell, row).empty(), "a real row passes the answer gate");

  std::cout << (failed == 0 ? "selftest: ok" : "selftest: FAILED") << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  sweep::maybe_run_worker(argc, argv);
  const CliArgs args(argc, argv);
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "solve") return run_solve(args);
    if (mode == "serve-load") return run_serve_load(args);
    if (mode == "sweep") return run_sweep(args);
    if (mode == "hostref") {
      std::cout << "{\"host_ref_ms\":" << host_ref_ms() << "}" << std::endl;
      return 0;
    }
    if (mode == "selftest") return run_selftest();
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << mode << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench solve|serve-load|sweep|hostref|selftest [--flags]\n";
  return 2;
}

#pragma once
// Shared pieces of the perfbench program: the seeded workload inputs, the
// answer gates, the in-memory span recorder and the traced composition of
// core::optimize, and the raw-report JSON every mode prints as its last
// line for run.py to aggregate.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sweep/request_json.hpp"
#include "sweep/scheduler.hpp"

namespace perfbench {

using cmetile::i64;
using cmetile::sweep::Json;

// -- Seeds and clocks -----------------------------------------------------

/// splitmix64 step: the benchmark's only source of randomness, so the same
/// --seed always yields the same inputs.
std::uint64_t mix(std::uint64_t x);

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = mix(state); }
  std::size_t below(std::size_t n) { return (std::size_t)(next() % n); }
};

double now_s();  ///< CLOCK_MONOTONIC seconds (same clock as Python's time.monotonic)

// -- Workload inputs (cache geometries from bench/bench_common.hpp) ---------

/// Paper-default options with seed-derived GA and sampling seeds.
cmetile::core::OptimizerOptions seeded_options(Rng& rng);

/// solve: one request per {Table-1 kernel + LU, SYRK} × {tiling, padding,
/// joint} × {8 KB direct-mapped, 8K+64K}, a sized kernel cycling through its
/// Figure 8/9 sizes; seeded GA/sampling seeds and order. `passes` repeats it.
std::vector<cmetile::core::OptimizeRequest> solve_corpus(std::uint64_t seed, int passes);

/// serve: the warm set (replayed from cache in the timed phase) and the
/// cold list (each Figure-8 bar and LU/SYRK as an 8 KB tiling request,
/// `repeats` times with distinct GA seeds, seeded order).
std::vector<cmetile::core::OptimizeRequest> serve_warm_set(std::uint64_t seed);
std::vector<cmetile::core::OptimizeRequest> serve_cold_list(std::uint64_t seed, int repeats);

/// sweep: the cells of bench_fig8 + bench_fig9 (one tiling spec over both
/// caches), bench_table3 (one padding spec per cache) and bench_hierarchy.
std::vector<cmetile::sweep::SweepSpec> sweep_specs(std::uint64_t experiment_seed);

// -- Answers and gates -----------------------------------------------------

/// Hash of a response's answer fields: every member of its canonical
/// encoding (kind, tiles, pads, before/after estimates, GA best values,
/// cost, calls, evaluations, generations, convergence) except
/// eval_cache_lookups/hits, which depend on OpenMP scheduling. Cheap
/// enough to check every warm reply inside the timed loop.
std::uint64_t answer_hash(const cmetile::core::OptimizeResponse& response);

/// Canonical answer fields of a sweep cell result: its JSON encoding minus
/// run telemetry (eval_cache_* counters, wall-clock seconds, from_cache).
std::string answer_of(const cmetile::sweep::CellResult& result);

/// FNV-1a over a string (digests of answer sequences).
std::uint64_t fnv(std::string_view text, std::uint64_t h = 1469598103934665603ULL);
std::string hex(std::uint64_t v);

/// after ÷ before weighted cost (before = 0 counts 1).
double miss_cost_ratio(double before, double after);

/// Gate one answer: tiles in [1, trip] and legal for the nest, after cost
/// not above before. Returns "" or the reason it failed.
std::string check_answer(const cmetile::core::OptimizeRequest& request,
                         const cmetile::core::OptimizeResponse& response);
/// Same gate for a sweep row against the cell that produced it.
std::string check_cell(const cmetile::sweep::SweepCell& cell,
                       const cmetile::sweep::CellResult& result);

/// Largest nest (accesses) the simulation cross-check runs on.
inline constexpr i64 kSimAccessCap = 4'000'000;
/// An answer fails the simulation gate when its simulated replacement-miss
/// ratio exceeds the untransformed nest's by more than this — the paper's
/// CME confidence interval width (0.1 at 90%) halved, i.e. the estimate's
/// own half-width.
inline constexpr double kSimSlack = 0.05;

/// One answer to cross-check in the cache simulator.
struct SimJob {
  std::string label;
  cmetile::ir::LoopNest nest;
  cmetile::cache::Hierarchy hierarchy;
  cmetile::transform::TileVector tiles;
  std::optional<cmetile::transform::PadVector> pads;
};

/// Simulate each single-level job under kSimAccessCap at its answer and
/// untransformed (transform::simulate_tiled), in parallel. Returns the
/// simulated replacement misses at the answer ÷ untransformed (untransformed
/// 0 counts 1) of the jobs that ran; appends a failure per answer worse than
/// untransformed beyond kSimSlack.
std::vector<double> simulate_all(const std::vector<SimJob>& jobs,
                                 std::vector<std::string>& failures);

// -- Spans -------------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent, request id. Spans are
/// written out after the run; thread-safe (GA evaluations record from
/// OpenMP threads).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    i64 parent = -1;
    i64 request = -1;
  };

  i64 open(std::string name, i64 parent, i64 request);
  void close(i64 id);
  /// Per-name totals: count and summed self time (span minus the union of
  /// its children's intervals).
  struct Layer {
    i64 count = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Layer> layers() const;
  Json to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, i64 parent, i64 request)
      : tracer_(tracer), id_(tracer.open(std::move(name), parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  i64 id() const { return id_; }

 private:
  Tracer& tracer_;
  i64 id_;
};

/// Counters the traced composition reads from the objects it builds.
struct LayerCounts {
  cmetile::cme::EvalCacheStats eval_cache;
  double classify_s = 0.0;
  i64 classify_accesses = 0;
};

/// core::optimize composed from the same public calls (legality check,
/// objective bind, baseline seeds, GA run, before/after estimates), each
/// wrapped in a span of `tracer` under request id `request_id`.
cmetile::core::OptimizeResponse traced_optimize(const cmetile::core::OptimizeRequest& request,
                                                Tracer& tracer, i64 request_id,
                                                LayerCounts& counts);

/// Time NestAnalysis::classify_batch on each request's sample at its answer.
void time_classify(const std::vector<cmetile::core::OptimizeRequest>& requests,
                   const std::vector<cmetile::core::OptimizeResponse>& responses,
                   LayerCounts& counts);

/// Time the sweep codec and ResultCache JSON path on requests and their
/// answers; adds sweep.* entries to `layers`.
void measure_codec(const std::vector<cmetile::core::OptimizeRequest>& requests,
                   const std::vector<cmetile::core::OptimizeResponse>& responses,
                   const std::string& cache_dir, Json& layers);

/// Per-layer metrics of a traced composition: core.*, ga.*, cme.*,
/// transform.*, baselines.*.
void add_core_layers(const Tracer& tracer, const LayerCounts& counts,
                     const std::vector<cmetile::core::OptimizeResponse>& responses, Json& layers);

// -- Process -----------------------------------------------------------------

double peak_rss_mb_self();
double peak_rss_mb_children();

// -- Raw report --------------------------------------------------------------

Json numbers(const std::vector<double>& values);
Json strings(const std::vector<std::string>& values);

}  // namespace perfbench

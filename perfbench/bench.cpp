#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench_common.hpp"  // the benches' cache geometries
#include "support/parallel.hpp"

namespace perfbench {

using namespace cmetile;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// -- Workload inputs --------------------------------------------------------

namespace {

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
}

/// Every Table-1 kernel plus LU and SYRK, each sized kernel with the sizes
/// it has in Figures 8/9 (LU and SYRK, absent there, at their defaults).
std::vector<std::pair<std::string, std::vector<i64>>> kernel_sizes() {
  std::vector<std::pair<std::string, std::vector<i64>>> out;
  std::vector<kernels::KernelSpec> specs = kernels::registry();
  for (const kernels::KernelSpec& spec : kernels::extended_registry()) specs.push_back(spec);
  for (const kernels::KernelSpec& spec : specs) {
    std::vector<i64> sizes;
    if (spec.sized) {
      for (const kernels::FigureEntry& bar : kernels::figure_bars())
        if (bar.name == spec.name) sizes.push_back(bar.size);
      if (sizes.empty()) sizes.push_back(spec.default_size);
    } else {
      sizes.push_back(0);
    }
    out.emplace_back(spec.name, std::move(sizes));
  }
  return out;
}

core::OptimizeRequest make_request(core::OptimizeKind kind, const std::string& kernel, i64 size,
                                   cache::Hierarchy hierarchy, Rng& rng) {
  core::OptimizeRequest request = core::OptimizeRequest::tiling(
      kernels::build_kernel(kernel, size), std::move(hierarchy), seeded_options(rng));
  request.kind = kind;
  return request;
}

constexpr core::OptimizeKind kKinds[] = {core::OptimizeKind::Tiling, core::OptimizeKind::Padding,
                                         core::OptimizeKind::Joint};

}  // namespace

core::OptimizerOptions seeded_options(Rng& rng) {
  core::OptimizerOptions options;
  options.ga.seed = rng.next();
  options.objective.estimator.seed = rng.next();
  return options;
}

std::vector<core::OptimizeRequest> solve_corpus(std::uint64_t seed, int passes) {
  Rng rng{mix(seed ^ 0x501E)};
  const std::vector<cache::Hierarchy> hierarchies{
      cache::Hierarchy::single(bench::paper_cache_8k()), bench::hierarchy_8k_64k()};
  // Sizes rotate with (pass, kind, level), not with the seed, so every seed
  // runs the same kernels at the same sizes; the seed moves only the GA and
  // sampling seeds and the order (request cost spans 20x across sizes).
  std::vector<core::OptimizeRequest> corpus;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& [kernel, sizes] : kernel_sizes()) {
      std::size_t turn = (std::size_t)pass;
      for (const core::OptimizeKind kind : kKinds)
        for (const cache::Hierarchy& hierarchy : hierarchies)
          corpus.push_back(make_request(kind, kernel, sizes[turn++ % sizes.size()], hierarchy, rng));
    }
  }
  shuffle(corpus, rng);
  return corpus;
}

std::vector<core::OptimizeRequest> serve_warm_set(std::uint64_t seed) {
  Rng rng{mix(seed ^ 0x3A53)};
  const std::pair<const char*, i64> kernels[] = {
      {"T2D", 500}, {"MATMUL", 500}, {"VPENTA1", 0}, {"DPSSB", 0}};
  std::vector<core::OptimizeRequest> set;
  for (const auto& [kernel, size] : kernels)
    for (const core::OptimizeKind kind : kKinds)
      set.push_back(make_request(kind, kernel, size,
                                 cache::Hierarchy::single(bench::paper_cache_8k()), rng));
  return set;
}

std::vector<core::OptimizeRequest> serve_cold_list(std::uint64_t seed, int repeats) {
  Rng rng{mix(seed ^ 0xC01D)};
  std::vector<core::OptimizeRequest> list;
  for (int r = 0; r < repeats; ++r)
    for (const auto& [kernel, sizes] : kernel_sizes())
      for (const i64 size : sizes)
        list.push_back(make_request(core::OptimizeKind::Tiling, kernel, size,
                                    cache::Hierarchy::single(bench::paper_cache_8k()), rng));
  shuffle(list, rng);
  return list;
}

std::vector<sweep::SweepSpec> sweep_specs(std::uint64_t experiment_seed) {
  core::ExperimentOptions options;
  options.seed = experiment_seed;
  std::vector<sweep::SweepSpec> specs(4);
  specs[0].kind = sweep::SweepKind::Tiling;  // bench_fig8 + bench_fig9
  specs[0].entries = kernels::figure_bars();
  specs[0].caches = {bench::paper_cache_8k(), bench::paper_cache_32k()};
  specs[1].kind = sweep::SweepKind::Padding;  // bench_table3, 8 KB
  specs[1].entries = kernels::table3_entries(8192);
  specs[1].caches = {bench::paper_cache_8k()};
  specs[2].kind = sweep::SweepKind::Padding;  // bench_table3, 32 KB
  specs[2].entries = kernels::table3_entries(32768);
  specs[2].caches = {bench::paper_cache_32k()};
  specs[3].kind = sweep::SweepKind::Hierarchy;  // bench_hierarchy
  specs[3].entries = {{"MM", 128}, {"JACOBI3D", 64}};
  specs[3].hierarchies = {bench::hierarchy_8k_64k(), bench::hierarchy_16k_256k()};
  for (sweep::SweepSpec& spec : specs) spec.options = options;
  return specs;
}

// -- Answers and gates -----------------------------------------------------

std::uint64_t fnv(std::string_view text, std::uint64_t h) {
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

namespace {

Json without_telemetry(const Json& value) {
  static const std::set<std::string, std::less<>> kTelemetry = {
      "eval_cache_lookups", "eval_cache_hits", "seconds", "from_cache"};
  switch (value.kind()) {
    case Json::Kind::Object: {
      Json out = Json::object();
      for (const auto& [key, member] : value.members())
        if (!kTelemetry.contains(key)) out.set(key, without_telemetry(member));
      return out;
    }
    case Json::Kind::Array: {
      Json out = Json::array();
      for (const Json& item : value.items()) out.push(without_telemetry(item));
      return out;
    }
    default:
      return value;
  }
}

std::string check_tiles(const ir::LoopNest& nest, const std::vector<i64>& tiles) {
  const std::vector<i64> trips = nest.trip_counts();
  if (tiles.size() != trips.size()) return "tile vector has the wrong arity";
  for (std::size_t d = 0; d < tiles.size(); ++d)
    if (tiles[d] < 1 || tiles[d] > trips[d])
      return "tile " + std::to_string(tiles[d]) + " outside [1, " + std::to_string(trips[d]) + "]";
  if (!transform::tile_vector_legal(transform::risky_dependence_vectors(nest), trips, tiles))
    return "illegal tile vector";
  return "";
}

std::string check_pads(const ir::LoopNest& nest, const transform::PadVector& pads,
                       const core::OptimizerOptions& options) {
  if (pads.intra.size() != nest.arrays.size() || pads.inter.size() != nest.arrays.size())
    return "pad vector has the wrong arity";
  for (std::size_t a = 0; a < nest.arrays.size(); ++a)
    if (pads.intra[a] < 0 || pads.intra[a] > options.max_intra_pad_elems || pads.inter[a] < 0 ||
        pads.inter[a] > options.max_inter_pad_units)
      return "pad outside its search bound";
  return "";
}

struct Hasher {
  std::uint64_t h = fnv("");
  template <typename T>
  void pod(const T& value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    h = fnv(std::string_view(bytes, sizeof(T)), h);
  }
  void ivec(const std::vector<i64>& values) {
    pod(values.size());
    for (const i64 v : values) pod(v);
  }
  void estimate(const cme::HierarchyEstimate& e) {
    pod(e.levels.size());
    for (const cme::MissEstimate& m : e.levels) {
      pod(m.total_ratio), pod(m.replacement_ratio), pod(m.cold_ratio);
      pod(m.total_half_width), pod(m.replacement_half_width);
      pod(m.sampled_points), pod(m.exact), pod(m.access_count);
    }
    pod(e.writebacks.size());
    for (const cme::WritebackEstimate& w : e.writebacks) {
      pod(w.generation_ratio), pod(w.half_width), pod(w.sampled_points), pod(w.exact);
      pod(w.store_access_count);
    }
    pod(e.weighted_cost);
  }
};

}  // namespace

std::uint64_t answer_hash(const core::OptimizeResponse& response) {
  Hasher hasher;
  hasher.pod(response.kind);
  hasher.ivec(response.tiles.t);
  hasher.ivec(response.pads.intra);
  hasher.ivec(response.pads.inter);
  hasher.estimate(response.before);
  hasher.estimate(response.after);
  const ga::GaResult& ga = response.ga;
  hasher.ivec(ga.best_values);
  hasher.pod(ga.best_cost), hasher.pod(ga.objective_calls), hasher.pod(ga.evaluations);
  hasher.pod(ga.generations), hasher.pod(ga.converged);
  return hasher.h;
}

std::string answer_of(const sweep::CellResult& result) {
  return without_telemetry(sweep::json_of_result(result)).dump();
}

double miss_cost_ratio(double before, double after) {
  return before > 0.0 ? after / before : 1.0;
}

std::string check_answer(const core::OptimizeRequest& request,
                         const core::OptimizeResponse& response) {
  if (response.kind != request.kind) return "answer kind differs from the request";
  if (request.kind != core::OptimizeKind::Padding) {
    if (std::string why = check_tiles(request.nest, response.tiles.t); !why.empty()) return why;
  }
  if (request.kind != core::OptimizeKind::Tiling) {
    if (std::string why = check_pads(request.nest, response.pads, request.options); !why.empty())
      return why;
  }
  if (!(response.after.weighted_cost <= response.before.weighted_cost))
    return "after cost above before cost";
  return "";
}

std::string check_cell(const sweep::SweepCell& cell, const sweep::CellResult& result) {
  if (result.kind != cell.kind) return "row kind differs from the cell";
  const ir::LoopNest nest = kernels::build_kernel(cell.entry.name, cell.entry.size);
  switch (cell.kind) {
    case sweep::SweepKind::Tiling:
      if (!(result.tiling.tiling_repl <= result.tiling.no_tiling_repl))
        return "tiled ratio above untiled";
      return check_tiles(nest, result.tiling.tiles.t);
    case sweep::SweepKind::Padding:
      if (!(result.padding.padding_repl <= result.padding.original_repl))
        return "padded ratio above original";
      if (!(result.padding.padding_tiling_repl <= result.padding.padding_repl))
        return "padded+tiled ratio above padded";
      if (std::string why = check_pads(nest, result.padding.pads, cell.options.optimizer);
          !why.empty())
        return why;
      return check_tiles(nest, result.padding.tiles.t);
    case sweep::SweepKind::Hierarchy:
      if (!(result.hierarchy.cost_tiles <= result.hierarchy.cost_l1_tiles))
        return "weighted optimum costs more than the L1-only one";
      if (std::string why = check_tiles(nest, result.hierarchy.l1_tiles.t); !why.empty())
        return why;
      return check_tiles(nest, result.hierarchy.tiles.t);
  }
  return "unknown row kind";
}

std::vector<double> simulate_all(const std::vector<SimJob>& jobs,
                                 std::vector<std::string>& failures) {
  struct Outcome {
    bool ran = false;
    double ratio = 0.0;
    std::string failure;
  };
  std::vector<Outcome> outcomes(jobs.size());
  parallel_for(jobs.size(), [&](std::size_t i) {
    const SimJob& job = jobs[i];
    if (job.hierarchy.depth() != 1 || job.nest.access_count() > kSimAccessCap) return;
    const cache::CacheConfig& config = job.hierarchy.levels.front().config;
    const ir::MemoryLayout plain(job.nest);
    const cache::MissStats before =
        transform::simulate_tiled(job.nest, plain, config,
                                  transform::TileVector::untiled(job.nest))
            .back();
    const ir::MemoryLayout layout =
        job.pads ? transform::padded_layout(job.nest, *job.pads) : plain;
    const cache::MissStats after =
        transform::simulate_tiled(job.nest, layout, config, job.tiles).back();
    Outcome& outcome = outcomes[i];
    outcome.ran = true;
    outcome.ratio = before.replacement_misses > 0
                        ? (double)after.replacement_misses / (double)before.replacement_misses
                        : 1.0;
    if (after.replacement_ratio() > before.replacement_ratio() + kSimSlack) {
      char why[160];
      std::snprintf(why, sizeof why,
                    ": simulated replacement ratio %.4f at the answer vs %.4f untransformed",
                    after.replacement_ratio(), before.replacement_ratio());
      outcome.failure = job.label + why;
    }
  });
  std::vector<double> ratios;
  for (const Outcome& outcome : outcomes) {
    if (outcome.ran) ratios.push_back(outcome.ratio);
    if (!outcome.failure.empty()) failures.push_back(outcome.failure);
  }
  return ratios;
}

// -- Spans -------------------------------------------------------------------

i64 Tracer::open(std::string name, i64 parent, i64 request) {
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, parent, request});
  return (i64)spans_.size() - 1;
}

void Tracer::close(i64 id) {
  const double end = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[(std::size_t)id].end = end;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[(std::size_t)spans_[i].parent].push_back(i);
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals clipped to the span: parallel
    // children (GA evaluations on OpenMP threads) overlap each other.
    std::vector<std::pair<double, double>> covered;
    for (const std::size_t c : children[i])
      covered.emplace_back(std::max(span.start, spans_[c].start),
                           std::min(span.end, spans_[c].end));
    std::sort(covered.begin(), covered.end());
    double child = 0.0, reach = span.start;
    for (const auto& [from, to] : covered) {
      const double lo = std::max(from, reach);
      if (to > lo) {
        child += to - lo;
        reach = to;
      }
    }
    Layer& layer = out[span.name];
    ++layer.count;
    layer.self_s += (span.end - span.start) - child;
  }
  return out;
}

Json Tracer::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Json out = Json::array();
  for (const Span& span : spans_) {
    Json s = Json::object();
    s.set("name", Json::string(span.name));
    s.set("start", Json::number(span.start));
    s.set("end", Json::number(span.end));
    s.set("parent", Json::integer(span.parent));
    s.set("request", Json::integer(span.request));
    out.push(std::move(s));
  }
  return out;
}

// -- Traced composition of core::optimize --------------------------------------

namespace {

// Mirrors of the warm-start seed lists core::optimize builds internally; the
// traced answers are compared with core::optimize's, so a drift shows as
// a reported mismatch.
std::vector<std::vector<i64>> tiling_seeds(const ir::LoopNest& nest,
                                           const ir::MemoryLayout& layout,
                                           const cache::Hierarchy& hierarchy) {
  std::vector<std::vector<i64>> seeds;
  auto push = [&](std::vector<i64> t) {
    const transform::TileVector tv = transform::TileVector::clamped(std::move(t), nest);
    if (std::find(seeds.begin(), seeds.end(), tv.t) == seeds.end()) seeds.push_back(tv.t);
  };
  push(transform::TileVector::untiled(nest).t);
  for (std::size_t l = 0; l < hierarchy.depth(); ++l) {
    const cache::CacheConfig config = hierarchy.effective_config(l);
    push(baselines::lrw_tiles(nest, layout, config).t);
    push(baselines::tss_tiles(nest, layout, config).t);
    push(baselines::sarkar_megiddo_tiles(nest, layout, config).t);
  }
  for (const i64 side : {4, 8, 16, 32, 64}) push(std::vector<i64>(nest.depth(), side));
  for (const i64 side : {8, 32}) {
    std::vector<i64> t(nest.depth(), side);
    t[0] = nest.loops[0].trip_count();
    push(std::move(t));
  }
  return seeds;
}

std::vector<std::vector<i64>> padding_seeds(const ir::LoopNest& nest, i64 max_intra,
                                            i64 max_inter) {
  const std::size_t n = nest.arrays.size();
  std::vector<i64> zero(2 * n, 0);
  std::vector<i64> unit_intra = zero;
  for (std::size_t a = 0; a < n; ++a) unit_intra[a] = std::min<i64>(1, max_intra);
  std::vector<i64> stagger = zero;
  for (std::size_t a = 0; a < n; ++a) stagger[n + a] = std::min<i64>((i64)a, max_inter);
  std::vector<i64> both = unit_intra;
  for (std::size_t a = 0; a < n; ++a) both[n + a] = std::min<i64>((i64)a, max_inter);
  return {zero, unit_intra, stagger, both};
}

void traced_legality(const ir::LoopNest& nest, Tracer& tracer, i64 parent, i64 request) {
  const Scope span(tracer, "transform.legality", parent, request);
  const transform::LegalityReport report = transform::check_tiling_legality(nest);
  expects(report.verdict != transform::Legality::Unknown,
          "optimize: cannot prove tiling legality (non-uniform dependences)");
}

template <typename Objective>
ga::GaResult traced_ga(const Objective& objective, const ga::GaOptions& options, Tracer& tracer,
                       i64 parent, i64 request) {
  ga::GeneticOptimizer optimizer(ga::Encoding(objective.domains()), options);
  const Scope span(tracer, "ga.run", parent, request);
  return optimizer.run([&](std::span<const i64> values) {
    const Scope eval(tracer, "core.eval", span.id(), request);
    return objective(values);
  });
}

}  // namespace

core::OptimizeResponse traced_optimize(const core::OptimizeRequest& request, Tracer& tracer,
                                       i64 request_id, LayerCounts& counts) {
  const ir::LoopNest& nest = request.nest;
  const core::OptimizerOptions& options = request.options;
  expects(nest.depth() > 0, "optimize: request has an empty nest");
  request.hierarchy.validate();
  core::OptimizeResponse response;
  response.kind = request.kind;
  const Scope root(tracer, "core.optimize", -1, request_id);
  ga::GaOptions ga_options = options.ga;

  switch (request.kind) {
    case core::OptimizeKind::Tiling: {
      if (options.check_legality) traced_legality(nest, tracer, root.id(), request_id);
      const ir::MemoryLayout layout(nest, request.layout);
      std::optional<core::TilingObjective> objective;
      {
        const Scope bind(tracer, "core.bind", root.id(), request_id);
        objective.emplace(nest, layout, request.hierarchy, options.objective);
      }
      if (options.seed_population && ga_options.initial_seeds.empty()) {
        const Scope seed(tracer, "baselines.seed", root.id(), request_id);
        ga_options.initial_seeds = tiling_seeds(nest, layout, request.hierarchy);
      }
      for (const std::vector<i64>& seed : options.extra_tile_seeds)
        ga_options.initial_seeds.push_back(transform::TileVector::clamped(seed, nest).t);
      response.ga = traced_ga(*objective, ga_options, tracer, root.id(), request_id);
      response.tiles = transform::TileVector::clamped(response.ga.best_values, nest);
      {
        const Scope estimate(tracer, "core.estimate", root.id(), request_id);
        response.before = objective->evaluate_hierarchy(transform::TileVector::untiled(nest));
        response.after = objective->evaluate_hierarchy(response.tiles);
      }
      const cme::EvalCacheStats stats = objective->eval_cache_stats();
      response.ga.eval_cache_lookups = stats.verdict_lookups;
      response.ga.eval_cache_hits = stats.verdict_hits;
      counts.eval_cache += stats;
      break;
    }
    case core::OptimizeKind::Padding: {
      std::optional<core::PaddingObjective> objective;
      {
        const Scope bind(tracer, "core.bind", root.id(), request_id);
        objective.emplace(nest, request.hierarchy, transform::TileVector::untiled(nest),
                          options.max_intra_pad_elems, options.max_inter_pad_units,
                          options.objective);
      }
      if (options.seed_population && ga_options.initial_seeds.empty())
        ga_options.initial_seeds =
            padding_seeds(nest, options.max_intra_pad_elems, options.max_inter_pad_units);
      response.ga = traced_ga(*objective, ga_options, tracer, root.id(), request_id);
      response.pads = objective->unpack(response.ga.best_values);
      {
        const Scope estimate(tracer, "core.estimate", root.id(), request_id);
        response.before = objective->evaluate_hierarchy(transform::PadVector::none(nest));
        response.after = objective->evaluate_hierarchy(response.pads);
      }
      break;
    }
    case core::OptimizeKind::Joint: {
      if (options.check_legality) traced_legality(nest, tracer, root.id(), request_id);
      std::optional<core::JointObjective> objective;
      {
        const Scope bind(tracer, "core.bind", root.id(), request_id);
        objective.emplace(nest, request.hierarchy, options.max_intra_pad_elems,
                          options.max_inter_pad_units, options.objective);
      }
      if (options.seed_population && ga_options.initial_seeds.empty()) {
        std::vector<std::vector<i64>> tiles;
        {
          const Scope seed(tracer, "baselines.seed", root.id(), request_id);
          tiles = tiling_seeds(nest, ir::MemoryLayout(nest), request.hierarchy);
        }
        const auto pads =
            padding_seeds(nest, options.max_intra_pad_elems, options.max_inter_pad_units);
        for (std::size_t t = 0; t < tiles.size(); ++t) {
          std::vector<i64> seed = tiles[t];
          const std::vector<i64>& pad = pads[t % pads.size()];
          seed.insert(seed.end(), pad.begin(), pad.end());
          ga_options.initial_seeds.push_back(std::move(seed));
        }
      }
      response.ga = traced_ga(*objective, ga_options, tracer, root.id(), request_id);
      const core::JointObjective::Decoded best = objective->unpack(response.ga.best_values);
      response.tiles = best.tiles;
      response.pads = best.pads;
      {
        const Scope estimate(tracer, "core.estimate", root.id(), request_id);
        response.before = objective->evaluate_hierarchy(core::JointObjective::Decoded{
            transform::TileVector::untiled(nest), transform::PadVector::none(nest)});
        response.after = objective->evaluate_hierarchy(best);
      }
      break;
    }
  }
  return response;
}

void time_classify(const std::vector<core::OptimizeRequest>& requests,
                   const std::vector<core::OptimizeResponse>& responses, LayerCounts& counts) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const core::OptimizeRequest& request = requests[i];
    const core::OptimizeResponse& response = responses[i];
    const ir::LoopNest& nest = request.nest;
    // The analysis the objective builds at the answer: tiles (untiled for
    // padding) under the answer's layout (padded unless tiling).
    const transform::TileVector tiles = request.kind == core::OptimizeKind::Padding
                                            ? transform::TileVector::untiled(nest)
                                            : response.tiles;
    const ir::MemoryLayout layout = request.kind == core::OptimizeKind::Tiling
                                        ? ir::MemoryLayout(nest, request.layout)
                                        : transform::padded_layout(nest, response.pads);
    const cme::EstimatorOptions& estimator = request.options.objective.estimator;
    const std::vector<std::vector<i64>> points =
        cme::sample_points(nest, cme::resolved_sample_count(estimator), estimator.seed);
    const cme::NestAnalysis analysis(nest, layout, request.hierarchy.levels.front().config,
                                     tiles, request.options.objective.analysis);
    const double start = now_s();
    const std::vector<cme::Outcome> outcomes = analysis.classify_batch(points);
    counts.classify_s += now_s() - start;
    counts.classify_accesses += (i64)outcomes.size();
  }
}

void measure_codec(const std::vector<core::OptimizeRequest>& requests,
                   const std::vector<core::OptimizeResponse>& responses,
                   const std::string& cache_dir, Json& layers) {
  // Each call is microseconds: repeat it and time the batch.
  constexpr int kReps = 20;
  const sweep::ResultCache cache(cache_dir);
  double fingerprint_s = 0, request_s = 0, response_s = 0, store_s = 0, load_s = 0;
  double bytes = 0;
  i64 lookups = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    double start = now_s();
    sweep::Fingerprint fp;
    for (int r = 0; r < kReps; ++r) fp = sweep::fingerprint_of(requests[i]);
    fingerprint_s += now_s() - start;

    const std::string request_line = sweep::json_of_request(requests[i]).dump();
    start = now_s();
    for (int r = 0; r < kReps; ++r) {
      const std::optional<Json> parsed = Json::parse(request_line);
      expects(parsed && sweep::request_of_json(*parsed), "request line does not decode");
    }
    request_s += now_s() - start;

    const std::string payload = sweep::json_of_response(responses[i]).dump();
    bytes += (double)payload.size();
    start = now_s();
    for (int r = 0; r < kReps; ++r) {
      const std::optional<Json> parsed = Json::parse(payload);
      expects(parsed && sweep::response_of_json(*parsed), "response payload does not decode");
    }
    response_s += now_s() - start;

    start = now_s();
    for (int r = 0; r < kReps; ++r) expects(cache.store_json(fp, payload), "cache store failed");
    store_s += now_s() - start;
    start = now_s();
    for (int r = 0; r < kReps; ++r) expects(cache.load_json(fp) == payload, "cache load differs");
    load_s += now_s() - start;
    lookups += kReps;
  }
  const double n = (double)lookups;
  layers.set("sweep.fingerprint_us", Json::number(fingerprint_s / n * 1e6));
  layers.set("sweep.request_decode_us", Json::number(request_s / n * 1e6));
  layers.set("sweep.response_decode_us", Json::number(response_s / n * 1e6));
  layers.set("sweep.response_bytes", Json::number(bytes / (double)requests.size()));
  layers.set("sweep.cache_store_us", Json::number(store_s / n * 1e6));
  layers.set("sweep.cache_load_us", Json::number(load_s / n * 1e6));
}

void add_core_layers(const Tracer& tracer, const LayerCounts& counts,
                     const std::vector<core::OptimizeResponse>& responses, Json& layers) {
  const std::map<std::string, Tracer::Layer> spans = tracer.layers();
  const auto mean = [&](const char* name, double scale) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.self_s / (double)it->second.count * scale;
  };
  layers.set("core.bind_ms", Json::number(mean("core.bind", 1e3)));
  layers.set("core.eval_us", Json::number(mean("core.eval", 1e6)));
  layers.set("core.estimate_ms", Json::number(mean("core.estimate", 1e3)));
  layers.set("ga.self_ms", Json::number(mean("ga.run", 1e3)));
  layers.set("transform.legality_ms", Json::number(mean("transform.legality", 1e3)));
  layers.set("baselines.seed_ms", Json::number(mean("baselines.seed", 1e3)));

  double generations = 0, evaluations = 0, calls = 0;
  for (const core::OptimizeResponse& response : responses) {
    generations += response.ga.generations;
    evaluations += (double)response.ga.evaluations;
    calls += (double)response.ga.objective_calls;
  }
  const double n = std::max<double>(1.0, (double)responses.size());
  layers.set("ga.generations", Json::number(generations / n));
  layers.set("ga.evaluations", Json::number(evaluations / n));
  layers.set("ga.objective_calls", Json::number(calls / n));
  layers.set("ga.memo_hit_ratio",
             Json::number(evaluations > 0 ? (evaluations - calls) / evaluations : 0.0));

  const cme::EvalCacheStats& cache = counts.eval_cache;
  const auto share = [](i64 hits, i64 lookups) {
    return lookups > 0 ? (double)hits / (double)lookups : 0.0;
  };
  i64 tiling = 0;
  for (const core::OptimizeResponse& response : responses)
    tiling += response.kind == core::OptimizeKind::Tiling;
  layers.set("cme.verdict_hit_ratio", Json::number(share(cache.verdict_hits, cache.verdict_lookups)));
  layers.set("cme.probe_hit_ratio", Json::number(share(cache.probe_hits, cache.probe_lookups)));
  layers.set("cme.rebinds",
             Json::number(tiling > 0 ? (double)cache.rebinds / (double)tiling : 0.0));
  layers.set("cme.classify_ns_per_access",
             Json::number(counts.classify_accesses > 0
                              ? counts.classify_s * 1e9 / (double)counts.classify_accesses
                              : 0.0));
}

// -- Process -----------------------------------------------------------------

double peak_rss_mb_self() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return (double)usage.ru_maxrss / 1024.0;
}

double peak_rss_mb_children() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return (double)usage.ru_maxrss / 1024.0;
}

Json numbers(const std::vector<double>& values) {
  Json out = Json::array();
  for (const double v : values) out.push(Json::number(v));
  return out;
}

Json strings(const std::vector<std::string>& values) {
  Json out = Json::array();
  for (const std::string& v : values) out.push(Json::string(v));
  return out;
}

}  // namespace perfbench

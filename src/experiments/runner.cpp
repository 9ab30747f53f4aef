#include "experiments/runner.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace clr::exp {

ReplicatedStats replicate_stats(const std::vector<rt::RuntimeStats>& runs) {
  util::RunningStats events, reconfigs, infeasible, energy, total_cost, avg_cost, max_drc;
  util::RunningStats violation_time, transients, unrecovered, permanents, evacuations,
      safe_entries, downtime, availability, mttr;
  util::RunningStats stall, hidden, hits, misses, service_avail;
  for (const auto& r : runs) {
    events.add(static_cast<double>(r.num_events));
    reconfigs.add(static_cast<double>(r.num_reconfigs));
    infeasible.add(static_cast<double>(r.num_infeasible_events));
    energy.add(r.avg_energy);
    total_cost.add(r.total_reconfig_cost);
    avg_cost.add(r.avg_reconfig_cost);
    max_drc.add(r.max_drc);
    violation_time.add(r.qos_violation_time);
    transients.add(static_cast<double>(r.num_transient_faults));
    unrecovered.add(static_cast<double>(r.num_unrecovered_failures));
    permanents.add(static_cast<double>(r.num_permanent_faults));
    evacuations.add(static_cast<double>(r.num_evacuations));
    safe_entries.add(static_cast<double>(r.num_safe_mode_entries));
    downtime.add(r.downtime);
    availability.add(r.availability);
    mttr.add(r.mttr);
    stall.add(r.reconfig_stall_time);
    hidden.add(r.prefetch_hidden_time);
    hits.add(static_cast<double>(r.prefetch_hits));
    misses.add(static_cast<double>(r.prefetch_misses));
    service_avail.add(r.service_availability);
  }
  ReplicatedStats s;
  s.replications = runs.size();
  s.num_events = util::summarize(events);
  s.num_reconfigs = util::summarize(reconfigs);
  s.num_infeasible_events = util::summarize(infeasible);
  s.avg_energy = util::summarize(energy);
  s.total_reconfig_cost = util::summarize(total_cost);
  s.avg_reconfig_cost = util::summarize(avg_cost);
  s.max_drc = util::summarize(max_drc);
  s.qos_violation_time = util::summarize(violation_time);
  s.num_transient_faults = util::summarize(transients);
  s.num_unrecovered_failures = util::summarize(unrecovered);
  s.num_permanent_faults = util::summarize(permanents);
  s.num_evacuations = util::summarize(evacuations);
  s.num_safe_mode_entries = util::summarize(safe_entries);
  s.downtime = util::summarize(downtime);
  s.availability = util::summarize(availability);
  s.mttr = util::summarize(mttr);
  s.reconfig_stall_time = util::summarize(stall);
  s.prefetch_hidden_time = util::summarize(hidden);
  s.prefetch_hits = util::summarize(hits);
  s.prefetch_misses = util::summarize(misses);
  s.service_availability = util::summarize(service_avail);
  return s;
}

std::uint64_t replication_seed(std::uint64_t base, std::size_t rep) {
  util::SplitMix64 mix(base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep));
  return mix.next();
}

std::size_t Runner::add_cell(RunnerCell cell) {
  if (cell.db == nullptr) throw std::invalid_argument("Runner::add_cell: db is required");
  if (cell.app == nullptr && cell.drc == nullptr) {
    throw std::invalid_argument("Runner::add_cell: either app or an explicit drc is required");
  }
  if (cell.drc != nullptr && cell.drc->size() != cell.db->size()) {
    throw std::invalid_argument("Runner::add_cell: drc size must match db size");
  }
  if (cell.app != nullptr) {
    // The same per-PE heterogeneity exp::evaluate_policy derives from the
    // app's platform; only app-less cells keep uniform profiles.
    cell.params = with_platform_fault_profiles(std::move(cell.params), cell.app->platform());
  }
  metrics_.counter("runner.cells").add();
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::vector<CellResult> Runner::run() { return run(RunnerControl{}).results; }

std::uint64_t Runner::grid_hash() const {
  util::Fnv1a h;
  h.value<std::uint64_t>(std::max<std::size_t>(config_.replications, 1));
  h.value<std::uint64_t>(cells_.size());
  for (const auto& cell : cells_) {
    h.value<std::uint64_t>(cell.label.size());
    h.bytes(cell.label.data(), cell.label.size());
    h.value<std::uint64_t>(cell.seed);
    h.value<std::uint64_t>(cell.db->size());
    hash_eval_params(h, cell.params, cell.ranges);
  }
  return h.digest();
}

RunOutcome Runner::run(const RunnerControl& control) {
  const std::size_t reps = std::max<std::size_t>(config_.replications, 1);
  const std::size_t total = cells_.size() * reps;
  const std::uint64_t identity = grid_hash();

  // Flat per-job state (job = cell·reps + rep). A resume restores the
  // completed jobs' flags and stats; everything else is recomputed.
  std::vector<std::uint8_t> done(total, 0);
  std::vector<rt::RuntimeStats> stats(total);
  if (control.resume != nullptr) {
    const RunnerProgress& p = *control.resume;
    if (p.grid_hash != identity) {
      throw std::invalid_argument(
          "Runner::run: resume progress was recorded for a different grid (hash mismatch)");
    }
    if (p.replications != reps) {
      throw std::invalid_argument("Runner::run: resume progress has " +
                                  std::to_string(p.replications) + " replications, grid has " +
                                  std::to_string(reps));
    }
    if (p.done.size() != total || p.runs.size() != total) {
      throw std::invalid_argument("Runner::run: resume progress spans " +
                                  std::to_string(p.done.size()) + " jobs, grid has " +
                                  std::to_string(total));
    }
    done = p.done;
    stats = p.runs;
  }

  util::ThreadPool pool(config_.jobs);
  bool stopped = control.stop.stop_requested();

  // Phase 1: one DrcMatrix per distinct (app, db) pair, built row-parallel.
  // Keyed on the pair because the model derives from the app's platform and
  // implementation sets while the table spans the db's stored points. Not
  // checkpointed: the tables are deterministic recomputations on resume.
  std::map<std::pair<const AppInstance*, const dse::DesignDb*>, std::unique_ptr<rt::DrcMatrix>>
      drc_cache;
  for (const auto& cell : cells_) {
    if (stopped || control.stop.stop_requested()) {
      stopped = true;
      break;
    }
    if (cell.drc != nullptr) continue;
    const auto key = std::make_pair(cell.app, cell.db);
    if (drc_cache.count(key) > 0) {
      metrics_.counter("runner.drc_cache_hits").add();
      continue;
    }
    util::Timer::Scope span(metrics_.timer("runner.drc_build"));
    CLR_TRACE_SPAN(drc_span, trace::Category::Exp, "exp.drc_build",
                   {{"db_points", cell.db->size()}, {"label", cell.label}});
    recfg::ReconfigModel model(cell.app->platform(), cell.app->impls());
    drc_cache.emplace(key, std::make_unique<rt::DrcMatrix>(*cell.db, model, &pool));
    metrics_.counter("runner.drc_builds").add();
  }

  std::vector<std::size_t> pending;
  pending.reserve(total);
  for (std::size_t job = 0; job < total; ++job) {
    if (done[job] == 0) pending.push_back(job);
  }

  // Phase 2: one offline MDP plan per MDP cell with pending jobs, shared by
  // all of its replications. Planning is RNG-free, so the shared table is
  // bit-identical to a per-replication rebuild. Cells plan in parallel; a
  // plan's time counts toward its cell's wall_ms.
  std::vector<std::optional<rt::MdpTable>> plans(cells_.size());
  std::vector<double> plan_ms(cells_.size(), 0.0);
  if (!stopped) {
    std::vector<std::size_t> to_plan;
    for (const std::size_t job : pending) {
      const std::size_t c = job / reps;
      if (cells_[c].params.kind == PolicyKind::Mdp && (to_plan.empty() || to_plan.back() != c)) {
        to_plan.push_back(c);
      }
    }
    pool.parallel_for(
        to_plan.size(),
        [&](std::size_t k) {
          const std::size_t c = to_plan[k];
          const RunnerCell& cell = cells_[c];
          CLR_TRACE_SPAN(plan_span, trace::Category::Exp, "exp.cell",
                         {{"cell", c},
                          {"label", cell.label},
                          {"policy", policy_name(cell.params.kind)},
                          {"p_rc", cell.params.p_rc},
                          {"phase", "plan"}});
          const rt::DrcMatrix* drc =
              cell.drc != nullptr ? cell.drc : drc_cache.at({cell.app, cell.db}).get();
          const auto start = std::chrono::steady_clock::now();
          plans[c] = rt::build_mdp_table(*cell.db, *drc, cell.ranges, cell.params.p_rc,
                                         cell.params.qos, cell.params.faults, cell.params.mdp);
          plan_ms[c] = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
          metrics_.counter("runner.mdp_plans").add();
        },
        control.stop);
    for (const std::size_t c : to_plan) stopped = stopped || !plans[c];
  }

  // Phase 3: fan the pending (cell, replication) jobs out in waves of
  // `batch_size`. Each job's seed derives only from (cell.seed, rep) and
  // each writes its own pre-sized slot, so neither the schedule, the wave
  // boundaries, nor a kill/resume cycle can change any observable result.
  std::vector<double> wall(total, 0.0);
  std::vector<std::uint8_t> fresh(total, 0);  ///< executed in THIS run (metrics)
  if (!stopped) {
    const std::size_t wave = control.batch_size > 0 ? control.batch_size : std::max<std::size_t>(pending.size(), 1);
    CLR_TRACE_SPAN(grid_span, trace::Category::Exp, "exp.grid",
                   {{"cells", cells_.size()},
                    {"replications", reps},
                    {"jobs", config_.jobs},
                    {"pending", pending.size()}});
    for (std::size_t begin = 0; begin < pending.size(); begin += wave) {
      if (control.stop.stop_requested()) {
        stopped = true;
        break;
      }
      const std::size_t count = std::min(wave, pending.size() - begin);
      pool.parallel_for(
          count,
          [&](std::size_t k) {
            const std::size_t job = pending[begin + k];
            const std::size_t c = job / reps;
            const std::size_t r = job % reps;
            const RunnerCell& cell = cells_[c];
            CLR_TRACE_SPAN(cell_span, trace::Category::Exp, "exp.cell",
                           {{"cell", c},
                            {"rep", r},
                            {"label", cell.label},
                            {"policy", policy_name(cell.params.kind)},
                            {"p_rc", cell.params.p_rc},
                            {"fault_rate", cell.params.faults.transient_rate},
                            {"seed", replication_seed(cell.seed, r)}});
            const rt::DrcMatrix* drc =
                cell.drc != nullptr ? cell.drc : drc_cache.at({cell.app, cell.db}).get();
            const rel::ClrSpace* clr_space =
                cell.app != nullptr ? &cell.app->clr_space() : nullptr;
            const auto start = std::chrono::steady_clock::now();
            const rt::MdpTable* plan = plans[c] ? &*plans[c] : nullptr;
            stats[job] = evaluate_policy_with(*cell.db, *drc, cell.ranges, cell.params,
                                              replication_seed(cell.seed, r), clr_space, plan);
            wall[job] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            done[job] = 1;
            fresh[job] = 1;
            metrics_.counter("runner.jobs").add();
          },
          control.stop);
      if (control.on_batch) {
        RunnerProgress progress;
        progress.grid_hash = identity;
        progress.replications = reps;
        progress.done = done;
        progress.runs.reserve(total);
        for (const auto& s : stats) {
          rt::RuntimeStats stripped = s;
          stripped.trace.clear();  // traces are observability, never persisted
          progress.runs.push_back(std::move(stripped));
        }
        control.on_batch(progress);
      }
      if (control.stop.stop_requested()) {
        stopped = true;
        break;
      }
    }
  }

  // Phase 4: aggregate sequentially in cell/replication order over the
  // completed jobs. Restored and freshly-run stats are interchangeable here,
  // so a resumed grid's ReplicatedStats are bit-identical. Metrics count
  // only this run's work (restored jobs were counted by the original run).
  RunOutcome outcome;
  outcome.jobs_total = total;
  outcome.results.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellResult res;
    res.label = cells_[c].label;
    res.params = cells_[c].params;
    res.seed = cells_[c].seed;
    res.wall_ms = plan_ms[c];
    std::vector<rt::RuntimeStats> cell_runs;
    cell_runs.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const std::size_t job = c * reps + r;
      if (done[job] == 0) continue;
      outcome.jobs_done += 1;
      cell_runs.push_back(stats[job]);
      res.wall_ms += wall[job];
      if (fresh[job] != 0) {
        metrics_.counter("runner.events").add(stats[job].num_events);
        metrics_.counter("runner.reconfigs").add(stats[job].num_reconfigs);
      }
    }
    res.stats = replicate_stats(cell_runs);
    metrics_.timer("runner.cell").add_ns(static_cast<std::uint64_t>(res.wall_ms * 1e6));
    if (config_.keep_runs) res.runs = std::move(cell_runs);
    outcome.results.push_back(std::move(res));
  }
  outcome.complete = !stopped && outcome.jobs_done == total;
  return outcome;
}

namespace {

io::Json summary_json(const util::Summary& s) {
  return io::JsonObject{{"mean", io::Json(s.mean)},   {"stddev", io::Json(s.stddev)},
                        {"ci95", io::Json(s.ci95)},   {"min", io::Json(s.min)},
                        {"max", io::Json(s.max)},     {"count", io::Json(s.count)}};
}

}  // namespace

io::Json grid_report(const std::string& experiment, const RunnerConfig& config,
                     const std::vector<CellResult>& results,
                     const util::MetricsRegistry* metrics, bool interrupted) {
  io::JsonArray cells;
  cells.reserve(results.size());
  for (const auto& res : results) {
    io::JsonObject cell{
        {"label", io::Json(res.label)},
        {"policy", io::Json(policy_name(res.params.kind))},
        {"p_rc", io::Json(res.params.p_rc)},
        {"seed", io::Json(res.seed)},
        {"replications", io::Json(res.stats.replications)},
        {"num_events", summary_json(res.stats.num_events)},
        {"num_reconfigs", summary_json(res.stats.num_reconfigs)},
        {"num_infeasible_events", summary_json(res.stats.num_infeasible_events)},
        {"avg_energy", summary_json(res.stats.avg_energy)},
        {"total_reconfig_cost", summary_json(res.stats.total_reconfig_cost)},
        {"avg_reconfig_cost", summary_json(res.stats.avg_reconfig_cost)},
        {"max_drc", summary_json(res.stats.max_drc)},
        {"fault_rate", io::Json(res.params.faults.transient_rate)},
        {"pe_mtbf", io::Json(res.params.faults.pe_mtbf)},
        {"qos_violation_time", summary_json(res.stats.qos_violation_time)},
        {"num_transient_faults", summary_json(res.stats.num_transient_faults)},
        {"num_unrecovered_failures", summary_json(res.stats.num_unrecovered_failures)},
        {"num_permanent_faults", summary_json(res.stats.num_permanent_faults)},
        {"num_evacuations", summary_json(res.stats.num_evacuations)},
        {"num_safe_mode_entries", summary_json(res.stats.num_safe_mode_entries)},
        {"downtime", summary_json(res.stats.downtime)},
        {"availability", summary_json(res.stats.availability)},
        {"mttr", summary_json(res.stats.mttr)},
        {"prefetch", io::Json(res.params.prefetch)},
        {"reconfig_stall_time", summary_json(res.stats.reconfig_stall_time)},
        {"prefetch_hidden_time", summary_json(res.stats.prefetch_hidden_time)},
        {"prefetch_hits", summary_json(res.stats.prefetch_hits)},
        {"prefetch_misses", summary_json(res.stats.prefetch_misses)},
        {"service_availability", summary_json(res.stats.service_availability)},
        {"wall_ms", io::Json(res.wall_ms)},
    };
    cells.emplace_back(std::move(cell));
  }

  io::JsonObject report{
      {"experiment", io::Json(experiment)},
      {"replications", io::Json(config.replications)},
      {"jobs", io::Json(config.jobs)},
      {"cells", io::Json(std::move(cells))},
  };
  // Only emitted on partial reports, so complete reports stay byte-stable
  // across versions.
  if (interrupted) report.emplace_back("interrupted", io::Json(true));
  if (metrics != nullptr) {
    io::JsonObject counters;
    for (const auto& c : metrics->counters()) counters.emplace_back(c.name, io::Json(c.value));
    io::JsonObject timers;
    for (const auto& t : metrics->timers()) {
      timers.emplace_back(t.name, io::Json(io::JsonObject{{"total_ms", io::Json(t.total_ms)},
                                                          {"spans", io::Json(t.count)}}));
    }
    report.emplace_back("counters", io::Json(std::move(counters)));
    report.emplace_back("timers", io::Json(std::move(timers)));
  }
  return io::Json(std::move(report));
}

}  // namespace clr::exp

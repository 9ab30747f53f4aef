#include "experiments/session.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "io/checkpoint.hpp"

namespace clr::exp {

namespace {

void hash_ga(util::Fnv1a& h, const moea::GaParams& ga) {
  h.value<std::uint64_t>(ga.population);
  h.value<std::uint64_t>(ga.generations);
  h.value<double>(ga.crossover_prob);
  h.value<double>(ga.mutation_prob);
  h.value<std::uint64_t>(ga.tournament_size);
  // ga.threads deliberately excluded: thread count never affects results.
}

}  // namespace

SessionState::SessionState(const SessionControl& control, SessionOutcome& out)
    : control_(control), out_(out) {
  if (control.checkpoint_every == 0) {
    throw std::invalid_argument("session: checkpoint_every must be >= 1");
  }
  if (control.resume && control.checkpoint_path.empty()) {
    throw std::invalid_argument("session: resume requires a checkpoint path");
  }
  if (!control.checkpoint_path.empty()) store_.emplace(control.checkpoint_path);
}

void SessionState::step() {
  out_.steps += 1;
  if (control_.step_budget != 0 && out_.steps >= control_.step_budget) {
    stop_.request_stop(util::StopReason::Budget);
  }
  if (control_.stop.stop_requested()) stop_.request_stop(control_.stop.reason());
}

std::uint64_t explore_param_hash(const AppInstance& app, const FlowParams& params,
                                 std::uint64_t flow_seed) {
  util::Fnv1a h;
  h.value<std::uint64_t>(app.graph().num_tasks());
  h.value<std::uint64_t>(app.graph().num_edges());
  h.value<std::uint64_t>(app.platform().num_pes());
  h.value<std::uint64_t>(app.platform().num_pe_types());
  h.value<std::uint64_t>(app.clr_space().size());
  h.value<std::uint64_t>(flow_seed);
  h.value<std::uint32_t>(static_cast<std::uint32_t>(params.mode));
  h.value<std::uint64_t>(params.spec_samples);
  h.value<double>(params.makespan_quantile);
  h.value<double>(params.func_rel_quantile);
  hash_ga(h, params.dse.base_ga);
  hash_ga(h, params.dse.red_ga);
  h.value<double>(params.dse.tol_makespan_band);
  h.value<double>(params.dse.tol_func_rel_band);
  h.value<double>(params.dse.tol_energy);
  h.value<std::uint64_t>(params.dse.extras_per_seed);
  h.value<std::uint64_t>(params.dse.max_red_seeds);
  h.value<std::uint64_t>(params.dse.calibration_samples);
  h.value<std::uint8_t>(params.dse.heft_seeding ? 1 : 0);
  h.value<std::uint64_t>(params.dse.max_base_points);
  // dse.threads, dse.batched_eval and dse.eval_cache_capacity deliberately
  // excluded: all three are bit-identical performance knobs (DESIGN.md §5.6,
  // §5.10), so a checkpoint taken at --jobs 8 resumes fine at --jobs 1.
  return h.digest();
}

ExploreOutcome run_explore_session(const AppInstance& app, const FlowParams& params,
                                   std::uint64_t flow_seed, const SessionControl& control) {
  ExploreOutcome out;
  SessionState session(control, out);
  const std::uint64_t param_hash = explore_param_hash(app, params, flow_seed);
  const std::optional<io::ExploreCheckpoint> restored =
      session.resume(&io::decode_explore_checkpoint, &io::ExploreCheckpoint::param_hash,
                     param_hash, "flow");

  util::Rng rng(flow_seed);
  FlowResult flow;
  if (restored) {
    // The spec was derived from RNG draws that precede every saved boundary;
    // restoring it (instead of re-deriving) keeps the fresh Rng untouched —
    // the GA resume path restores the true stream state anyway.
    flow.spec.max_makespan = restored->spec_max_makespan;
    flow.spec.min_func_rel = restored->spec_min_func_rel;
  } else {
    flow.spec = derive_spec(app.context(), params.mode, params.spec_samples,
                            params.makespan_quantile, params.func_rel_quantile, rng);
  }

  dse::MappingProblem problem(app.context(), flow.spec, params.mode);
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  dse::DesignTimeDse dse_flow(problem, reconfig, params.dse);

  // Shared boundary bookkeeping: count the step (the session folds in the
  // external stop and the budget), then decide whether this boundary becomes
  // a durable checkpoint (every Nth, and always the one we stop on).
  auto boundary = [&](io::ExploreCheckpoint&& c) {
    session.step();
    if (session.checkpointing() &&
        (session.stopping() || out.steps % control.checkpoint_every == 0)) {
      c.param_hash = param_hash;
      c.spec_max_makespan = flow.spec.max_makespan;
      c.spec_min_func_rel = flow.spec.min_func_rel;
      session.save(c, &io::serialize_explore_checkpoint);
    }
  };

  // Stage 1: BaseD. Skipped entirely when the checkpoint is already in the
  // ReD stage (the finished BaseD database travels in the checkpoint).
  bool base_complete = true;
  if (restored && restored->stage == 1) {
    flow.based = restored->based;
  } else {
    dse::BaseControl base_control;
    base_control.stop = session.token();
    dse::BaseProgress base_resume;
    if (restored) {
      base_resume.ref = restored->ref;
      base_resume.scale = restored->scale;
      base_resume.ga = restored->ga;
      base_control.resume = &base_resume;
    }
    base_control.on_boundary = [&](const dse::BaseProgress& p) {
      io::ExploreCheckpoint c;
      c.stage = 0;
      c.ref = p.ref;
      c.scale = p.scale;
      c.ga = p.ga;
      boundary(std::move(c));
    };
    dse::StageOutcome base = dse_flow.run_base_resumable(rng, base_control);
    flow.based = std::move(base.db);
    base_complete = base.complete;
  }
  if (!base_complete) {
    out.flow = std::move(flow);
    out.complete = false;
    session.finish();
    return out;
  }
  if (flow.based.empty()) {
    throw std::runtime_error("run_explore_session: design-time DSE found no feasible point");
  }

  // Stage 2: ReD.
  dse::RedControl red_control;
  red_control.stop = session.token();
  dse::RedProgress red_resume;
  if (restored && restored->stage == 1) {
    red_resume.seed_pos = static_cast<std::size_t>(restored->red_seed_pos);
    red_resume.ga = restored->ga;
    red_resume.red = restored->red;
    red_control.resume = &red_resume;
  }
  red_control.on_boundary = [&](const dse::RedProgress& p) {
    io::ExploreCheckpoint c;
    c.stage = 1;
    c.ga = p.ga;
    c.red_seed_pos = p.seed_pos;
    c.based = flow.based;
    c.red = p.red;
    boundary(std::move(c));
  };
  dse::StageOutcome red = dse_flow.run_red_resumable(flow.based, rng, red_control);
  flow.red = std::move(red.db);
  out.complete = red.complete;
  out.flow = std::move(flow);
  session.finish();
  return out;
}

RunnerOutcome run_runner_session(Runner& runner, const SessionControl& control) {
  RunnerOutcome out;
  SessionState session(control, out);
  std::optional<io::RunnerCheckpoint> restored_checkpoint =
      session.resume(&io::decode_runner_checkpoint, &io::RunnerCheckpoint::grid_hash,
                     runner.grid_hash(), "grid");

  RunnerProgress restored;
  RunnerControl runner_control;
  runner_control.stop = session.token();
  // One wave of checkpoint_every jobs between boundaries: the runner's
  // batch size IS the checkpoint cadence.
  runner_control.batch_size = control.checkpoint_every;
  if (restored_checkpoint) {
    restored.grid_hash = restored_checkpoint->grid_hash;
    restored.replications = static_cast<std::size_t>(restored_checkpoint->replications);
    restored.done = std::move(restored_checkpoint->done);
    restored.runs = std::move(restored_checkpoint->runs);
    runner_control.resume = &restored;
  }

  std::size_t checkpointed_jobs = out.resumed ? restored.jobs_done() : 0;
  runner_control.on_batch = [&](const RunnerProgress& progress) {
    session.step();
    // Every batch is a checkpoint boundary; skip the write only when no new
    // job finished (a stop can interrupt a wave before any claim).
    if (session.checkpointing() && progress.jobs_done() != checkpointed_jobs) {
      io::RunnerCheckpoint c;
      c.grid_hash = progress.grid_hash;
      c.replications = progress.replications;
      c.done = progress.done;
      c.runs = progress.runs;
      session.save(c, &io::serialize_runner_checkpoint);
      checkpointed_jobs = progress.jobs_done();
    }
  };

  out.run = runner.run(runner_control);
  session.finish();
  return out;
}

}  // namespace clr::exp

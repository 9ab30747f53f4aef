// Whole-pipeline benchmark: design-time exploration, the device fleet and the
// replicated policy grid, measured end to end with a per-layer split and
// per-run correctness checks.
//
// Usage:
//   pipebench --workload explore|fleet|grid --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//   pipebench --selftest [--workdir DIR]
//
// Every run goes through the same three stages with two worker threads, driven only
// through the library's public entry points:
//
//   explore  make_synthetic_app -> derive_spec -> DesignTimeDse::run_base ->
//            run_red (the staged form of exp::run_design_flow) -> DrcMatrix
//            over ReD -> io::save_snapshot
//   fleet    io::Snapshot::open + materialize -> fleet::run_fleet (uRA)
//   grid     exp::Runner over BaseD and ReD: {AuRA, MDP+prefetch} x pRC
//            {0, 0.5, 1}, with transient faults and wear-out
//
// Set-up explores eight 60-task service apps; the fleet and grid stages run
// over their ReD databases kept under a 56-point storage budget. The workload names the stage that is repeated for
// --seconds (the explore stage runs over apps of 20, 60 and 100 tasks); the
// other stages run a fixed number of times, so every run reports every
// metric. Each repetition of a stage redoes the same work, so its outputs
// must be bit-identical to the first repetition's. Every app, flow, fleet
// and grid-cell seed derives from --seed.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). An operation is one application flow, one fleet block or one
// grid replication; an exception or a failed invariant marks it failed.
// A traced run splits --seconds between an untraced and a traced half of
// the focus stage, so it also reports the tracing overhead.
//
// Timings are made robust to a shared host in two ways. Explore times are
// sums of medians over short samples (each app flow's stages), fleet and
// grid rates are medians over passes; and every stage's figure is scaled
// to a reference host by a host-speed probe run between the stage's passes
// (see host_probe). The human-readable output prints the raw pass times and
// each stage's probe and scale.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dse/design_time.hpp"
#include "experiments/app.hpp"
#include "experiments/flow.hpp"
#include "experiments/runner.hpp"
#include "experiments/session.hpp"
#include "faults/fault_model.hpp"
#include "fleet/fleet.hpp"
#include "io/snapshot.hpp"
#include "moea/hypervolume.hpp"
#include "reconfig/reconfig.hpp"
#include "runtime/drc_matrix.hpp"
#include "runtime/mdp_policy.hpp"
#include "runtime/policy.hpp"
#include "runtime/qos_process.hpp"
#include "runtime/simulator.hpp"
#include "schedule/compiled_graph.hpp"
#include "schedule/scheduler.hpp"
#include "trace/trace.hpp"

namespace {

using namespace clr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// FNV-1a over the raw bytes of values: the results digest.
class Digest {
 public:
  template <class T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Seeds: every app, flow, fleet and cell seed derives from the workload seed.

enum SeedTag : std::uint64_t {
  kTagExploreApp = 1,
  kTagExploreFlow = 2,
  kTagServiceApp = 3,
  kTagServiceFlow = 4,
  kTagFleet = 5,
  kTagGrid = 6,
  kTagSample = 7,
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t index = 0) {
  util::SplitMix64 mix(seed * 0x100000001b3ULL + tag);
  for (std::uint64_t i = 0; i < index; ++i) mix.next();
  return mix.next();
}

// ---------------------------------------------------------------------------
// Failure accounting and checks.

class Ledger {
 public:
  /// Run one operation; an exception marks it failed instead of ending the
  /// run. Returns false when the operation threw.
  bool run(const std::string& what, const std::function<void()>& body) {
    try {
      body();
      return true;
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
    } catch (...) {
      fail(what + ": unknown exception");
    }
    return false;
  }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// One failed operation (each call counts one).
  void fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }

  /// A failed invariant outside any counted operation (an aborted run, a
  /// fleet that stopped short): the run is incorrect but no operation count
  /// changes.
  void violation(const std::string& why) {
    correct_ = false;
    if (failures_.size() < 20) failures_.push_back(why);
  }

  bool correct() const { return correct_ && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return std::min(failed_, attempted_); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> failures_;
};

/// Collects the failed checks of one operation.
struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
  bool ok() const { return failed.empty(); }
  std::string joined() const {
    std::string s;
    for (const auto& f : failed) s += (s.empty() ? "" : "; ") + f;
    return s;
  }
};

bool rel_close(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max({std::fabs(a), std::fabs(b), 1e-300});
}

// ---------------------------------------------------------------------------
// Sizes of one run. The defaults are the measured workloads; the self-test
// shrinks them.

struct Scale {
  std::vector<std::size_t> explore_tasks{20, 60, 100};
  /// Fleet and grid run over several service apps so that one seed's
  /// figures average over several databases; a single database's decision
  /// and planning costs vary several-fold from seed to seed.
  std::size_t service_apps = 8;
  std::size_t service_tasks = 60;
  /// Storage budget of each service database: BaseD's 28 points plus 28
  /// extras. ReD sizes vary from about 55 to 92 points from seed to seed,
  /// and MDP planning cost grows with the square of the database size; a
  /// fixed size keeps the fleet and grid costs comparable across seeds.
  std::size_t storage_points = 56;
  exp::FlowParams flow{};
  double gap_per_drc = 8.0;
  double events_per_device = 100.0;
  std::uint64_t fleet_devices = 16384;
  /// Fleet aggregation grain: small enough that each app's fleet splits
  /// into several blocks for the workers.
  std::uint64_t fleet_block = 128;
  /// Passes of a stage that is not the workload's focus; their median
  /// damps the pass-to-pass noise of a shared host.
  std::size_t fleet_secondary_reps = 4;
  std::size_t sampled_devices = 1024;
  std::size_t grid_reps = 1;
  std::size_t grid_secondary_reps = 4;
  std::size_t jobs = 2;
};

Scale small_scale(std::size_t jobs) {
  Scale s;
  s.explore_tasks = {12, 16};
  s.service_apps = 2;
  s.service_tasks = 14;
  s.storage_points = 12;
  s.flow.dse.base_ga.population = 24;
  s.flow.dse.base_ga.generations = 10;
  s.flow.dse.red_ga.population = 12;
  s.flow.dse.red_ga.generations = 6;
  s.flow.dse.max_red_seeds = 4;
  s.events_per_device = 20.0;
  s.fleet_devices = 2 * (1024 + 100);  // a partial last block per app
  s.fleet_secondary_reps = 1;
  s.sampled_devices = 64;
  s.grid_reps = 2;
  s.grid_secondary_reps = 1;
  s.jobs = jobs;
  return s;
}

// ---------------------------------------------------------------------------
// Explore stage.

/// One application through the staged design flow.
struct AppFlow {
  std::unique_ptr<exp::AppInstance> app;
  exp::FlowResult flow;
  /// The database handed to the run-time stages: ReD, or ReD under a
  /// storage budget (stored_subset). The DrcMatrix and the snapshot hold it.
  dse::DesignDb stored;
  std::optional<rt::DrcMatrix> drc;
  std::uint64_t schedule_runs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  // Stage wall times, seconds.
  double app_build_s = 0.0, spec_s = 0.0, base_s = 0.0, red_s = 0.0, drc_s = 0.0,
         write_s = 0.0;
  double total_s() const { return app_build_s + spec_s + base_s + red_s + drc_s + write_s; }
};

/// Stage wall times of app flows, one sample per flow and stage. The sum of
/// the per-stage medians estimates one flow's time on an undisturbed host:
/// a burst of load on a shared host lengthens a few short samples and leaves
/// their medians, where it lengthens every sum of stages that it overlaps.
struct StageTimes {
  std::array<std::vector<double>, 6> stages;
  void add(const AppFlow& f) {
    const double s[] = {f.app_build_s, f.spec_s, f.base_s, f.red_s, f.drc_s, f.write_s};
    for (std::size_t k = 0; k < stages.size(); ++k) stages[k].push_back(s[k]);
  }
  double median_sum() const {
    double sum = 0.0;
    for (const auto& v : stages) sum += median(v);
    return sum;
  }
};

/// Time `body` with the steady clock, inside a bench-category span.
template <class F>
double timed(const char* span_name, F&& body) {
  trace::Span span(trace::Category::Bench, span_name);
  const auto t0 = Clock::now();
  body();
  return seconds_since(t0);
}

/// ReD under a storage budget of `budget` points (0 = unlimited): every
/// BaseD point plus evenly spaced extras, so the kept extras come from seeds
/// across the whole front.
dse::DesignDb stored_subset(const dse::DesignDb& red, std::size_t budget) {
  if (budget == 0 || red.size() <= budget) return red;
  std::vector<std::size_t> base, extra;
  for (std::size_t i = 0; i < red.size(); ++i) (red.point(i).extra ? extra : base).push_back(i);
  dse::DesignDb out;
  for (std::size_t i : base) out.add(red.point(i));
  const std::size_t keep = budget > base.size() ? budget - base.size() : 0;
  for (std::size_t j = 0; j < keep; ++j) out.add(red.point(extra[j * extra.size() / keep]));
  return out;
}

AppFlow run_app_flow(std::size_t tasks, std::uint64_t app_seed, std::uint64_t flow_seed,
                     const exp::FlowParams& params, std::size_t storage_points,
                     util::ThreadPool& pool, const std::string& snapshot_path) {
  AppFlow out;
  out.app_build_s = timed("bench.taskgraph.app_build",
                          [&] { out.app = exp::make_synthetic_app(tasks, app_seed); });
  const exp::AppInstance& app = *out.app;
  util::Rng rng(flow_seed);
  out.spec_s = timed("bench.experiments.spec", [&] {
    out.flow.spec = exp::derive_spec(app.context(), params.mode, params.spec_samples,
                                     params.makespan_quantile, params.func_rel_quantile, rng);
  });
  dse::MappingProblem problem(app.context(), out.flow.spec, params.mode);
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  dse::DesignTimeDse dse_flow(problem, reconfig, params.dse);
  out.base_s = timed("bench.dse.base", [&] { out.flow.based = dse_flow.run_base(rng); });
  if (out.flow.based.empty()) throw std::runtime_error("design-time DSE found no feasible point");
  out.red_s = timed("bench.dse.red", [&] { out.flow.red = dse_flow.run_red(out.flow.based, rng); });
  out.stored = stored_subset(out.flow.red, storage_points);
  out.drc_s = timed("bench.reconfig.drc_build",
                    [&] { out.drc.emplace(out.stored, reconfig, &pool); });
  out.write_s = timed("bench.io.snapshot_write", [&] {
    io::save_snapshot(snapshot_path, out.stored, app.clr_space(), &*out.drc);
  });
  out.schedule_runs = problem.schedule_runs();
  out.cache_hits = problem.schedule_cache().hits();
  out.cache_lookups = problem.schedule_cache().hits() + problem.schedule_cache().misses();
  return out;
}

void digest_db(Digest& d, const dse::DesignDb& db) {
  d.add(db.size());
  for (const auto& p : db.points()) {
    for (const auto& a : p.config.tasks) {
      d.add(a.pe);
      d.add(a.impl_index);
      d.add(a.clr_index);
      d.add(a.priority);
    }
    d.add(p.energy);
    d.add(p.makespan);
    d.add(p.func_rel);
    d.add(p.extra);
  }
}

std::uint64_t flow_digest(const exp::FlowResult& flow) {
  Digest d;
  d.add(flow.spec.max_makespan);
  d.add(flow.spec.min_func_rel);
  digest_db(d, flow.based);
  digest_db(d, flow.red);
  return d.value();
}

bool same_point(const dse::DesignPoint& a, const dse::DesignPoint& b) {
  return a.config == b.config && a.energy == b.energy && a.makespan == b.makespan &&
         a.func_rel == b.func_rel && a.extra == b.extra;
}

bool same_db(const dse::DesignDb& a, const dse::DesignDb& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_point(a.point(i), b.point(i))) return false;
  }
  return true;
}

/// Normalized hypervolume of a database: objectives (energy, makespan,
/// -reliability) scaled to [0, 1] over the database's own ranges, reference
/// point 1.1 in every dimension, divided by the reference box's volume.
/// Scale-free, so apps of any size compare.
double normalized_hv(const dse::DesignDb& db) {
  const dse::MetricRanges r = db.ranges();
  const auto norm = [](double x, double lo, double hi) {
    return hi > lo ? (x - lo) / (hi - lo) : 0.0;
  };
  std::vector<std::array<double, 3>> pts;
  for (const auto& p : db.points()) {
    pts.push_back({norm(p.energy, r.energy_min, r.energy_max),
                   norm(p.makespan, r.makespan_min, r.makespan_max),
                   norm(-p.func_rel, -r.func_rel_max, -r.func_rel_min)});
  }
  return moea::hypervolume_3d(std::move(pts), {1.1, 1.1, 1.1}) / (1.1 * 1.1 * 1.1);
}

/// The per-app invariants that hold at any seed (and under any
/// result-changing optimization of the design-time engines).
Checks check_app_flow(const AppFlow& f, const exp::FlowParams& params,
                      const std::string& snapshot_path, std::uint64_t sample_seed) {
  Checks c;
  const exp::AppInstance& app = *f.app;
  const dse::DesignDb& based = f.flow.based;
  const dse::DesignDb& red = f.flow.red;
  dse::MappingProblem problem(app.context(), f.flow.spec, params.mode);

  c.expect(!based.empty(), "BaseD is empty");
  // Every stored point's metrics equal a fresh reference re-evaluation
  // (bit-identity contract of the schedule kernels).
  const sched::ReferenceScheduler reference;
  std::vector<std::vector<double>> base_objectives;
  for (std::size_t i = 0; i < red.size(); ++i) {
    const auto& p = red.point(i);
    const sched::ScheduleResult res = reference.run(app.context(), p.config);
    if (res.energy != p.energy || res.makespan != p.makespan || res.func_rel != p.func_rel) {
      c.expect(false, "ReD point " + std::to_string(i) + " differs from its reference evaluation");
      break;
    }
  }
  for (std::size_t i = 0; i < based.size(); ++i) {
    const auto& p = based.point(i);
    base_objectives.push_back(problem.objectives_of(reference.run(app.context(), p.config)));
  }
  // BaseD is mutually non-dominated.
  const auto dominates = [](const std::vector<double>& a, const std::vector<double>& b) {
    bool strictly = false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] > b[k]) return false;
      strictly |= a[k] < b[k];
    }
    return strictly;
  };
  for (std::size_t i = 0; i < base_objectives.size(); ++i) {
    for (std::size_t j = 0; j < base_objectives.size(); ++j) {
      if (i != j && dominates(base_objectives[i], base_objectives[j])) {
        c.expect(false, "BaseD point " + std::to_string(i) + " dominates point " +
                            std::to_string(j));
        i = base_objectives.size();
        break;
      }
    }
  }
  // ReD contains BaseD.
  std::map<std::uint64_t, std::vector<std::size_t>> red_index;
  for (std::size_t i = 0; i < red.size(); ++i) {
    red_index[dse::hash_configuration(red.point(i).config)].push_back(i);
  }
  for (const auto& p : based.points()) {
    bool found = false;
    for (std::size_t i : red_index[dse::hash_configuration(p.config)]) {
      found |= same_point(red.point(i), p);
    }
    if (!found) {
      c.expect(false, "a BaseD point is missing from ReD");
      break;
    }
  }
  // Every point meets the spec.
  for (const auto& p : red.points()) {
    if (!p.feasible_for(f.flow.spec)) {
      c.expect(false, "a stored point violates the QoS spec");
      break;
    }
  }
  // Sampled DrcMatrix entries equal the reconfiguration model.
  recfg::ReconfigModel reconfig(app.platform(), app.impls());
  const dse::DesignDb& stored = f.stored;
  const rt::DrcMatrix& drc = *f.drc;
  c.expect(drc.size() == stored.size(), "DrcMatrix size differs from the stored database");
  util::SplitMix64 pick(sample_seed);
  for (int s = 0; s < 64 && drc.size() > 0; ++s) {
    const std::size_t i = pick.next() % drc.size();
    const std::size_t j = pick.next() % drc.size();
    if (drc.drc(i, j) != reconfig.drc(stored.point(i).config, stored.point(j).config)) {
      c.expect(false, "DrcMatrix entry (" + std::to_string(i) + "," + std::to_string(j) +
                          ") differs from ReconfigModel::drc");
      break;
    }
  }
  // The .clrdb round trip is bit-equal.
  const io::Snapshot snap = io::Snapshot::open(snapshot_path);
  const io::LoadedSnapshot loaded = io::materialize(snap.view());
  c.expect(same_db(loaded.db, stored), "snapshot round trip changed the database");
  c.expect(loaded.space.size() == app.clr_space().size(), "snapshot round trip changed the CLR space");
  bool drc_equal = loaded.drc.has_value() && loaded.drc->size() == drc.size();
  for (std::size_t i = 0; drc_equal && i < drc.size(); ++i) {
    for (std::size_t j = 0; j < drc.size(); ++j) drc_equal &= loaded.drc->drc(i, j) == drc.drc(i, j);
  }
  c.expect(drc_equal, "snapshot round trip changed the DrcMatrix");
  return c;
}

// ---------------------------------------------------------------------------
// Set-up: the service applications whose ReD databases fleet and grid use.

struct ServiceApp {
  AppFlow flow;
  std::string snapshot_path;
  dse::MetricRanges ranges;  ///< QoS-process box (exp::qos_ranges)
  double mean_drc = 0.0;     ///< mean pairwise dRC between distinct ReD points
  rt::QosProcessParams qos;
  double horizon = 0.0;  ///< simulated cycles per device / replication
};

/// Simulated time is set per app in units of its own reconfiguration cost:
/// QoS changes arrive every gap_per_drc mean dRCs, and a device lives for
/// events_per_device changes. Apps differ several-fold in dRC scale; a
/// fixed gap would leave some apps stalled most of the time (the service
/// availability clamps to 0 at the library default of 100 cycles) and
/// others never. This keeps every app in the same regime.
void set_time_scale(ServiceApp& s, const Scale& scale) {
  const rt::DrcMatrix& drc = *s.flow.drc;
  double sum = 0.0;
  for (std::size_t i = 0; i < drc.size(); ++i) {
    for (std::size_t j = 0; j < drc.size(); ++j) sum += drc.drc(i, j);
  }
  const double n = static_cast<double>(drc.size());
  s.mean_drc = n > 1 ? sum / (n * (n - 1)) : 0.0;
  s.qos.mean_event_gap = std::max(scale.gap_per_drc * s.mean_drc, 1.0);
  s.horizon = scale.events_per_device * s.qos.mean_event_gap;
}

// ---------------------------------------------------------------------------
// Fleet stage: a uRA fleet without faults or prefetch over each service DB.

fleet::FleetConfig fleet_config(const ServiceApp& svc, const Scale& scale, std::uint64_t seed,
                                std::size_t app, std::uint64_t devices, std::size_t jobs) {
  fleet::FleetConfig cfg;
  cfg.devices = devices;
  cfg.block_size = scale.fleet_block;
  cfg.jobs = jobs;
  cfg.seed = derive(seed, kTagFleet, app);
  cfg.params.kind = exp::PolicyKind::Ura;
  cfg.params.p_rc = 0.5;
  cfg.params.sim.total_cycles = svc.horizon;
  cfg.params.qos = svc.qos;
  cfg.ranges = svc.ranges;
  return cfg;
}

struct FleetPass {
  double wall_s = 0.0;
  double open_s = 0.0;
  double run_s = 0.0;
  std::vector<fleet::FleetResult> results;  ///< one per service app
};

/// One pass: for every service app, open its snapshot and run its fleet.
FleetPass run_fleet_pass(const std::vector<ServiceApp>& svcs,
                         const std::vector<fleet::FleetConfig>& cfgs) {
  FleetPass pass;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < svcs.size(); ++k) {
    io::LoadedSnapshot loaded;
    pass.open_s += timed("bench.io.snapshot_open", [&] {
      const io::Snapshot snap = io::Snapshot::open(svcs[k].snapshot_path);
      loaded = io::materialize(snap.view());
    });
    if (!loaded.drc) throw std::runtime_error("service snapshot carries no DrcMatrix");
    pass.run_s += timed("bench.fleet.run", [&] {
      pass.results.push_back(fleet::run_fleet(loaded.db, *loaded.drc, &loaded.space, cfgs[k]));
    });
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

std::uint64_t fleet_digest(const FleetPass& pass) {
  Digest d;
  for (const fleet::FleetResult& r : pass.results) {
    d.add(r.devices_done);
    const fleet::BlockSum& t = r.summary.totals;
    for (auto v : {t.devices, t.events, t.reconfigs, t.infeasible_events, t.transient_faults,
                   t.recovered_transients, t.unrecovered_failures, t.permanent_faults,
                   t.evacuations, t.safe_mode_entries, t.prefetch_hits, t.prefetch_misses}) {
      d.add(v);
    }
    for (double v : {t.energy_sum, t.reconfig_cost_sum, t.violation_time_sum, t.downtime_sum,
                     t.availability_sum, t.mttr_sum, t.stall_time_sum, t.hidden_time_sum,
                     t.service_availability_sum, t.max_drc}) {
      d.add(v);
    }
  }
  return d.value();
}

fleet::DeviceResult device_result_of(std::uint64_t device, const rt::RuntimeStats& s) {
  fleet::DeviceResult r;
  r.device = device;
  r.events = s.num_events;
  r.reconfigs = s.num_reconfigs;
  r.infeasible_events = s.num_infeasible_events;
  r.transient_faults = s.num_transient_faults;
  r.recovered_transients = s.num_recovered_transients;
  r.unrecovered_failures = s.num_unrecovered_failures;
  r.permanent_faults = s.num_permanent_faults;
  r.evacuations = s.num_evacuations;
  r.safe_mode_entries = s.num_safe_mode_entries;
  r.prefetch_hits = s.prefetch_hits;
  r.prefetch_misses = s.prefetch_misses;
  r.avg_energy = s.avg_energy;
  r.total_reconfig_cost = s.total_reconfig_cost;
  r.qos_violation_time = s.qos_violation_time;
  r.downtime = s.downtime;
  r.availability = s.availability;
  r.mttr = s.mttr;
  r.max_drc = s.max_drc;
  r.reconfig_stall_time = s.reconfig_stall_time;
  r.prefetch_hidden_time = s.prefetch_hidden_time;
  r.service_availability = s.service_availability;
  return r;
}

/// Fleet invariants for one app, one operation per block: every block
/// completed, and one sampled block refolded in device order from
/// independent exp::evaluate_policy_with calls is bit-equal to the
/// pipeline's block sum (the fleet's documented determinism contract).
void check_fleet(const ServiceApp& svc, const fleet::FleetConfig& cfg,
                 const fleet::FleetResult& r, std::uint64_t sample_seed, Ledger& ledger) {
  const std::uint64_t blocks = fleet::fleet_num_blocks(cfg);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (b >= r.progress.done.size() || r.progress.done[b] == 0 || b >= r.progress.blocks.size()) {
      ledger.fail("fleet block " + std::to_string(b) + " not completed");
    }
  }
  if (r.devices_done != cfg.devices || !r.complete) {
    ledger.violation("fleet: " + std::to_string(r.devices_done) + " of " +
                     std::to_string(cfg.devices) + " devices done");
    return;
  }
  const std::uint64_t b = sample_seed % blocks;
  ledger.run("fleet block " + std::to_string(b) + " refold", [&] {
    fleet::BlockSum sum;
    const std::uint64_t first = b * cfg.block_size;
    const std::uint64_t last = std::min(cfg.devices, first + cfg.block_size);
    for (std::uint64_t d = first; d < last; ++d) {
      const rt::RuntimeStats s = exp::evaluate_policy_with(
          svc.flow.stored, *svc.flow.drc, cfg.ranges, cfg.params,
          fleet::device_seed(cfg.seed, d), &svc.flow.app->clr_space());
      sum.add(device_result_of(d, s));
    }
    if (!(sum == r.progress.blocks[b])) {
      throw std::runtime_error("refolded block sum differs from the fleet's");
    }
  });
}

// ---------------------------------------------------------------------------
// Grid stage.

/// pRC values of the grid: with {BaseD, ReD} x {AuRA, MDP+prefetch} they
/// make twelve cells per service app.
constexpr double kPrcs[] = {0.0, 0.5, 1.0};

/// Parameters of one grid cell: transient faults at 1e-4 per PE-cycle and
/// wear-out at a mean of five horizons per PE. MDP planning uses a 4x4
/// QoS-bin grid (library default 6x6, about five times the planning cost)
/// so that one grid pass covers every service app within the run; planning
/// still dominates an MDP replication.
exp::RuntimeEvalParams cell_params(const ServiceApp& svc, exp::PolicyKind kind, double p_rc) {
  exp::RuntimeEvalParams p;
  p.kind = kind;
  p.p_rc = p_rc;
  p.prefetch = kind == exp::PolicyKind::Mdp;
  p.mdp.makespan_bins = 4;
  p.mdp.func_rel_bins = 4;
  p.sim.total_cycles = svc.horizon;
  p.qos = svc.qos;
  // AuRA's prior: 4 sweeps of 500 QoS changes each, the library default's
  // share at its default event gap.
  p.pretrain_cycles = 500.0 * svc.qos.mean_event_gap;
  p.faults.transient_rate = 1e-4;
  p.faults.pe_mtbf = 5.0 * svc.horizon;
  // Explicit per-PE profiles: exp::Runner evaluates through
  // evaluate_policy_with, which substitutes uniform profiles when this is
  // empty, while exp::evaluate_policy derives them from the app's platform.
  p.fault_profiles = flt::profiles_from_platform(svc.flow.app->platform());
  return p;
}

/// The grid over every service app. Cells are ordered by cost, MDP on ReD
/// first and AuRA last: the Runner hands replications to its workers in cell
/// order, so the pass ends on short replications instead of one worker
/// finishing a long MDP plan alone.
std::vector<exp::RunnerCell> grid_cells(const std::vector<ServiceApp>& svcs,
                                        std::uint64_t seed) {
  std::vector<exp::RunnerCell> cells;
  for (const exp::PolicyKind kind : {exp::PolicyKind::Mdp, exp::PolicyKind::Aura}) {
    for (const bool red : {true, false}) {
      for (std::size_t k = 0; k < svcs.size(); ++k) {
        for (const double p_rc : kPrcs) {
          exp::RunnerCell cell;
          cell.app = svcs[k].flow.app.get();
          cell.db = red ? &svcs[k].flow.stored : &svcs[k].flow.flow.based;
          cell.ranges = svcs[k].ranges;
          cell.params = cell_params(svcs[k], kind, p_rc);
          cell.seed = derive(seed, kTagGrid, cells.size());
          cell.label = "app" + std::to_string(k) + (red ? "/ReD" : "/BaseD") +
                       (kind == exp::PolicyKind::Aura ? "/aura" : "/mdp") + "/prc" +
                       std::to_string(p_rc).substr(0, 3);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

struct GridPass {
  double wall_s = 0.0;
  std::size_t replications = 0;
  std::vector<exp::CellResult> cells;
  std::uint64_t drc_builds = 0;
  std::uint64_t grid_hash = 0;
};

GridPass run_grid_pass(const std::vector<exp::RunnerCell>& cells, std::size_t reps,
                       std::size_t jobs) {
  GridPass pass;
  exp::Runner runner(exp::RunnerConfig{.replications = reps, .jobs = jobs, .keep_runs = true});
  for (const auto& cell : cells) runner.add_cell(cell);
  pass.grid_hash = runner.grid_hash();
  pass.wall_s = timed("bench.experiments.grid", [&] { pass.cells = runner.run(); });
  pass.replications = runner.num_cells() * reps;
  pass.drc_builds = runner.metrics().counter("runner.drc_builds").value();
  return pass;
}

std::uint64_t grid_digest(const GridPass& g) {
  Digest d;
  for (const auto& c : g.cells) {
    const exp::ReplicatedStats& s = c.stats;
    d.add(s.replications);
    for (const util::Summary* f :
         {&s.num_events, &s.num_reconfigs, &s.num_infeasible_events, &s.avg_energy,
          &s.total_reconfig_cost, &s.avg_reconfig_cost, &s.max_drc, &s.qos_violation_time,
          &s.num_transient_faults, &s.num_unrecovered_failures, &s.num_permanent_faults,
          &s.num_evacuations, &s.num_safe_mode_entries, &s.downtime, &s.availability, &s.mttr,
          &s.reconfig_stall_time, &s.prefetch_hidden_time, &s.prefetch_hits,
          &s.prefetch_misses, &s.service_availability}) {
      d.add(f->mean);
    }
  }
  return d.value();
}

bool same_stats(const rt::RuntimeStats& a, const rt::RuntimeStats& b) {
  return a.total_cycles == b.total_cycles && a.num_events == b.num_events &&
         a.num_reconfigs == b.num_reconfigs && a.num_infeasible_events == b.num_infeasible_events &&
         a.avg_energy == b.avg_energy && a.total_reconfig_cost == b.total_reconfig_cost &&
         a.avg_reconfig_cost == b.avg_reconfig_cost && a.max_drc == b.max_drc &&
         a.qos_violation_time == b.qos_violation_time &&
         a.num_transient_faults == b.num_transient_faults &&
         a.num_recovered_transients == b.num_recovered_transients &&
         a.num_unrecovered_failures == b.num_unrecovered_failures &&
         a.num_permanent_faults == b.num_permanent_faults &&
         a.num_evacuations == b.num_evacuations &&
         a.num_safe_mode_entries == b.num_safe_mode_entries && a.downtime == b.downtime &&
         a.availability == b.availability && a.mttr == b.mttr &&
         a.reconfig_stall_time == b.reconfig_stall_time &&
         a.prefetch_hidden_time == b.prefetch_hidden_time &&
         a.prefetch_hits == b.prefetch_hits && a.prefetch_misses == b.prefetch_misses &&
         a.service_availability == b.service_availability;
}

/// Grid invariants, one operation per replication: every cell complete, the
/// stall/hidden split sums to the total reconfiguration cost (a derived sum
/// of rounded terms, so within a relative tolerance), and one sampled
/// replication equals an independent exp::evaluate_policy call bit for bit
/// (the Runner's determinism contract).
void check_grid(const std::vector<exp::RunnerCell>& cells, const GridPass& g, std::size_t reps,
                std::uint64_t sample_seed, Ledger& ledger) {
  const std::size_t sampled = sample_seed % std::max<std::size_t>(cells.size() * reps, 1);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t r = 0; r < reps; ++r) {
      const std::string what = "grid cell " + cells[c].label + " rep " + std::to_string(r);
      if (c >= g.cells.size() || g.cells[c].stats.replications != reps ||
          g.cells[c].runs.size() != reps) {
        ledger.fail(what + ": incomplete cell");
        continue;
      }
      const rt::RuntimeStats& run = g.cells[c].runs[r];
      Checks chk;
      chk.expect(rel_close(run.reconfig_stall_time + run.prefetch_hidden_time,
                           run.total_reconfig_cost, 1e-9),
                 "stall + hidden != total reconfiguration cost");
      chk.expect(run.num_events > 0, "no events simulated");
      if (c * reps + r == sampled) {
        const bool ran = ledger.run(what + " reference", [&] {
          const rt::RuntimeStats ref =
              exp::evaluate_policy(*cells[c].app, *cells[c].db, cells[c].ranges, cells[c].params,
                                   exp::replication_seed(cells[c].seed, r));
          chk.expect(same_stats(ref, run), "differs from exp::evaluate_policy");
        });
        if (!ran) continue;  // the exception already counted this replication
      }
      if (!chk.ok()) ledger.fail(what + ": " + chk.joined());
    }
  }
}
// ---------------------------------------------------------------------------
// Trace analysis: per-name self time of the collected spans.

struct SpanTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
  std::map<std::string, double> max_s;

  double self(const std::string& name) const { return lookup(self_s, name); }
  double total(const std::string& name) const { return lookup(total_s, name); }
  double max(const std::string& name) const { return lookup(max_s, name); }

 private:
  static double lookup(const std::map<std::string, double>& m, const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};

SpanTotals span_totals(const std::vector<trace::Event>& events) {
  SpanTotals out;
  std::map<std::uint32_t, std::vector<const trace::Event*>> by_thread;
  for (const auto& e : events) {
    if (e.phase == trace::Phase::Complete) by_thread[e.tid].push_back(&e);
  }
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const trace::Event* a, const trace::Event* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    // Spans nest per thread; a stack of open spans finds each one's parent.
    std::vector<const trace::Event*> open;
    std::map<const trace::Event*, double> child_s;
    for (const trace::Event* e : spans) {
      while (!open.empty() && open.back()->ts_ns + open.back()->dur_ns <= e->ts_ns) open.pop_back();
      if (!open.empty()) child_s[open.back()] += 1e-9 * static_cast<double>(e->dur_ns);
      open.push_back(e);
    }
    for (const trace::Event* e : spans) {
      const double d = 1e-9 * static_cast<double>(e->dur_ns);
      out.total_s[e->name] += d;
      out.self_s[e->name] += d - child_s[e];
      out.max_s[e->name] = std::max(out.max_s[e->name], d);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct MetricSet {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& it : items) {
      if (it.first == name) {
        it.second = {value, unit};
        return;
      }
    }
    items.push_back({name, {value, unit}});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(const Ledger& ledger, const MetricSet& m) {
  std::string s = std::string("{\"correct\": ") + (ledger.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(ledger.attempted()) +
                  ", \"failed\": " + std::to_string(ledger.failed()) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m.items) {
    s += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
         json_number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return s + "}}";
}

// ---------------------------------------------------------------------------
// One benchmark run.

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// Everything one run produced: the metrics plus the per-stage digests.
struct RunOutput {
  MetricSet metrics;
  std::uint64_t explore_digest = 0, service_digest = 0, fleet_digest = 0, grid_digest = 0;
  std::uint64_t explore_param_hash = 0, fleet_param_hash = 0, grid_hash = 0;
};

constexpr std::uint32_t kTraceMask = trace::mask_of(trace::Category::Dse) |
                                     trace::mask_of(trace::Category::Drc) |
                                     trace::mask_of(trace::Category::Exp) |
                                     trace::mask_of(trace::Category::Bench);

/// Host-speed probe. A shared host runs the benchmark's threads at a speed
/// that drifts by up to 2x over minutes (other tenants' load on the same
/// physical cores, often on some of the VM's cores only), and no median
/// within one run removes drift that lasts the whole run. The probe is a
/// fixed integer loop that uses no library code, run on `threads` threads at
/// once. Stage times are reported scaled by kProbeReferenceS over the
/// stage's median probe time: in seconds of a host on which the probe takes
/// kProbeReferenceS (about a quiet 4-vCPU Xeon VM at 2.1 GHz).
constexpr double kProbeReferenceS = 0.045;

struct ProbeTimes {
  double slowest_s = 0.0;     ///< time of the slowest thread
  double mean_speed_s = 0.0;  ///< time at the threads' mean speed
};

ProbeTimes host_probe(std::size_t threads) {
  std::vector<double> seconds(threads, 0.0);
  std::vector<std::uint64_t> sums(threads, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&seconds, &sums, t] {
      const auto t0 = Clock::now();
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t, sum = 0;
      for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += x * 0x2545f4914f6cdd1dULL;
      }
      sums[t] = sum;
      seconds[t] = seconds_since(t0);
    });
  }
  for (auto& th : pool) th.join();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t v : sums) sink = sink + v;
  double speed = 0.0;
  for (double t : seconds) speed += 1.0 / t;
  return {*std::max_element(seconds.begin(), seconds.end()),
          static_cast<double>(threads) / speed};
}

/// Return the heap's free pages to the system. Passes allocate and free the
/// same large structures (a DSE schedule cache is tens of MB); without this,
/// a pass whose allocations land in another malloc arena adds such a
/// structure's size to the peak RSS in some runs and not in others.
void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void print_passes(const char* what, const std::vector<double>& seconds) {
  std::printf("%s:", what);
  for (double s : seconds) std::printf(" %.3f", s);
  std::printf("\n");
}

/// Repeat `pass` until `budget_s` has elapsed, at least once.
template <class F>
void repeat_for(double budget_s, F&& pass) {
  const auto t0 = Clock::now();
  std::size_t i = 0;
  do {
    pass(i++);
  } while (seconds_since(t0) < budget_s);
}

class Bench {
 public:
  Bench(const RunOptions& opt, const Scale& scale) : opt_(opt), scale_(scale), pool_(scale.jobs) {
    scale_.flow.dse.threads = scale.jobs;
  }

  RunOutput run(Ledger& ledger);

 private:
  void setup(Ledger& ledger);
  void explore_stage(Ledger& ledger);
  void fleet_stage(Ledger& ledger, bool focus);
  void grid_stage(Ledger& ledger, bool focus);
  void fleet_layers(Ledger& ledger);
  void grid_layers(Ledger& ledger);
  void explore_layers(const std::vector<const AppFlow*>& flows,
                      const std::vector<trace::Event>& events, double wall_s, double cpu_s);

  /// Run the focus stage's `pass(i, traced)` for --seconds (split between
  /// an untraced and a traced half in traced runs), or a fixed number of
  /// untraced passes plus one traced pass for a secondary stage.
  template <class F>
  void passes(bool focus, std::size_t secondary_reps, F&& pass) {
    // Each pass starts from a trimmed heap; a timed pass after a probe.
    const auto run = [&](std::size_t i, bool traced) {
      release_free_heap();
      if (!traced) probe();
      pass(i, traced);
    };
    if (!focus) {
      for (std::size_t i = 0; i < secondary_reps; ++i) run(i, false);
      if (tracing()) run(secondary_reps, true);
      return;
    }
    const double budget = tracing() ? opt_.seconds / 2 : opt_.seconds;
    std::size_t done = 0;
    repeat_for(budget, [&](std::size_t) { run(done++, false); });
    if (tracing()) repeat_for(budget, [&](std::size_t) { run(done++, true); });
  }

  /// Probe the host's speed before a timed pass of the current stage.
  void probe() { probes_.push_back(host_probe(scale_.jobs)); }
  /// How a stage's pace follows the probe. Measured on hosts where one or
  /// two of the VM's cores were slowed: the design-time DSE (explore and
  /// set-up) slows down like the probe's slowest thread, as its workers meet
  /// at every generation; the fleet and grid stages slow down less, like
  /// the threads' mean speed.
  enum class Pace { kSlowest, kMeanSpeed };

  /// Factor from the current stage's wall seconds to reference-host seconds,
  /// from its probes and one more after its last pass; starts a new stage.
  double host_scale(const char* stage, Pace pace) {
    probe();
    std::vector<double> times;
    for (const ProbeTimes& p : probes_) {
      times.push_back(pace == Pace::kSlowest ? p.slowest_s : p.mean_speed_s);
    }
    const double probe_s = median(times);
    probes_.clear();
    const double scale = kProbeReferenceS / probe_s;
    std::printf("host probe %-8s %.2f ms median, time scale %.4f\n", stage, 1e3 * probe_s, scale);
    return scale;
  }

  std::string path(const std::string& name) const {
    return (std::filesystem::path(opt_.workdir) / name).string();
  }
  bool tracing() const { return opt_.trace; }
  void trace_begin() {
    if (!tracing()) return;
    auto& tr = trace::Tracer::instance();
    tr.clear();
    tr.enable(kTraceMask);
  }
  std::vector<trace::Event> trace_end() {
    if (!tracing()) return {};
    auto& tr = trace::Tracer::instance();
    tr.disable();
    auto events = tr.collect();
    tr.clear();
    return events;
  }
  /// Untraced and traced medians of the focus stage's pass wall times, and
  /// the median over traced passes of their summed per-layer times.
  void focus_times(const std::vector<double>& untraced, const std::vector<double>& traced,
                   const std::vector<double>& accounted) {
    focus_untraced_s_ = median(untraced);
    focus_traced_s_ = median(traced);
    accounted_s_ = median(accounted);
  }

  RunOptions opt_;
  Scale scale_;
  util::ThreadPool pool_;
  std::vector<ServiceApp> services_;
  RunOutput out_;
  MetricSet e2e_, layers_;
  std::vector<ProbeTimes> probes_;
  double accounted_s_ = 0.0, focus_untraced_s_ = 0.0, focus_traced_s_ = 0.0;
};

void Bench::setup(Ledger& ledger) {
  trace_begin();
  std::vector<double> setup_s, flow_s, hv;
  StageTimes stage_times;
  double explore_wall = 0.0, cpu = 0.0;
  Digest digest;
  for (std::size_t k = 0; k < scale_.service_apps; ++k) {
    ledger.attempt();
    const std::uint64_t flow_seed = derive(opt_.seed, kTagServiceFlow, k);
    ServiceApp svc;
    svc.snapshot_path = path("service-" + std::to_string(k) + ".clrdb");
    release_free_heap();
    probe();
    const auto t0 = Clock::now();
    const double cpu0 = cpu_seconds();
    const bool ran = ledger.run("service app " + std::to_string(k), [&] {
      svc.flow = run_app_flow(scale_.service_tasks, derive(opt_.seed, kTagServiceApp, k),
                              flow_seed, scale_.flow, scale_.storage_points, pool_,
                              svc.snapshot_path);
      svc.ranges = exp::qos_ranges(svc.flow.flow);
      set_time_scale(svc, scale_);
    });
    if (!ran) continue;
    setup_s.push_back(seconds_since(t0));
    cpu += cpu_seconds() - cpu0;
    explore_wall += svc.flow.total_s();
    flow_s.push_back(svc.flow.total_s());
    stage_times.add(svc.flow);
    const Checks c = check_app_flow(svc.flow, scale_.flow, svc.snapshot_path, flow_seed);
    if (!c.ok()) {
      ledger.fail("service app " + std::to_string(k) + ": " + c.joined());
      continue;
    }
    digest.add(flow_digest(svc.flow.flow));
    hv.push_back(normalized_hv(svc.flow.flow.red));
    if (k == 0) {
      out_.explore_param_hash = exp::explore_param_hash(*svc.flow.app, scale_.flow, flow_seed);
    }
    services_.push_back(std::move(svc));
  }
  const auto events = trace_end();
  if (services_.size() != scale_.service_apps) {
    throw std::runtime_error("set-up failed: a service app did not build");
  }
  out_.service_digest = digest.value();
  print_passes("service app flow seconds", flow_s);
  const double scale = host_scale("set-up", Pace::kSlowest);
  e2e_.set("setup_s", median(setup_s) * scale, "s");
  if (opt_.workload != "explore") {
    // The app set of the fleet and grid workloads is the service app set.
    // Its apps are alike in size, so one pass over it is estimated as the
    // app count times the median app, stage by stage.
    e2e_.set("explore_s", static_cast<double>(services_.size()) * stage_times.median_sum() * scale,
             "s");
    e2e_.set("front_hv", mean(hv), "1");
    out_.explore_digest = out_.service_digest;
    if (tracing()) {
      std::vector<const AppFlow*> flows;
      for (const auto& s : services_) flows.push_back(&s.flow);
      explore_layers(flows, events, explore_wall, cpu);
    }
  }
}

void Bench::explore_layers(const std::vector<const AppFlow*>& flows,
                           const std::vector<trace::Event>& events, double wall_s, double cpu_s) {
  double app = 0, spec = 0, base = 0, red = 0, drc = 0, write = 0, based_pts = 0, red_pts = 0;
  std::uint64_t runs = 0, hits = 0, lookups = 0;
  for (const AppFlow* f : flows) {
    app += f->app_build_s;
    spec += f->spec_s;
    base += f->base_s;
    red += f->red_s;
    drc += f->drc_s;
    write += f->write_s;
    runs += f->schedule_runs;
    hits += f->cache_hits;
    lookups += f->cache_lookups;
    based_pts += static_cast<double>(f->flow.based.size());
    red_pts += static_cast<double>(f->flow.red.size());
  }
  const SpanTotals spans = span_totals(events);
  // Batched evaluation of both GA engines, as self time of their spans.
  const double eval_batch = spans.self("hvga.eval_batch") + spans.self("nsga2.eval_batch");
  layers_.set("taskgraph.app_build_s", app, "s");
  layers_.set("experiments.spec_s", spec, "s");
  layers_.set("dse.base_s", base, "s");
  layers_.set("dse.red_s", red, "s");
  layers_.set("dse.red_seed_s.max", spans.max("dse.red_seed"), "s");
  layers_.set("moea.eval_batch_s", eval_batch, "s");
  layers_.set("dse.glue_frac", base + red > 0 ? 1.0 - eval_batch / (base + red) : 0.0, "1");
  layers_.set("schedule.runs", static_cast<double>(runs), "count");
  layers_.set("schedule.cache_hit_rate",
              lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "1");
  layers_.set("reconfig.drc_build_s", drc, "s");
  layers_.set("io.snapshot_write_s", write, "s");
  layers_.set("common.cpu_util",
              wall_s > 0 ? cpu_s / (wall_s * static_cast<double>(scale_.jobs)) : 0.0, "1");
  layers_.set("dse.based_points", based_pts, "count");
  layers_.set("dse.red_points", red_pts, "count");
}

void Bench::explore_stage(Ledger& ledger) {
  const std::size_t n = scale_.explore_tasks.size();
  std::vector<std::uint64_t> app_seeds, flow_seeds, first(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    app_seeds.push_back(derive(opt_.seed, kTagExploreApp, i));
    flow_seeds.push_back(derive(opt_.seed, kTagExploreFlow, i));
  }
  std::vector<double> untraced, traced_s, hv, accounted;
  std::vector<StageTimes> stage_times(n);
  bool any = false;
  passes(true, 0, [&](std::size_t pass, bool traced) {
    if (traced) trace_begin();
    const double cpu0 = cpu_seconds();
    std::vector<AppFlow> flows;
    double wall = 0.0;
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      ledger.attempt();
      const std::string what = "explore app " + std::to_string(i) + " pass " + std::to_string(pass);
      const std::string snap = path("explore-" + std::to_string(i) + ".clrdb");
      AppFlow f;
      const auto t0 = Clock::now();
      const bool ran = ledger.run(what, [&] {
        f = run_app_flow(scale_.explore_tasks[i], app_seeds[i], flow_seeds[i], scale_.flow, 0,
                         pool_, snap);
      });
      wall += seconds_since(t0);
      if (!ran) {
        ok = false;
        continue;
      }
      // Every pass redoes the same work: pass 0 is checked in full, later
      // passes must reproduce its digest.
      const std::uint64_t digest = flow_digest(f.flow);
      if (pass == 0) {
        first[i] = digest;
        const Checks c = check_app_flow(f, scale_.flow, snap, flow_seeds[i]);
        hv.push_back(normalized_hv(f.flow.red));
        if (!c.ok()) {
          ledger.fail(what + ": " + c.joined());
          ok = false;
        }
      } else if (digest != first[i]) {
        ledger.fail(what + ": digest differs from pass 0");
        ok = false;
      }
      flows.push_back(std::move(f));
    }
    const double cpu = cpu_seconds() - cpu0;
    const auto events = trace_end();
    if (!ok) return;
    any = true;
    (traced ? traced_s : untraced).push_back(wall);
    if (!traced) {
      for (std::size_t i = 0; i < n; ++i) stage_times[i].add(flows[i]);
    }
    if (traced) {
      std::vector<const AppFlow*> ptrs;
      double sum = 0.0;
      for (const auto& f : flows) {
        ptrs.push_back(&f);
        sum += f.total_s();
      }
      accounted.push_back(sum);
      explore_layers(ptrs, events, wall, cpu);
    }
  });
  if (!any) throw std::runtime_error("explore: no pass completed");
  print_passes("explore pass seconds", untraced);
  Digest d;
  for (std::uint64_t v : first) d.add(v);
  out_.explore_digest = d.value();
  // One pass over the app set, as the sum of each app's per-stage medians
  // over the untraced passes.
  double explore_s = 0.0;
  for (const auto& t : stage_times) explore_s += t.median_sum();
  e2e_.set("explore_s", explore_s * host_scale("explore", Pace::kSlowest), "s");
  e2e_.set("front_hv", mean(hv), "1");
  focus_times(untraced, traced_s, accounted);
}

void Bench::fleet_stage(Ledger& ledger, bool focus) {
  const std::uint64_t per_app = std::max<std::uint64_t>(scale_.fleet_devices / services_.size(), 1);
  std::vector<fleet::FleetConfig> cfgs;
  std::uint64_t blocks = 0;
  for (std::size_t k = 0; k < services_.size(); ++k) {
    cfgs.push_back(fleet_config(services_[k], scale_, opt_.seed, k, per_app, scale_.jobs));
    blocks += fleet::fleet_num_blocks(cfgs.back());
  }
  out_.fleet_param_hash = fleet::fleet_param_hash(cfgs.front());
  std::vector<double> rate, untraced, traced_s, accounted;
  std::optional<FleetPass> first;
  passes(focus, scale_.fleet_secondary_reps, [&](std::size_t pass, bool traced) {
    ledger.attempt(blocks);
    if (traced) trace_begin();
    FleetPass p;
    const bool ran = ledger.run("fleet pass " + std::to_string(pass),
                                [&] { p = run_fleet_pass(services_, cfgs); });
    trace_end();
    if (!ran) {
      for (std::uint64_t b = 1; b < blocks; ++b) ledger.fail("fleet pass threw");
      return;
    }
    if (!first) {
      for (std::size_t k = 0; k < services_.size(); ++k) {
        check_fleet(services_[k], cfgs[k], p.results[k], derive(opt_.seed, kTagSample, k), ledger);
      }
      first.emplace(std::move(p));
      untraced.push_back(first->wall_s);
      rate.push_back(static_cast<double>(per_app * services_.size()) / first->wall_s);
      return;
    }
    if (fleet_digest(p) != fleet_digest(*first)) {
      for (std::uint64_t b = 0; b < blocks; ++b) ledger.fail("fleet pass digest differs");
      return;
    }
    (traced ? traced_s : untraced).push_back(p.wall_s);
    if (!traced) rate.push_back(static_cast<double>(per_app * services_.size()) / p.wall_s);
    if (traced) {
      accounted.push_back(p.open_s + p.run_s);
      layers_.set("io.snapshot_open_s", p.open_s, "s");
    }
  });
  if (!first) throw std::runtime_error("fleet: no pass completed");
  print_passes("fleet pass seconds", untraced);
  if (focus) focus_times(untraced, traced_s, accounted);
  out_.fleet_digest = fleet_digest(*first);
  e2e_.set("fleet_devices_per_s", median(rate) / host_scale("fleet", Pace::kMeanSpeed), "1/s");

  double energy = 0, cost = 0, avail = 0, events = 0, reconfigs = 0, devices = 0;
  for (std::size_t k = 0; k < services_.size(); ++k) {
    const fleet::FleetSummary& s = first->results[k].summary;
    const ServiceApp& svc = services_[k];
    energy += s.mean_energy / svc.flow.stored.ranges().energy_min;
    cost += s.totals.reconfig_cost_sum / static_cast<double>(s.totals.events) / svc.mean_drc;
    avail += s.mean_service_availability;
    events += static_cast<double>(s.totals.events);
    reconfigs += static_cast<double>(s.totals.reconfigs);
    devices += static_cast<double>(s.totals.devices);
  }
  const double apps = static_cast<double>(services_.size());
  if (opt_.workload != "grid") {
    e2e_.set("sim_energy", energy / apps, "1");
    e2e_.set("sim_service_availability", avail / apps, "1");
    layers_.set("sim_reconfig_cost", cost / apps, "1");
  }
  if (tracing()) {
    layers_.set("runtime.events_per_device", events / devices, "count");
    layers_.set("runtime.reconfigs_per_event", reconfigs / events, "1");
    fleet_layers(ledger);
  }
}

/// Device-level decision cost and fleet pipeline overhead on the first
/// service app: a sequential fleet::simulate_device sweep over sampled
/// devices and the same devices through run_fleet at one job; then a larger
/// fleet at one job and at the run's thread count for the scaling ratio.
void Bench::fleet_layers(Ledger& ledger) {
  const ServiceApp& svc = services_.front();
  const std::uint64_t n = scale_.sampled_devices;
  const fleet::FleetConfig one = fleet_config(svc, scale_, opt_.seed, 0, n, 1);
  const rt::QosProcess qos(svc.ranges, one.params.qos);
  const rt::RuntimeSimulator sim(one.params.sim);
  std::vector<double> device_us;
  double sequential_s = 0.0;
  std::uint64_t events = 0;
  ledger.run("fleet per-layer sweep", [&] {
    for (std::uint64_t d = 0; d < n; ++d) {
      const auto t0 = Clock::now();
      const fleet::DeviceResult r =
          fleet::simulate_device(svc.flow.stored, *svc.flow.drc, qos, sim, one.params,
                                 &svc.flow.app->clr_space(), d, one.seed);
      const double s = seconds_since(t0);
      device_us.push_back(1e6 * s);
      sequential_s += s;
      events += r.events;
    }
    const auto run = [&](std::uint64_t devices, std::size_t jobs) {
      return fleet::run_fleet(svc.flow.stored, *svc.flow.drc, &svc.flow.app->clr_space(),
                              fleet_config(svc, scale_, opt_.seed, 0, devices, jobs));
    };
    layers_.set("fleet.pipeline_overhead", run(n, 1).wall_seconds / sequential_s, "1");
    const fleet::FleetResult r1 = run(4 * n, 1);
    const fleet::FleetResult rn = run(4 * n, scale_.jobs);
    if (!(r1.summary.totals == rn.summary.totals)) {
      throw std::runtime_error("fleet totals differ between 1 and " + std::to_string(scale_.jobs) +
                               " jobs");
    }
    layers_.set("fleet.scaling_efficiency",
                r1.wall_seconds / (static_cast<double>(scale_.jobs) * rn.wall_seconds), "1");
  });
  layers_.set("runtime.device_us.p50", quantile(device_us, 0.50), "us");
  layers_.set("runtime.device_us.p99", quantile(device_us, 0.99), "us");
  layers_.set("runtime.ns_per_event",
              events > 0 ? 1e9 * sequential_s / static_cast<double>(events) : 0.0, "ns");
}

void Bench::grid_stage(Ledger& ledger, bool focus) {
  const std::size_t reps = scale_.grid_reps;
  const std::vector<exp::RunnerCell> cells = grid_cells(services_, opt_.seed);
  std::vector<double> rate, untraced, traced_s, accounted;
  std::optional<GridPass> first;
  passes(focus, scale_.grid_secondary_reps, [&](std::size_t pass, bool traced) {
    const std::size_t jobs = cells.size() * reps;
    ledger.attempt(jobs);
    if (traced) trace_begin();
    GridPass g;
    const bool ran = ledger.run("grid pass " + std::to_string(pass),
                                [&] { g = run_grid_pass(cells, reps, scale_.jobs); });
    const auto events = trace_end();
    if (!ran) {
      for (std::size_t j = 1; j < jobs; ++j) ledger.fail("grid pass threw");
      return;
    }
    if (!first) {
      check_grid(cells, g, reps, derive(opt_.seed, kTagSample, 100 + pass), ledger);
    } else if (grid_digest(g) != grid_digest(*first)) {
      for (std::size_t j = 0; j < jobs; ++j) ledger.fail("grid pass digest differs");
      return;
    }
    (traced ? traced_s : untraced).push_back(g.wall_s);
    if (!traced) rate.push_back(static_cast<double>(g.replications) / g.wall_s);
    if (traced) {
      double aura = 0, mdp = 0;
      for (const auto& c : g.cells) {
        (c.params.kind == exp::PolicyKind::Aura ? aura : mdp) += 1e-3 * c.wall_ms;
      }
      layers_.set("experiments.cell_s.aura", aura, "s");
      layers_.set("experiments.cell_s.mdp", mdp, "s");
      layers_.set("experiments.drc_builds", static_cast<double>(g.drc_builds), "count");
      // Replications run on the Runner's threads: their summed time over the
      // thread count is their share of the wall time.
      const SpanTotals spans = span_totals(events);
      accounted.push_back(spans.total("exp.drc_build") +
                          spans.total("exp.cell") / static_cast<double>(scale_.jobs));
    }
    if (!first) first.emplace(std::move(g));
  });
  if (!first) throw std::runtime_error("grid: no pass completed");
  print_passes("grid pass seconds", untraced);
  if (focus) focus_times(untraced, traced_s, accounted);
  out_.grid_digest = grid_digest(*first);
  out_.grid_hash = first->grid_hash;
  e2e_.set("grid_replications_per_s", median(rate) / host_scale("grid", Pace::kMeanSpeed), "1/s");

  std::vector<double> energy, cost, avail, transients, evac, unrec;
  double hits = 0, misses = 0, hidden = 0, total = 0;
  for (std::size_t c = 0; c < first->cells.size(); ++c) {
    const ServiceApp& svc = *std::find_if(services_.begin(), services_.end(), [&](const auto& v) {
      return v.flow.app.get() == cells[c].app;
    });
    for (const auto& r : first->cells[c].runs) {
      energy.push_back(r.avg_energy / svc.flow.stored.ranges().energy_min);
      cost.push_back(r.total_reconfig_cost / static_cast<double>(r.num_events) / svc.mean_drc);
      avail.push_back(r.service_availability);
      transients.push_back(static_cast<double>(r.num_transient_faults));
      evac.push_back(static_cast<double>(r.num_evacuations));
      unrec.push_back(static_cast<double>(r.num_unrecovered_failures));
      hits += static_cast<double>(r.prefetch_hits);
      misses += static_cast<double>(r.prefetch_misses);
      hidden += r.prefetch_hidden_time;
      total += r.total_reconfig_cost;
    }
  }
  if (opt_.workload == "grid") {
    e2e_.set("sim_energy", mean(energy), "1");
    e2e_.set("sim_service_availability", mean(avail), "1");
    layers_.set("sim_reconfig_cost", mean(cost), "1");
  }
  if (tracing()) {
    layers_.set("faults.transients_per_rep", mean(transients), "count");
    layers_.set("faults.evacuations_per_rep", mean(evac), "count");
    layers_.set("faults.unrecovered_per_rep", mean(unrec), "count");
    layers_.set("sim.prefetch_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "1");
    layers_.set("sim.hidden_frac", total > 0 ? hidden / total : 0.0, "1");
    grid_layers(ledger);
  }
}

/// The two offline costs AuRA and MDP replications pay, timed directly on
/// the first service app's ReD database at the grid's settings.
void Bench::grid_layers(Ledger& ledger) {
  const ServiceApp& svc = services_.front();
  const exp::RuntimeEvalParams aura = cell_params(svc, exp::PolicyKind::Aura, 0.5);
  const exp::RuntimeEvalParams mdp = cell_params(svc, exp::PolicyKind::Mdp, 0.5);
  ledger.run("grid per-layer timing", [&] {
    const rt::QosProcess qos(svc.ranges, aura.qos);
    rt::AuraPolicy policy(svc.flow.stored, *svc.flow.drc, aura.p_rc, aura.aura);
    util::Rng rng(derive(opt_.seed, kTagSample, 200));
    layers_.set("runtime.aura_pretrain_s", timed("bench.runtime.aura_pretrain", [&] {
                  rt::pretrain_aura(policy, svc.flow.stored, qos, aura.pretrain_cycles,
                                    aura.pretrain_sweeps, rng);
                }),
                "s");
    layers_.set("runtime.mdp_plan_s", timed("bench.runtime.mdp_plan", [&] {
                  const rt::MdpTable table =
                      rt::build_mdp_table(svc.flow.stored, *svc.flow.drc, svc.ranges, mdp.p_rc,
                                          mdp.qos, mdp.faults, mdp.mdp);
                  if (table.policy.empty()) throw std::runtime_error("empty MDP table");
                }),
                "s");
  });
}

RunOutput Bench::run(Ledger& ledger) {
  std::filesystem::create_directories(opt_.workdir);
  setup(ledger);
  const std::string& w = opt_.workload;
  if (w == "explore") explore_stage(ledger);
  fleet_stage(ledger, w == "fleet");
  grid_stage(ledger, w == "grid");

  e2e_.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(ledger.attempted(), 1));
  e2e_.set("success_rate", 1.0 - static_cast<double>(ledger.failed()) / attempted, "1");
  if (tracing()) {
    const bool timed_ok = focus_untraced_s_ > 0;
    layers_.set("trace.overhead_frac", timed_ok ? focus_traced_s_ / focus_untraced_s_ - 1.0 : 0.0,
                "1");
    layers_.set("trace.accounted_frac", timed_ok ? accounted_s_ / focus_untraced_s_ : 0.0, "1");
  }
  out_.metrics = tracing() ? layers_ : e2e_;
  return out_;
}

// ---------------------------------------------------------------------------

void print_provenance(const RunOptions& opt, const Scale& scale, const RunOutput& out) {
  std::printf("provenance:\n");
  std::printf("  compiler            %s\n", PIPEBENCH_COMPILER);
  std::printf("  build type          %s\n", PIPEBENCH_BUILD_TYPE);
  std::printf("  batch backend       %s\n", sched::CompiledGraph::batch_backend());
  std::printf("  nproc               %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("  jobs                %zu\n", scale.jobs);
  std::printf("  workload seed       %llu\n", static_cast<unsigned long long>(opt.seed));
  for (std::size_t k = 0; k < scale.service_apps; ++k) {
    std::printf("  service app seed    %llu (%zu tasks), flow seed %llu\n",
                static_cast<unsigned long long>(derive(opt.seed, kTagServiceApp, k)),
                scale.service_tasks,
                static_cast<unsigned long long>(derive(opt.seed, kTagServiceFlow, k)));
  }
  for (std::size_t i = 0; i < scale.explore_tasks.size() && opt.workload == "explore"; ++i) {
    std::printf("  explore app seed    %llu (%zu tasks), flow seed %llu\n",
                static_cast<unsigned long long>(derive(opt.seed, kTagExploreApp, i)),
                scale.explore_tasks[i],
                static_cast<unsigned long long>(derive(opt.seed, kTagExploreFlow, i)));
  }
  std::printf("  fleet seeds         derive(seed, fleet, app); grid cell seeds derive(seed, grid, cell)\n");
  std::printf("  explore_param_hash  %s (service app 0)\n", hex(out.explore_param_hash).c_str());
  std::printf("  fleet_param_hash    %s (service app 0)\n", hex(out.fleet_param_hash).c_str());
  std::printf("  grid_hash           %s\n", hex(out.grid_hash).c_str());
  std::printf("  snapshot version    %u\n", io::kSnapshotVersion);
  std::printf("  model               simulated; not validated against hardware, so no model-error "
              "figure is reported\n");
  std::printf("  timings             scaled to a host on which the probe takes %.0f ms: stage wall "
              "time x %.0f ms / the stage's median probe\n",
              1e3 * kProbeReferenceS, 1e3 * kProbeReferenceS);
  std::printf("results digest:\n");
  std::printf("  explore %s  service %s  fleet %s  grid %s\n", hex(out.explore_digest).c_str(),
              hex(out.service_digest).c_str(), hex(out.fleet_digest).c_str(),
              hex(out.grid_digest).c_str());
}

std::uint64_t combined_digest(const RunOutput& o) {
  Digest d;
  for (std::uint64_t v : {o.explore_digest, o.service_digest, o.fleet_digest, o.grid_digest}) {
    d.add(v);
  }
  return d.value();
}

int run_benchmark(const RunOptions& opt) {
  Ledger ledger;
  RunOutput out;
  Scale scale;
  bool finished = false;
  try {
    Bench bench(opt, scale);
    out = bench.run(ledger);
    finished = true;
  } catch (const std::exception& e) {
    ledger.violation(std::string("run aborted: ") + e.what());
  }
  print_provenance(opt, scale, out);
  for (const auto& [name, vu] : out.metrics.items) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  for (const auto& f : ledger.failures()) std::printf("FAILED: %s\n", f.c_str());
  std::printf("%s\n", result_line(ledger, out.metrics).c_str());
  std::fflush(stdout);
  return finished ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test of the benchmark's own machinery, at small size.

int selftest(const std::string& workdir) {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  std::filesystem::create_directories(workdir);

  // 1. The staged explore equals exp::run_design_flow.
  {
    const Scale s = small_scale(2);
    exp::FlowParams params = s.flow;
    params.dse.threads = 2;
    util::ThreadPool pool(2);
    const AppFlow staged =
        run_app_flow(14, 77, 78, params, 0, pool, (std::filesystem::path(workdir) / "st.clrdb").string());
    const auto app = exp::make_synthetic_app(14, 77);
    util::Rng rng(78);
    const exp::FlowResult ref = exp::run_design_flow(*app, params, rng);
    expect(ref.spec.max_makespan == staged.flow.spec.max_makespan &&
               ref.spec.min_func_rel == staged.flow.spec.min_func_rel &&
               same_db(ref.based, staged.flow.based) && same_db(ref.red, staged.flow.red),
           "staged explore equals exp::run_design_flow");
  }

  // 2. Digests of every workload at jobs 1 and 2, traced and untraced.
  for (const char* w : {"explore", "fleet", "grid"}) {
    std::vector<std::uint64_t> digests;
    for (const auto& [jobs, traced] : {std::pair{std::size_t{1}, false}, std::pair{std::size_t{2}, false},
                                       std::pair{std::size_t{2}, true}}) {
      RunOptions opt;
      opt.workload = w;
      opt.seed = 5;
      opt.seconds = 0.0;
      opt.trace = traced;
      opt.workdir = (std::filesystem::path(workdir) / "selftest").string();
      Ledger ledger;
      Bench bench(opt, small_scale(jobs));
      const RunOutput out = bench.run(ledger);
      for (const auto& f : ledger.failures()) std::printf("    failure: %s\n", f.c_str());
      expect(ledger.correct() && ledger.failed() == 0,
             std::string(w) + " checks pass at jobs " + std::to_string(jobs) +
                 (traced ? " traced" : ""));
      digests.push_back(combined_digest(out));
    }
    expect(digests[0] == digests[1], std::string(w) + " digest equal at jobs 1 and 2");
    expect(digests[1] == digests[2], std::string(w) + " digest equal traced and untraced");
  }
  std::printf("selftest: %s\n", failures == 0 ? "pass" : "FAIL");
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload explore|fleet|grid --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n       pipebench --selftest "
               "[--workdir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() != "0";
      } else if (a == "--workdir") {
        opt.workdir = value();
      } else if (a == "--selftest") {
        self = true;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (self) return selftest(opt.workdir);
  if (opt.workload != "explore" && opt.workload != "fleet" && opt.workload != "grid") {
    usage("--workload must be explore, fleet or grid");
  }
  if (!(opt.seconds >= 0.0)) usage("--seconds must be >= 0");
  return run_benchmark(opt);
}

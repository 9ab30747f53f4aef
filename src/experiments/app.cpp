#include "experiments/app.hpp"

namespace clr::exp {

AppInstance::AppInstance(tg::TaskGraph graph, plat::Platform platform,
                         rel::ClrGranularity granularity, rel::FaultModel fault,
                         rel::ImplGenParams impl_params, std::uint64_t impl_seed)
    : AppInstance(std::move(graph), std::move(platform), rel::ClrSpace(granularity), fault,
                  impl_params, impl_seed) {}

AppInstance::AppInstance(tg::TaskGraph graph, plat::Platform platform, rel::ClrSpace clr_space,
                         rel::FaultModel fault, rel::ImplGenParams impl_params,
                         std::uint64_t impl_seed)
    : graph_(std::move(graph)), platform_(std::move(platform)), clr_space_(std::move(clr_space)) {
  util::Rng rng(impl_seed);
  impls_ = rel::generate_implementations(graph_, platform_, impl_params, rng);
  ctx_.graph = &graph_;
  ctx_.platform = &platform_;
  ctx_.impls = &impls_;
  ctx_.clr_space = &clr_space_;
  ctx_.metrics = rel::MetricsModel(fault);
  ctx_.check();
}

std::unique_ptr<AppInstance> make_synthetic_app(std::size_t num_tasks, std::uint64_t seed,
                                                rel::ClrGranularity granularity) {
  return make_synthetic_app_with_space(num_tasks, seed, rel::ClrSpace(granularity));
}

std::unique_ptr<AppInstance> make_synthetic_app_with_space(std::size_t num_tasks,
                                                           std::uint64_t seed,
                                                           rel::ClrSpace clr_space) {
  util::SplitMix64 mix(seed);
  const std::uint64_t graph_seed = mix.next();
  const std::uint64_t impl_seed = mix.next();

  tg::GeneratorParams gp;
  gp.num_tasks = num_tasks;
  gp.num_task_types = std::max<std::size_t>(4, num_tasks / 5);
  util::Rng graph_rng(graph_seed);
  tg::TaskGraph graph = tg::TgffGenerator(gp).generate(graph_rng);

  return std::make_unique<AppInstance>(std::move(graph), plat::make_default_hmpsoc(),
                                       std::move(clr_space), rel::FaultModel{},
                                       rel::ImplGenParams{}, impl_seed);
}

std::unique_ptr<AppInstance> make_jpeg_app(std::uint64_t seed, rel::ClrGranularity granularity) {
  return std::make_unique<AppInstance>(tg::make_jpeg_encoder_graph(), plat::make_default_hmpsoc(),
                                       granularity, rel::FaultModel{}, rel::ImplGenParams{}, seed);
}

std::uint64_t derive_seed(std::uint64_t experiment_tag, std::size_t num_tasks) {
  util::SplitMix64 mix(kMasterSeed ^ experiment_tag);
  std::uint64_t s = mix.next();
  for (std::size_t i = 0; i <= num_tasks % 97; ++i) s = mix.next();
  return s ^ (static_cast<std::uint64_t>(num_tasks) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace clr::exp

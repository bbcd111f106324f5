#include "sim/multicast_replay.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

namespace {

/// The cycle of the latest delivery an engine reports.
class LastDelivery final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    if (event.kind == TraceEvent::Kind::kDelivered) {
      cycle = std::max(cycle, event.cycle);
    }
  }
  std::uint64_t cycle = 0;
};

}  // namespace

std::uint64_t simulate_makespan(const topology::Network& network,
                                const routing::Router& router,
                                const routing::MulticastSchedule& schedule,
                                std::uint32_t message_flits,
                                std::uint64_t seed) {
  std::uint64_t total = 0;
  for (const auto& round : schedule.rounds) {
    if (round.empty()) continue;
    SimConfig config;
    config.seed = seed;
    config.warmup_cycles = 0;
    config.measure_cycles = 1u << 30;
    config.drain_cycles = 0;
    Engine engine(network, router, nullptr, config);
    LastDelivery last;
    engine.set_trace_sink(&last);
    for (const routing::Unicast& uc : round) {
      engine.inject_message(uc.src, uc.dst, message_flits);
    }
    WORMSIM_CHECK_MSG(engine.run_until_idle(10'000'000),
                      "multicast round did not drain");
    total += last.cycle + 1;
  }
  return total;
}

}  // namespace wormsim::sim

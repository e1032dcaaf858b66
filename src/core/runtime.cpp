#include "core/runtime.hpp"

#include <utility>

namespace lapclique {

const Runtime& default_runtime() {
  static const Runtime rt;
  return rt;
}

clique::Network make_network(int n, const Runtime& rt) {
  clique::Network net(n < 2 ? 2 : n);
  net.set_tracer(rt.trace);
  net.set_fault_plan(rt.faults);
  net.set_routing_mode(rt.routing_mode);
  return net;
}

obs::json::Value runtime_to_json(const Runtime& rt) {
  obs::json::Object o;
  o["trace_enabled"] = rt.trace != nullptr;
  const fault::FaultPlan* plan = rt.faults;
  o["faults_enabled"] = plan != nullptr;
  if (plan != nullptr) {
    o["fault_spec"] = fault::to_string(plan->spec());
    o["fault_seed"] = static_cast<std::int64_t>(plan->seed());
  }
  // to_string, not a two-way ternary: a ternary here silently mislabeled
  // every mode that is neither kCharged nor the one hard-coded alternative.
  o["routing_mode"] = std::string(clique::to_string(rt.routing_mode));
  o["lenzen_constant"] = clique::Network::lenzen_constant();
  // Deliberately no path or resume flag here: this object is embedded in
  // trace output, and a resumed run's trace must stay byte-equal to an
  // uninterrupted one regardless of where its checkpoint file lived.
  o["checkpoint_enabled"] = !rt.checkpoint_path.empty();
  o["checkpoint_every"] = rt.checkpoint_every;
  return obs::json::Value(std::move(o));
}

}  // namespace lapclique

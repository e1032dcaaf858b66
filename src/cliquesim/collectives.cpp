#include "cliquesim/collectives.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace lapclique::clique {

namespace {

void check_size(const Network& net, std::size_t got) {
  if (got != static_cast<std::size_t>(net.size())) {
    throw std::invalid_argument("collective: one contribution per node required");
  }
}

}  // namespace

std::vector<double> broadcast_one(Network& net, const std::vector<double>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/broadcast_one");
  net.charge_all_to_all(1);
  return values;
}

std::vector<std::vector<Word>> broadcast_many(
    Network& net, const std::vector<std::vector<Word>>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/broadcast_many");
  std::size_t k = 0;
  std::int64_t total = 0;
  for (const auto& v : values) {
    k = std::max(k, v.size());
    total += static_cast<std::int64_t>(v.size());
  }
  net.charge_fanout(static_cast<std::int64_t>(k), total);
  return values;
}

double allreduce_sum(Network& net, const std::vector<double>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/allreduce_sum");
  net.charge_all_to_all(1);
  double s = 0;
  for (double v : values) s += v;
  return s;
}

double allreduce_max(Network& net, const std::vector<double>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/allreduce_max");
  net.charge_all_to_all(1);
  return *std::max_element(values.begin(), values.end());
}

double allreduce_min(Network& net, const std::vector<double>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/allreduce_min");
  net.charge_all_to_all(1);
  return *std::min_element(values.begin(), values.end());
}

std::int64_t allreduce_sum_int(Network& net, const std::vector<std::int64_t>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/allreduce_sum_int");
  net.charge_all_to_all(1);
  std::int64_t s = 0;
  for (std::int64_t v : values) s += v;
  return s;
}

std::int64_t allreduce_max_int(Network& net, const std::vector<std::int64_t>& values) {
  check_size(net, values.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/allreduce_max_int");
  net.charge_all_to_all(1);
  return *std::max_element(values.begin(), values.end());
}

std::vector<Word> gather_to_all(Network& net,
                                const std::vector<std::vector<Word>>& words) {
  check_size(net, words.size());
  LAPCLIQUE_TRACE_SPAN(net.tracer(), "collective/gather_to_all");
  std::int64_t total = 0;
  std::vector<Word> out;
  for (const auto& w : words) total += static_cast<std::int64_t>(w.size());
  out.reserve(static_cast<std::size_t>(total));
  for (const auto& w : words) out.insert(out.end(), w.begin(), w.end());
  net.charge_gossip(total, total * static_cast<std::int64_t>(net.size()));
  return out;
}

}  // namespace lapclique::clique

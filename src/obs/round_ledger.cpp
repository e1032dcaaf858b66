#include "obs/round_ledger.hpp"

#include <algorithm>
#include <stdexcept>

namespace lapclique::obs {

RoundLedger::RoundLedger() {
  SpanNode root;
  root.name = "<total>";
  root.visits = 1;
  nodes_.push_back(std::move(root));
  stack_.push_back(0);
}

int RoundLedger::open_span(std::string_view name, bool is_phase) {
  const int parent = stack_.back();
  for (int child : nodes_[static_cast<std::size_t>(parent)].children) {
    SpanNode& c = nodes_[static_cast<std::size_t>(child)];
    if (c.is_phase == is_phase && c.name == name) {
      ++c.visits;
      stack_.push_back(child);
      return child;
    }
  }
  const int id = static_cast<int>(nodes_.size());
  SpanNode node;
  node.name = std::string(name);
  node.parent = parent;
  node.is_phase = is_phase;
  node.visits = 1;
  nodes_.push_back(std::move(node));
  nodes_[static_cast<std::size_t>(parent)].children.push_back(id);
  stack_.push_back(id);
  return id;
}

void RoundLedger::close_span(int id) {
  // Pop until `id` is popped; tolerates phase spans left open underneath a
  // closing TraceSpan.  A close for a span not on the stack is a no-op.
  if (std::find(stack_.begin() + 1, stack_.end(), id) == stack_.end()) return;
  while (stack_.size() > 1) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void RoundLedger::switch_phase(std::string_view name) {
  const int top = stack_.back();
  if (top != 0 && nodes_[static_cast<std::size_t>(top)].is_phase) {
    if (nodes_[static_cast<std::size_t>(top)].name == name) return;
    stack_.pop_back();
  }
  open_span(name, /*is_phase=*/true);
}

void RoundLedger::record_op(std::string_view primitive, std::int64_t rounds,
                            std::int64_t words, std::int64_t max_node_load) {
  total_.add(rounds, words, max_node_load);
  nodes_[static_cast<std::size_t>(stack_.back())].self.add(rounds, words,
                                                           max_node_load);
  // transparent comparators would avoid the copy; std::map<std::string,...>
  // with std::string key keeps the JSON export ordering trivial.
  primitives_[std::string(primitive)].add(rounds, words, max_node_load);
}

void RoundLedger::record_op(std::string_view primitive, std::int64_t rounds,
                            std::int64_t words,
                            std::span<const std::int64_t> sent,
                            std::span<const std::int64_t> recv) {
  std::int64_t load = 0;
  for (std::int64_t s : sent) load = std::max(load, s);
  for (std::int64_t r : recv) load = std::max(load, r);
  record_op(primitive, rounds, words, load);
  if (sent_.size() < sent.size()) sent_.resize(sent.size(), 0);
  if (recv_.size() < recv.size()) recv_.resize(recv.size(), 0);
  for (std::size_t v = 0; v < sent.size(); ++v) sent_[v] += sent[v];
  for (std::size_t v = 0; v < recv.size(); ++v) recv_[v] += recv[v];
}

void RoundLedger::add_counter(std::string_view name, std::int64_t delta) {
  counters_[std::string(name)] += delta;
}

OpTotals RoundLedger::subtree(int id) const {
  const SpanNode& node = nodes_.at(static_cast<std::size_t>(id));
  OpTotals t = node.self;
  for (int child : node.children) {
    const OpTotals c = subtree(child);
    t.rounds += c.rounds;
    t.words += c.words;
    t.ops += c.ops;
    t.max_node_load = std::max(t.max_node_load, c.max_node_load);
  }
  return t;
}

std::int64_t RoundLedger::rounds_in(std::string_view name) const {
  std::int64_t r = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) r += subtree(static_cast<int>(i)).rounds;
  }
  return r;
}

std::vector<std::pair<std::string, std::int64_t>> RoundLedger::breakdown() const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (int child : nodes_[0].children) {
    out.emplace_back(nodes_[static_cast<std::size_t>(child)].name,
                     subtree(child).rounds);
  }
  if (nodes_[0].self.rounds > 0) {
    out.emplace_back("(unattributed)", nodes_[0].self.rounds);
  }
  return out;
}

void RoundLedger::reset() {
  nodes_.clear();
  stack_.clear();
  total_ = OpTotals{};
  primitives_.clear();
  counters_.clear();
  sent_.clear();
  recv_.clear();
  SpanNode root;
  root.name = "<total>";
  root.visits = 1;
  nodes_.push_back(std::move(root));
  stack_.push_back(0);
}

LedgerSnapshot RoundLedger::snapshot() const {
  LedgerSnapshot s;
  s.nodes = nodes_;
  s.stack = stack_;
  s.total = total_;
  s.primitives = primitives_;
  s.counters = counters_;
  s.sent = sent_;
  s.recv = recv_;
  return s;
}

void RoundLedger::restore(LedgerSnapshot s) {
  if (s.nodes.empty() || s.stack.empty()) {
    throw std::logic_error("RoundLedger::restore: snapshot has no root span");
  }
  nodes_ = std::move(s.nodes);
  stack_ = std::move(s.stack);
  total_ = s.total;
  primitives_ = std::move(s.primitives);
  counters_ = std::move(s.counters);
  sent_ = std::move(s.sent);
  recv_ = std::move(s.recv);
}

namespace {

json::Value totals_to_json(const OpTotals& t) {
  json::Object o;
  o.emplace("rounds", t.rounds);
  o.emplace("words", t.words);
  o.emplace("ops", t.ops);
  o.emplace("max_node_load", t.max_node_load);
  return json::Value(std::move(o));
}

json::Value span_to_json(const RoundLedger& ledger,
                         const std::vector<SpanNode>& nodes, int id) {
  const SpanNode& node = nodes[static_cast<std::size_t>(id)];
  const OpTotals sub = ledger.subtree(id);
  json::Object o;
  o.emplace("name", node.name);
  if (node.is_phase) o.emplace("phase", true);
  o.emplace("visits", node.visits);
  o.emplace("self", totals_to_json(node.self));
  o.emplace("rounds", sub.rounds);
  o.emplace("words", sub.words);
  json::Array children;
  for (int child : node.children) {
    children.push_back(span_to_json(ledger, nodes, child));
  }
  if (!children.empty()) o.emplace("children", json::Value(std::move(children)));
  return json::Value(std::move(o));
}

}  // namespace

json::Value RoundLedger::to_json() const {
  json::Object root;
  root.emplace("schema", "lapclique-trace-v1");
  root.emplace("total_rounds", total_.rounds);
  root.emplace("total_words", total_.words);
  root.emplace("total_ops", total_.ops);

  json::Object prims;
  for (const auto& [name, t] : primitives_) {
    prims.emplace(name, totals_to_json(t));
  }
  root.emplace("primitives", json::Value(std::move(prims)));

  json::Object counters;
  for (const auto& [name, v] : counters_) counters.emplace(name, v);
  root.emplace("counters", json::Value(std::move(counters)));

  json::Object congestion;
  json::Array sent;
  for (std::int64_t v : sent_) sent.push_back(json::Value(v));
  json::Array recv;
  for (std::int64_t v : recv_) recv.push_back(json::Value(v));
  congestion.emplace("sent_words", json::Value(std::move(sent)));
  congestion.emplace("recv_words", json::Value(std::move(recv)));
  root.emplace("congestion", json::Value(std::move(congestion)));

  root.emplace("spans", span_to_json(*this, nodes_, 0));
  return json::Value(std::move(root));
}

std::string RoundLedger::to_json_string() const { return to_json().dump_pretty(); }

}  // namespace lapclique::obs

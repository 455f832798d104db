// Pluggable event-notification framework (paper §4.4.2).
//
// libtesla reports instance initialisation, clones, updates, errors and
// finalisation (automaton acceptance) to registered handlers. The default
// userspace handler writes to stderr under TESLA_DEBUG; CountingHandler plays
// the role of the paper's DTrace aggregation, counting "how often a
// transition is triggered" and feeding the weighted graphs of fig. 9.
#ifndef TESLA_RUNTIME_HANDLER_H_
#define TESLA_RUNTIME_HANDLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "automata/automaton.h"
#include "runtime/instance.h"
#include "runtime/options.h"

namespace tesla::runtime {

struct ClassInfo {
  uint32_t id = 0;
  const automata::Automaton* automaton = nullptr;
};

class EventHandler {
 public:
  virtual ~EventHandler() = default;

  virtual void OnInstanceNew(const ClassInfo& cls, const Instance& instance) {}
  virtual void OnClone(const ClassInfo& cls, const Instance& parent, const Instance& clone) {}
  virtual void OnTransition(const ClassInfo& cls, const Instance& instance,
                            automata::StateSet from, uint16_t symbol, automata::StateSet to) {}
  virtual void OnAccept(const ClassInfo& cls, const Instance& instance) {}
  virtual void OnViolation(const ClassInfo& cls, const Violation& violation) {}
};

// Writes one line per event to stderr (gated by the caller wiring it up only
// when TESLA_DEBUG requests it).
class StderrHandler : public EventHandler {
 public:
  void OnInstanceNew(const ClassInfo& cls, const Instance& instance) override;
  void OnClone(const ClassInfo& cls, const Instance& parent, const Instance& clone) override;
  void OnTransition(const ClassInfo& cls, const Instance& instance, automata::StateSet from,
                    uint16_t symbol, automata::StateSet to) override;
  void OnAccept(const ClassInfo& cls, const Instance& instance) override;
  void OnViolation(const ClassInfo& cls, const Violation& violation) override;
};

// Aggregates transition counts per (class, source state-set, symbol): the
// DTrace-style aggregation used for coverage-style inspection and fig. 9's
// edge weights.
class CountingHandler : public EventHandler {
 public:
  using Key = std::pair<automata::StateSet, uint16_t>;

  void OnTransition(const ClassInfo& cls, const Instance& instance, automata::StateSet from,
                    uint16_t symbol, automata::StateSet to) override {
    counts_[cls.id][{from, symbol}]++;
  }
  void OnViolation(const ClassInfo& cls, const Violation& violation) override {
    violations_.push_back(violation);
  }

  const std::map<Key, uint64_t>& CountsFor(uint32_t class_id) const {
    static const std::map<Key, uint64_t> kEmpty;
    auto it = counts_.find(class_id);
    return it == counts_.end() ? kEmpty : it->second;
  }
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  std::map<uint32_t, std::map<Key, uint64_t>> counts_;
  std::vector<Violation> violations_;
};

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_HANDLER_H_

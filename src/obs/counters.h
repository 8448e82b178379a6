// Counters/gauges registry: named monotonic counters and point-in-time
// gauges, registered by components at construction time and dumped
// deterministically (sorted by name) into each trial's results.
//
// Two registration styles:
//  - Owned: `Counter(name)` returns a stable `uint64_t*` the component bumps
//    directly. Registration may allocate (it happens at topology construction
//    or on first use of an aggregate counter); bumping never does.
//  - Exposed: `Expose(name, &src)` reads an existing component counter
//    through a pointer at dump time — components that already keep stats
//    (qdiscs, links) publish them without double counting, and the hot path
//    keeps bumping the component's own field. Before such components die,
//    `FreezeExposed()` turns every exposed counter into an owned one holding
//    its last value; the Net that owns them calls it from its destructor, so
//    the TrialRunner can dump a trial's counters after its topology is gone.
//
// Naming convention (README "Observability"): `<kind>.<instance>.<metric>`
// for per-component counters (e.g. qdisc.bottleneck.deq_pkts) and
// `<subsystem>.<metric>` for aggregates (e.g. tcp.retransmits).
//
// Threading contract: thread-compatible like the Tracer — one registry per
// Simulator, one driving thread at a time (the trial's worker, or the shard's
// owner worker under the ShardRunner's static assignment). Counter bumps are
// therefore plain increments; cross-shard aggregation happens after the run
// via AccumulateTo, never by sharing a registry.
#ifndef SRC_OBS_COUNTERS_H_
#define SRC_OBS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>

namespace bundler::obs {

class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  // Owned monotonic counter; creates it at zero on first call. The returned
  // pointer is stable for the registry's lifetime (map nodes never move).
  uint64_t* Counter(const std::string& name) { return &owned_[name]; }

  // Owned gauge (last-write-wins double).
  double* Gauge(const std::string& name) { return &gauges_[name]; }

  // Dump-time views of counters owned by the component itself.
  void Expose(const std::string& name, const uint64_t* src) {
    exposed_[name] = src;
  }

  // Copies every exposed counter's current value into an owned counter of
  // the same name and drops the pointers, so the dump reads the same names
  // and values after the exposing components are destroyed.
  void FreezeExposed();

  // Writes every counter and gauge into `out` as `<prefix><name>`. Maps
  // iterate in key order, so the dump is deterministic.
  void DumpTo(std::map<std::string, double>* out, const std::string& prefix) const;

  // Merge variant for sharded runs (one registry per shard): counters add
  // into any existing entry, gauges overwrite (last shard in call order
  // wins). Deterministic for the same reason DumpTo is.
  void AccumulateTo(std::map<std::string, double>* out,
                    const std::string& prefix) const;

  size_t size() const {
    return owned_.size() + gauges_.size() + exposed_.size();
  }

 private:
  std::map<std::string, uint64_t> owned_;
  std::map<std::string, double> gauges_;
  std::map<std::string, const uint64_t*> exposed_;
};

}  // namespace bundler::obs

#endif  // SRC_OBS_COUNTERS_H_

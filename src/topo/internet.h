// Emulated stand-in for the paper's real-Internet deployment (§8): the paper
// ran a sendbox in GCP Iowa and receiveboxes in five regions over the public
// Internet, with queueing building somewhere outside either site (plausibly a
// provider egress rate limiter). We reproduce the phenomenon with one
// deep-buffered bottleneck per region at representative base RTTs, the same
// workload (10 closed-loop 40-byte UDP request/response pairs per bundle,
// plus 20 backlogged flows), and the same three configurations: Base (no bulk
// traffic), Status Quo (bulk, no Bundler), and Bundler (bulk + SFQ sendbox).
//
// The WAN path is declared on the composable NetBuilder: hub site -> hub edge
// -> deep-buffered provider bottleneck -> region router -> region site, with
// a fat reverse link closing the feedback loop.
#ifndef SRC_TOPO_INTERNET_H_
#define SRC_TOPO_INTERNET_H_

#include <string>
#include <vector>

#include "src/topo/net_builder.h"
#include "src/util/rate.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace bundler {

struct WanPathSpec {
  std::string name;
  TimeDelta base_rtt;
  Rate bottleneck_rate;
  double buffer_bdp;  // provider rate limiters are deep-buffered
};

// Iowa -> {Oregon, South Carolina, Belgium, Frankfurt, Tokyo}, scaled to
// simulation-friendly rates (the paper saw 2-4 Gbit/s; shape is preserved).
std::vector<WanPathSpec> DefaultWanPaths();

enum class WanMode { kBase, kStatusQuo, kBundler };

// Handles into the WAN graph.
struct WanGraph {
  NetBuilder::NodeId hub = -1;     // sendbox site (when bundled)
  NetBuilder::NodeId region = -1;  // receivebox site
  NetBuilder::EdgeId bottleneck = -1;
  NetBuilder::MonitorId bottleneck_delay = -1;
};

// Declares one hub->region WAN path on a NetBuilder. A bundle (SFQ sendbox,
// Copa) is attached when `bundled`.
NetBuilder WanPathBuilder(const WanPathSpec& spec, bool bundled,
                          WanGraph* graph = nullptr);

struct WanRunResult {
  std::string path;
  WanMode mode;
  // Request-response RTT quantiles in ms across the 10 ping-pong loops.
  double rtt_ms_p10 = 0;
  double rtt_ms_p50 = 0;
  double rtt_ms_p90 = 0;
  double rtt_ms_p99 = 0;
  // All recorded request-response RTT samples (ms), for cross-seed pooling.
  std::vector<double> rtt_ms_samples;
  // Aggregate bulk goodput (Mbit/s) over the measurement interval.
  double bulk_goodput_mbps = 0;
};

// Builds one path in one mode into `sim`, runs it for `duration`, and reports
// RTT/goodput statistics. The topology is torn down before this returns.
WanRunResult RunWanPath(Simulator* sim, const WanPathSpec& spec, WanMode mode,
                        TimeDelta duration, TimeDelta warmup, uint64_t seed);

}  // namespace bundler

#endif  // SRC_TOPO_INTERNET_H_

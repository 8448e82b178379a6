// The motivating scenario from §1: a company site where interactive video
// sessions (Zoom-like paced UDP streams), interactive web traffic, and bulk
// backup transfers all share one bundle toward a cloud site, with the
// bottleneck somewhere inside the ISP. The administrator wants video packets
// to never sit behind a backup transfer.
//
// With the status quo the queue builds at the in-network bottleneck, where
// no site policy can touch it. With Bundler the queue shifts to the sendbox,
// where a strict-priority scheduler puts video first, web second, and backup
// last.
//
// Usage: video_priority [duration_seconds]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/app/workload.h"
#include "src/qdisc/prio.h"
#include "src/topo/dumbbell.h"
#include "src/transport/udp_pingpong.h"
#include "src/util/table.h"

using namespace bundler;

namespace {

constexpr uint8_t kVideoClass = 0;
constexpr uint8_t kWebClass = 1;
constexpr uint8_t kBackupClass = 2;

TimePoint Sec(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

struct ClassResults {
  double video_rtt_p50_ms = 0;
  double video_rtt_p99_ms = 0;
  double web_median_fct_ms = 0;
  double backup_mbps = 0;
};

ClassResults RunSite(bool with_bundler, TimeDelta duration) {
  Simulator sim;
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(40);
  cfg.bundler_enabled = with_bundler;
  // Three strict-priority bands keyed on the packet's class field.
  cfg.sendbox.scheduler_factory = [] {
    return std::make_unique<StrictPrio>(int64_t{16} << 20);
  };
  Dumbbell net(&sim, cfg);

  // "Video": closed-loop low-rate request/response traffic whose delay is
  // what a conferencing user experiences.
  UdpPingPongClient* video = StartUdpPingPong(net.flows(), net.client(), net.server());
  video->SetRecordingWindow(Sec(5), TimePoint::Zero() + duration);

  // Interactive web sessions.
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder web_fct;
  WebWorkloadConfig web_cfg;
  web_cfg.offered_load = Rate::Mbps(40);
  web_cfg.priority = kWebClass;
  PoissonWebWorkload web(&sim, net.flows(), net.server(), net.client(), &cdf, web_cfg,
                         21, &web_fct);

  // Bulk nightly backup: backlogged flows at the lowest priority.
  TcpFlowParams backup;
  backup.size_bytes = -1;
  backup.cc = HostCcType::kCubic;
  backup.priority = kBackupClass;
  TcpSender* b1 = StartTcpFlow(net.flows(), net.server(), net.client(), backup, nullptr);
  TcpSender* b2 = StartTcpFlow(net.flows(), net.server(), net.client(), backup, nullptr);

  sim.RunUntil(TimePoint::Zero() + duration);

  ClassResults r;
  // The video window opens at 5 s: a shorter run records no RTT.
  const QuantileEstimator& rtts = video->rtt_ms();
  r.video_rtt_p50_ms = rtts.empty() ? 0 : rtts.Median();
  r.video_rtt_p99_ms = rtts.empty() ? 0 : rtts.Quantile(0.99);
  RequestFilter measured;
  measured.min_start = Sec(5);
  QuantileEstimator fcts = web_fct.Fcts(measured);
  r.web_median_fct_ms = fcts.empty() ? 0 : fcts.Median() * 1e3;
  r.backup_mbps = static_cast<double>(b1->delivered_bytes() + b2->delivered_bytes()) *
                  8.0 / duration.ToSeconds() / 1e6;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = argc > 1 ? std::atof(argv[1]) : 30.0;
  std::printf(
      "Site policy example: video (class 0) > web (class 1) > backup (class 2)\n"
      "96 Mbit/s in-network bottleneck, 40 ms RTT, %.0f s per run\n\n",
      seconds);

  ClassResults sq = RunSite(false, TimeDelta::SecondsF(seconds));
  ClassResults bd = RunSite(true, TimeDelta::SecondsF(seconds));

  Table table({"config", "video RTT p50", "video RTT p99", "web median FCT",
               "backup tput"});
  table.AddRow({"Status Quo", Table::Num(sq.video_rtt_p50_ms, 1) + " ms",
                Table::Num(sq.video_rtt_p99_ms, 1) + " ms",
                Table::Num(sq.web_median_fct_ms, 1) + " ms",
                Table::Num(sq.backup_mbps, 1) + " Mbit/s"});
  table.AddRow({"Bundler+Prio", Table::Num(bd.video_rtt_p50_ms, 1) + " ms",
                Table::Num(bd.video_rtt_p99_ms, 1) + " ms",
                Table::Num(bd.web_median_fct_ms, 1) + " ms",
                Table::Num(bd.backup_mbps, 1) + " Mbit/s"});
  table.Print();

  if (sq.video_rtt_p50_ms == 0) {
    std::printf("\nVideo RTT is recorded from 5 s on; run longer to compare it.\n");
    return 0;
  }
  std::printf(
      "\nWithout Bundler the backup's queue sits inside the ISP, ahead of the\n"
      "video packets; site-side priorities cannot reach it. With Bundler the\n"
      "queue moves to the sendbox, where video preempts everything: video RTT\n"
      "drops %.0f%% at the median while the backup keeps the leftover link.\n",
      (1 - bd.video_rtt_p50_ms / sq.video_rtt_p50_ms) * 100);
  return 0;
}

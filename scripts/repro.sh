#!/usr/bin/env bash
# Reproduction ratchet (check.sh tier 5): runs the headline scenarios on
# fixed seeds and asserts the paper's claims — and this repo's robustness
# claims on top of them — as ranges. Every run is byte-deterministic for a
# given seed, so the ranges are regression pins with slack for intentional
# retuning, not statistical confidence intervals:
#
#   fig10  — robust elasticity exits: phase-2 passthrough_frac >= 0.9 (the
#            bundler without them sits at ~0.48) and the phase-3 FCT gap
#            closed to within 5% of status quo (without them: ~+5% at seed 1).
#   blackout — feedback watchdog lifecycle on a 5 s feedback blackout:
#            degrade within ~kWatchdogTimeout, 3-5 exponential probes,
#            re-sync within one epoch of recovery, during-fault FCT within
#            15% of status quo and p99 far below it.
#   asym   — the ~8 Mbit/s reverse-path collapse threshold survived: the
#            watchdog arm tracks status-quo FCTs at every swept rate while
#            the unprotected bundler collapses, with recovery time measured.
#   fig16  — >= 50% median self-inflicted RTT cut on every WAN path (the
#            paper reports 57%).
#   fig09  — the headline FCT claim: Bundler+SFQ cuts the median slowdown to
#            <= 0.75x status quo, lands within 15% of the in-network-FQ
#            upper bound, and FIFO-only bundling (no in-bundle FQ) stays
#            WORSE than status quo — the scheduling, not the tunnel, is the
#            win.
#   fig13  — pooled fairness across competing bundles: at both offered-load
#            splits each bundle's pooled median slowdown beats its status-quo
#            counterpart and neither bundle is starved (pooled medians over
#            the scenario's 5 seeds; single seeds legitimately wobble).
#   tenant — multi-tenant isolation (cdn_edge_flash_crowd): under a 10x
#            flash crowd on one tenant, no admitted victim tenant's FCT p50
#            degrades more than 1.2x vs its calm baseline, while the
#            unmanaged site degrades >= 3x; admission rejects the
#            over-budget tail with explicit counters.
#
# The figure claims that follow run each paper-figure scenario at its default
# trial count, so each value they print is that figure's full measurement
# (fig10 and fig16 therefore run a second time, at 3 and 2 seeds). Every
# label carries the paper's number. Where this repo misses the paper, the
# claim is labelled "gap": it pins the measured value in a band of roughly
# +-15% instead of asserting the paper's number, and README's "Known gaps vs
# the paper" lists the same claims.
#
# Simulates several minutes of scenario time; check.sh skips it with
# CHECK_SKIP_REPRO=1.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN=./build/bundler_run
OUT=build/repro
mkdir -p "${OUT}"

for scenario in fig10_cross_traffic feedback_blackout asym_reverse_sweep \
                fig16_wan fig09_fct cdn_edge_flash_crowd; do
  echo "repro.sh: running ${scenario}"
  "${RUN}" --scenario "${scenario}" --trials 1 --threads "${JOBS}" \
    --out "${OUT}" --quiet > /dev/null
done
# fig13's fairness claim is defined over pooled seeds (a single seed can
# legitimately starve one bundle); run its full 5-seed default.
echo "repro.sh: running fig13_competing_bundles (5 seeds, pooled)"
"${RUN}" --scenario fig13_competing_bundles --trials 5 --threads "${JOBS}" \
  --out "${OUT}" --quiet > /dev/null

FIG_OUT="${OUT}/figures"
for scenario in fig02_queue_shift fig05_rate_estimate fig07_multipath_observe \
                sec76_multipath_threshold fig10_cross_traffic fig11_web_cross_sweep \
                fig12_elastic_cross_sweep fig14_sendbox_cc fig15_proxy fig16_wan \
                sec72_other_policies sec74_endhost_cc; do
  echo "repro.sh: running ${scenario} (default trials)"
  "${RUN}" --scenario "${scenario}" --threads "${JOBS}" \
    --out "${FIG_OUT}" --quiet > /dev/null
done

python3 - "${OUT}" "${FIG_OUT}" <<'EOF'
import json, sys

out, fig_out = sys.argv[1], sys.argv[2]
failures = []

def cells(name, d=out):
    with open(f"{d}/{name}.json") as f:
        return json.load(f)["cells"]

def fig_cells(name):
    return cells(name, fig_out)

def scalar(cell, key):
    return cell["scalars"][key]["mean"]

def pick(cs, variant, **params):
    for c in cs:
        if c["variant"] == variant and all(
            c["params"].get(k) == v for k, v in params.items()):
            return c
    raise KeyError(f"{variant} {params}")

def check(label, ok, detail):
    print(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    if not ok:
        failures.append(label)

# --- fig10: robust elasticity exits close the phase-3 gap -------------------
f10 = cells("fig10_cross_traffic")
sq = pick(f10, "status_quo")
plain = pick(f10, "bundler")
robust = pick(f10, "bundler_robust")
frac = scalar(robust, "phase2_passthrough_frac")
check("fig10 robust passthrough_frac >= 0.9", frac >= 0.9, f"{frac:.3f}")
plain_frac = scalar(plain, "phase2_passthrough_frac")
check("fig10 bundler without robust exits still flaps (frac <= 0.6)",
      plain_frac <= 0.6, f"{plain_frac:.3f}")
r3, s3 = scalar(robust, "short_fct_phase3_ms_p50"), scalar(sq, "short_fct_phase3_ms_p50")
check("fig10 robust phase-3 FCT p50 within 5% of status quo",
      r3 <= 1.05 * s3, f"{r3:.1f} vs {s3:.1f} ms ({r3 / s3:.3f}x)")
r2t, s2t = scalar(robust, "bundle_tput_phase2_mbps"), scalar(sq, "bundle_tput_phase2_mbps")
check("fig10 robust phase-2 throughput >= 95% of status quo",
      r2t >= 0.95 * s2t, f"{r2t:.1f} vs {s2t:.1f} Mbit/s")

# --- feedback_blackout: watchdog lifecycle on a 5 s feedback blackout -------
fb = cells("feedback_blackout")
sq = pick(fb, "status_quo")
wd = pick(fb, "bundler_watchdog")
w50, s50 = scalar(wd, "short_fct_fault_ms_p50"), scalar(sq, "short_fct_fault_ms_p50")
check("blackout during-fault FCT p50 within 15% of status quo",
      w50 <= 1.15 * s50, f"{w50:.1f} vs {s50:.1f} ms")
w99, s99 = scalar(wd, "short_fct_fault_ms_p99"), scalar(sq, "short_fct_fault_ms_p99")
check("blackout during-fault FCT p99 at least 2x better than status quo",
      w99 <= 0.5 * s99, f"{w99:.1f} vs {s99:.1f} ms")
lat = scalar(wd, "wd_degrade_latency_ms")
check("blackout degrade latency ~watchdog_timeout (450-700 ms)",
      450 <= lat <= 700, f"{lat:.0f} ms")
res = scalar(wd, "wd_resync_latency_ms")
check("blackout re-sync within one epoch of recovery (<= 120 ms)",
      res <= 120, f"{res:.0f} ms")
probes = scalar(wd, "wd_probes")
check("blackout probe count matches exponential backoff (3-5)",
      3 <= probes <= 5, f"{probes:.0f}")
check("blackout watchdog recovered by end of run",
      scalar(wd, "wd_degraded_at_end") == 0,
      f"degraded_at_end={scalar(wd, 'wd_degraded_at_end'):.0f}")

# --- asym_reverse_sweep: collapse threshold survived ------------------------
asym = cells("asym_reverse_sweep")
rates = sorted({c["params"]["reverse_mbps"] for c in asym})
worst = max(
    scalar(pick(asym, "bundler_watchdog", reverse_mbps=r), "short_fct_ms_p50")
    / scalar(pick(asym, "status_quo", reverse_mbps=r), "short_fct_ms_p50")
    for r in rates)
check("asym watchdog arm FCT p50 within 25% of status quo at every rate",
      worst <= 1.25, f"worst ratio {worst:.3f}x over {rates}")
b8 = scalar(pick(asym, "bundler", reverse_mbps=8), "short_fct_ms_p50")
s8 = scalar(pick(asym, "status_quo", reverse_mbps=8), "short_fct_ms_p50")
check("asym unprotected bundler still collapses at 8 Mbit/s (threat model)",
      b8 >= 1.5 * s8, f"{b8:.0f} vs {s8:.0f} ms")
w8 = pick(asym, "bundler_watchdog", reverse_mbps=8)
check("asym watchdog completes >= 95% of status-quo requests at 8 Mbit/s",
      scalar(w8, "requests_completed")
      >= 0.95 * scalar(pick(asym, "status_quo", reverse_mbps=8), "requests_completed"),
      f"{scalar(w8, 'requests_completed'):.0f}")
check("asym watchdog measured a recovery at 8 Mbit/s",
      scalar(w8, "wd_degrades") >= 1 and scalar(w8, "wd_mean_recovery_ms") > 0,
      f"degrades={scalar(w8, 'wd_degrades'):.0f} "
      f"mean_recovery={scalar(w8, 'wd_mean_recovery_ms'):.0f} ms")

# --- fig16: median self-inflicted RTT cut (paper: 57%) ----------------------
f16 = cells("fig16_wan")
paths = sorted({c["params"]["path"] for c in f16})
cuts = []
for p in paths:
    sq50 = scalar(pick(f16, "status_quo", path=p), "rtt_ms_p50")
    b50 = scalar(pick(f16, "bundler", path=p), "rtt_ms_p50")
    cuts.append(1 - b50 / sq50)
check("fig16 median RTT cut >= 50% on every path (paper: 57%)",
      min(cuts) >= 0.50,
      " ".join(f"path{p}:{100 * c:.0f}%" for p, c in zip(paths, cuts)))

# --- fig09: headline FCT claim and the scheduling-is-the-win control --------
f09 = cells("fig09_fct")
sq = scalar(pick(f09, "status_quo"), "median_slowdown_all")
sfq = scalar(pick(f09, "bundler_sfq"), "median_slowdown_all")
fifo = scalar(pick(f09, "bundler_fifo"), "median_slowdown_all")
innet = scalar(pick(f09, "in_network"), "median_slowdown_all")
check("fig09 Bundler+SFQ median slowdown <= 0.75x status quo",
      sfq <= 0.75 * sq, f"{sfq:.3f} vs {sq:.3f} ({sfq / sq:.3f}x)")
check("fig09 Bundler+SFQ within 15% of the in-network-FQ bound",
      sfq <= 1.15 * innet, f"{sfq:.3f} vs {innet:.3f} ({sfq / innet:.3f}x)")
check("fig09 FIFO-only bundling stays worse than status quo",
      fifo >= 1.2 * sq, f"{fifo:.3f} vs {sq:.3f} ({fifo / sq:.3f}x)")
sq99 = scalar(pick(f09, "status_quo"), "p99_slowdown_all")
sfq99 = scalar(pick(f09, "bundler_sfq"), "p99_slowdown_all")
check("fig09 Bundler+SFQ p99 slowdown at least 4x better than status quo",
      sfq99 <= 0.25 * sq99, f"{sfq99:.2f} vs {sq99:.2f}")

# --- fig13: pooled fairness across competing bundles ------------------------
f13 = cells("fig13_competing_bundles")
def pooled(cell, key):
    return cell["samples"][key]["median"]
for load0 in (42, 56):
    b = pick(f13, "bundler", load0_mbps=load0)
    s = pick(f13, "status_quo", load0_mbps=load0)
    for bundle in (0, 1):
        bm = pooled(b, f"slowdown_b{bundle}")
        sm = pooled(s, f"slowdown_b{bundle}")
        check(f"fig13 split {load0}:{84 - load0} bundle {bundle} pooled median "
              f"slowdown beats status quo",
              bm <= 0.9 * sm, f"{bm:.2f} vs {sm:.2f}")
    t0, t1 = pooled(b, "tput_mbps_pooled_b0"), pooled(b, "tput_mbps_pooled_b1")
    check(f"fig13 split {load0}:{84 - load0} neither bundle starved "
          f"(pooled tput >= 25 Mbit/s, ratio <= 1.6)",
          min(t0, t1) >= 25 and max(t0, t1) / min(t0, t1) <= 1.6,
          f"{t0:.1f} / {t1:.1f} Mbit/s")

# --- tenant isolation: cdn_edge_flash_crowd ---------------------------------
cdn = cells("cdn_edge_flash_crowd")
mng = pick(cdn, "managed")
squo = pick(cdn, "status_quo")
iso_m = scalar(mng, "victim_iso_p50_ratio_max")
iso_s = scalar(squo, "victim_iso_p50_ratio_max")
check("tenant isolation: worst admitted victim FCT p50 ratio <= 1.2x under "
      "a 10x flash crowd", iso_m <= 1.2, f"{iso_m:.3f}x")
check("tenant isolation: the unmanaged site degrades >= 3x (the contrast)",
      iso_s >= 3.0, f"{iso_s:.3f}x")
check("tenant admission: full declared population admitted up to budget",
      scalar(mng, "admitted") >= 200 and scalar(mng, "rejected") >= 1,
      f"admitted={scalar(mng, 'admitted'):.0f} rejected={scalar(mng, 'rejected'):.0f}")
check("tenant admission: rejection counters attribute every rejection",
      scalar(mng, "ctr.admit.s1.rejected_budget")
      + scalar(mng, "ctr.admit.s1.rejected_cap") == scalar(mng, "rejected"),
      f"budget={scalar(mng, 'ctr.admit.s1.rejected_budget'):.0f} "
      f"cap={scalar(mng, 'ctr.admit.s1.rejected_cap'):.0f}")

# --- fig02: the queue shifts from the bottleneck to the sendbox -------------
f02 = fig_cells("fig02_queue_shift")
sq_bn = scalar(pick(f02, "status_quo"), "bottleneck_delay_mean_ms")
sq_edge = scalar(pick(f02, "status_quo"), "edge_delay_mean_ms")
b_bn = scalar(pick(f02, "bundler"), "bottleneck_delay_mean_ms")
b_sb = scalar(pick(f02, "bundler"), "edge_delay_mean_ms")
check("fig02 status quo queues at the bottleneck, the edge idles (paper: Fig. 2)",
      sq_bn >= 50 and sq_edge <= 1, f"bottleneck {sq_bn:.1f} ms, edge {sq_edge:.1f} ms")
check("fig02 Bundler drains the bottleneck and holds the queue at the sendbox "
      "(paper: Fig. 2)",
      b_bn <= 0.1 * sq_bn and b_sb >= sq_bn,
      f"bottleneck {b_bn:.1f} ms, sendbox {b_sb:.1f} ms")

# --- fig05/fig06: estimate accuracy, pooled over every cell and seed ---------
f05 = fig_cells("fig05_rate_estimate")
def pooled_frac(within, n):
    return (sum(scalar(c, within) * c["trials"] for c in f05)
            / sum(scalar(c, n) * c["trials"] for c in f05))
rate_ok = pooled_frac("rate_within_4", "rate_samples")
check("fig05 gap: receive-rate estimates within 4 Mbit/s pinned at 62-80% "
      "(paper: 80%)", 0.62 <= rate_ok <= 0.80, f"{100 * rate_ok:.0f}%")
rtt_ok = pooled_frac("rtt_within_1p2", "rtt_samples")
check("fig06 gap: RTT estimates within 1.2 ms pinned at 53-71% (paper: 80%)",
      0.53 <= rtt_ok <= 0.71, f"{100 * rtt_ok:.0f}%")

# --- fig07 and §7.6: out-of-order feedback exposes multipathing -------------
f07 = fig_cells("fig07_multipath_observe")[0]
ooo = scalar(f07, "ooo_frac")
check("fig07 out-of-order fraction >= 20% on four imbalanced paths "
      "(paper: multipath >= 20%, threshold 5%)", ooo >= 0.20, f"{100 * ooo:.1f}%")
lo, hi = scalar(f07, "rtt_ms_p5"), scalar(f07, "rtt_ms_p95")
check("fig07 observed RTTs span the paths: p5 near the 40 ms base, p95 >= 150 ms "
      "(paper: per-path RTTs differ)", 40 <= lo <= 45 and hi >= 150,
      f"{lo:.0f}..{hi:.0f} ms")
s76 = fig_cells("sec76_multipath_threshold")
single = max(scalar(c, "ooo_frac_avg") for c in s76 if c["params"]["paths"] == 1)
multi = min(scalar(c, "ooo_frac_avg") for c in s76 if c["params"]["paths"] > 1)
check("sec76 a 5% threshold separates single-path (<= 0.4%) from multipath "
      "(>= 10%) at every rate and RTT (paper: max 0.4%, min 20%)",
      single <= 0.004 and multi >= 0.10,
      f"max single-path {100 * single:.2f}%, min multipath {100 * multi:.1f}%")

# --- fig10: phases 1 and 2, pooled over the default 3 seeds ------------------
f10d = fig_cells("fig10_cross_traffic")
def phase_p50(cell, phase):
    return cell["samples"][f"short_fct_phase{phase}_ms"]["median"]
b1, s1 = phase_p50(pick(f10d, "bundler"), 1), phase_p50(pick(f10d, "status_quo"), 1)
check("fig10 phase-1 Bundler short-flow FCT p50 <= 0.8x status quo "
      "(paper: Bundler beats status quo)", b1 <= 0.8 * s1, f"{b1:.0f} vs {s1:.0f} ms")
b2, s2 = phase_p50(pick(f10d, "bundler"), 2), phase_p50(pick(f10d, "status_quo"), 2)
check("fig10 phase-2 Bundler short-flow FCT p50 within 25% of status quo "
      "(paper: ~12% worse)", b2 <= 1.25 * s2, f"{b2:.0f} vs {s2:.0f} ms ({b2 / s2 - 1:+.0%})")

# --- fig11: web-mix cross-traffic sweep ------------------------------------
f11 = fig_cells("fig11_web_cross_sweep")
cross = sorted({c["params"]["cross_mbps"] for c in f11})
def f11_median(variant, x):
    return pick(f11, variant, cross_mbps=x)["samples"]["slowdown_all"]["median"]
sq11 = [f11_median("status_quo", x) for x in cross]
check("fig11 status-quo median slowdown rises with cross load, >= 2x across the "
      "sweep (paper: steady increase)",
      all(a <= b for a, b in zip(sq11, sq11[1:])) and sq11[-1] >= 2 * sq11[0],
      " ".join(f"{v:.2f}" for v in sq11))
nim = f11_median("bundler_nimbus", cross[-1])
check("fig11 gap: Bundler/Nimbus at max cross load only matches status quo, "
      "pinned 0.85-1.05x (paper: Bundler stays low)",
      0.85 * sq11[-1] <= nim <= 1.05 * sq11[-1], f"{nim:.2f} vs {sq11[-1]:.2f}")
copa = f11_median("bundler_copa", cross[-1])
check("fig11 gap: Bundler/Copa over-yields at max cross load, pinned 4.1-5.6 "
      "(paper: Bundler stays low)", 4.1 <= copa <= 5.6, f"{copa:.2f} vs {sq11[-1]:.2f}")

# --- fig12: bundle throughput against persistent elastic cross flows --------
f12 = fig_cells("fig12_elastic_cross_sweep")
flows = sorted({c["params"]["competing_flows"] for c in f12})
cuts12 = [1 - scalar(pick(f12, "bundler", competing_flows=n), "bundle_tput_mbps")
          / scalar(pick(f12, "status_quo", competing_flows=n), "bundle_tput_mbps")
          for n in flows]
avg12 = sum(cuts12) / len(cuts12)
check("fig12 gap: average bundle throughput loss vs status quo pinned 23-31% "
      "(paper: 18%, 12-22%)", 0.23 <= avg12 <= 0.31,
      f"{100 * avg12:.0f}% (" + " ".join(f"{int(n)}:{100 * c:.0f}%"
                                       for n, c in zip(flows, cuts12)) + ")")

# --- fig14: the bundle's rate controller ------------------------------------
f14 = fig_cells("fig14_sendbox_cc")
def pooled_median(cs, variant, key="slowdown_all"):
    return pick(cs, variant)["samples"][key]["median"]
sq14, copa14, bd14, bbr14 = (pooled_median(f14, v) for v in (
    "status_quo", "bundler_copa", "bundler_basic_delay", "bundler_bbr"))
check("fig14 Copa and BasicDelay bundles beat status quo by >= 25% "
      "(paper: both beat status quo)", max(copa14, bd14) <= 0.75 * sq14,
      f"Copa {copa14:.2f} / BasicDelay {bd14:.2f} vs {sq14:.2f}")
check("fig14 BasicDelay within 15% of Copa (paper: BasicDelay ~ Copa)",
      bd14 <= 1.15 * copa14, f"{bd14:.2f} vs {copa14:.2f}")
check("fig14 gap: a BBR bundle beats status quo, pinned 1.0-1.4 "
      "(paper: slightly worse than status quo)", 1.0 <= bbr14 <= 1.4,
      f"{bbr14:.2f} vs {sq14:.2f}")

# --- fig15: the idealized TCP proxy -----------------------------------------
f15 = fig_cells("fig15_proxy")
b_s, p_s = (pooled_median(f15, v, "slowdown_small") for v in ("bundler", "bundler_proxy"))
check("fig15 proxy leaves short-flow median slowdown within 5% "
      "(paper: no change)", abs(p_s / b_s - 1) <= 0.05, f"{b_s:.2f} vs {p_s:.2f}")
b_m, p_m = (pooled_median(f15, v, "slowdown_medium") for v in ("bundler", "bundler_proxy"))
b_l, p_l = (pooled_median(f15, v, "slowdown_large") for v in ("bundler", "bundler_proxy"))
check("fig15 proxy cuts medium and large median slowdown "
      "(paper: proxy helps medium/long)", p_m < b_m and p_l < b_l,
      f"medium {b_m:.2f} -> {p_m:.2f}, large {b_l:.2f} -> {p_l:.2f}")

# --- fig16: bulk throughput across the five WAN paths -----------------------
f16d = fig_cells("fig16_wan")
def bulk(variant):
    return sum(scalar(c, "bulk_goodput_mbps") for c in f16d if c["variant"] == variant)
tput16 = bulk("bundler") / bulk("status_quo") - 1
check("fig16 gap: Bundler bulk throughput delta vs status quo pinned -10..-7.5% "
      "(paper: within 1%)", -0.10 <= tput16 <= -0.075, f"{100 * tput16:+.1f}%")

# --- §7.2: FQ-CoDel and strict priority at the sendbox ----------------------
s72 = fig_cells("sec72_other_policies")
def queueing(variant, q):
    return scalar(pick(s72, variant), f"rtt_ms_{q}") - 50  # above the 50 ms base
sq50, fq50 = queueing("fq_codel_status_quo", "p50"), queueing("fq_codel_bundler", "p50")
check("sec72 FQ-CoDel cuts median queueing above the 50 ms base >= 90% "
      "(paper: 97% lower)", fq50 <= 0.1 * sq50,
      f"{sq50:.1f} -> {fq50:.1f} ms ({1 - fq50 / sq50:.0%} lower)")
sq99, fq99 = queueing("fq_codel_status_quo", "p99"), queueing("fq_codel_bundler", "p99")
cut99 = 1 - fq99 / sq99
check("sec72 gap: FQ-CoDel p99 queueing cut pinned 62-82% (paper: 89%)",
      0.62 <= cut99 <= 0.82, f"{sq99:.1f} -> {fq99:.1f} ms ({cut99:.0%} lower)")
hi_sq = scalar(pick(s72, "prio_status_quo"), "median_slowdown_high")
hi_b = scalar(pick(s72, "prio_bundler"), "median_slowdown_high")
check("sec72 strict priority: high-class median slowdown within 5% of ideal and "
      ">= 40% below status quo (paper: 65% lower)",
      hi_b <= 1.05 and hi_b <= 0.6 * hi_sq,
      f"{hi_sq:.2f} -> {hi_b:.2f} ({1 - hi_b / hi_sq:.0%} lower)")

# --- §7.4: endhost congestion control ----------------------------------------
s74 = fig_cells("sec74_endhost_cc")
gain74 = {cc: 1 - scalar(pick(s74, f"bundler_{cc}"), "median_slowdown_all")
          / scalar(pick(s74, f"status_quo_{cc}"), "median_slowdown_all")
          for cc in ("cubic", "reno", "bbr")}
detail74 = " / ".join(f"{cc} {100 * g:.0f}%" for cc, g in gain74.items())
check("sec74 Bundler cuts median FCT >= 25% with Cubic, Reno and BBR endhosts "
      "(paper: the win holds across endhost stacks)",
      min(gain74.values()) >= 0.25, detail74)
check("sec74 gap: BBR-endhost median FCT cut pinned 42-58% (paper: 58%)",
      0.42 <= gain74["bbr"] <= 0.58, detail74)

if failures:
    print(f"repro.sh: FAIL — {len(failures)} claim(s) out of range")
    sys.exit(1)
EOF

echo "repro.sh: OK"

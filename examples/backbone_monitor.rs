//! Backbone monitor: a lifecycle-managed deployment on a sharded
//! ingest plane — warm up live, score live, refit as traffic drifts.
//!
//! Where the old incarnation of this example trained offline on an
//! archived week and then scored with a frozen model, this one runs the
//! way a months-long deployment has to:
//!
//! 1. **Ingest** — every packet of every bin is offered in per-bin
//!    batches to a [`StreamingGridBuilder`]: flows hash-partitioned across
//!    `--shards` shards, per-shard open-bin accumulators, one shared
//!    event-time watermark, and `FinalizedBin` rows that are bit-identical
//!    at any shard count.
//! 2. **Lifecycle** — each finalized bin goes to a [`Monitor`], which
//!    starts in *Warmup* (absorbing its first day), fits, and then keeps
//!    scoring while rolling its sliding training window forward —
//!    refitting on a daily schedule and whenever the recent alarm rate
//!    says the model no longer describes normal traffic (*drift*).
//! 3. **Drift injection** — at noon of the last day the packet source is
//!    swapped for a re-seeded, rescaled network: the traffic mix changes
//!    the way a routing change or re-homed PoP would. The stale model
//!    alarms on everything; the drift trigger fires; the refitted model
//!    (trained on a window that already contains post-drift bins, with
//!    anomalous ones excluded by the trimming rounds) goes quiet again.
//! 4. **Fault injection** — collector outages come from a shared seeded
//!    [`FaultPlan`] applied at the packet seam by a [`FaultInjector`]
//!    (the same harness the chaos tests drive), so the injected ground
//!    truth is a queryable schedule rather than ad-hoc RNG draws.
//!
//! ```sh
//! cargo run --release --example backbone_monitor -- \
//!     [--seed N] [--alpha 0.999] [--events N] [--missing-chance PCT] \
//!     [--scale 0.05] [--shards 8] [--drift-scale 1.4] [--jm]
//! ```
//!
//! `--missing-chance` randomly blanks whole bins (collector outages);
//! the watermark still seals them as zero rows and the monitor flags
//! them. The default threshold policy is `Empirical` — at small traffic
//! scales the Gaussian Jackson–Mudholkar threshold under-covers the
//! heteroskedastic residuals and alarms on ordinary weekly rate
//! structure (pass `--jm` to see exactly that) — which also demonstrates
//! the structured sharpness warning: a two-day warmup cannot resolve the
//! 0.999 quantile, and every refit report says so.

use entromine::entropy::{StreamConfig, StreamingGridBuilder};
use entromine::net::Topology;
use entromine::synth::{DatasetConfig, InjectedAnomaly, Schedule, SyntheticNetwork};
use entromine::{
    DiagnoserConfig, FaultInjector, FaultPlan, Monitor, MonitorConfig, MonitorState, RefitOutcome,
    RefitTrigger, ThresholdPolicy, Verdict,
};
use std::time::Instant;

/// Bins per monitored day (5-minute bins).
const DAY: usize = 288;
/// Seconds per bin.
const BIN_SECS: u64 = DatasetConfig::BIN_SECS;

/// How an alert relates to what was actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Covered by a scheduled live anomaly.
    Truth,
    /// The bin was blanked by fault injection (a real outage to detect).
    InjectedOutage,
    /// After the drift injection: the model is honestly stale and keeps
    /// re-converging while the sliding window rolls into the new regime.
    DriftTransient,
    /// Neither: a genuine false alarm.
    FalseAlarm,
}

struct Args {
    seed: u64,
    alpha: f64,
    events: usize,
    missing_chance: f64,
    scale: f64,
    shards: usize,
    drift_scale: f64,
    jackson_mudholkar: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        alpha: 0.999,
        events: 24,
        missing_chance: 0.0,
        scale: 0.05,
        shards: 8,
        drift_scale: 1.4,
        jackson_mudholkar: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = grab().parse().expect("--seed takes a u64"),
            "--alpha" => args.alpha = grab().parse().expect("--alpha takes a float"),
            "--events" => args.events = grab().parse().expect("--events takes a count"),
            "--missing-chance" => {
                args.missing_chance = grab()
                    .parse::<f64>()
                    .expect("--missing-chance takes a percent")
                    / 100.0
            }
            "--scale" => args.scale = grab().parse().expect("--scale takes a float"),
            "--shards" => args.shards = grab().parse().expect("--shards takes a count"),
            "--drift-scale" => {
                args.drift_scale = grab().parse().expect("--drift-scale takes a float")
            }
            "--jm" => args.jackson_mudholkar = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // Four monitored days: days 1-2 are the warmup window (long enough
    // that the rate model's weekly rhythm does not read as day-over-day
    // anomalies), days 3-4 are scored, and at noon of day 4 the traffic
    // regime shifts.
    let total_bins = 4 * DAY;
    let drift_bin = 3 * DAY + DAY / 2;
    let config = DatasetConfig {
        seed: args.seed,
        n_bins: total_bins,
        sample_rate: 100,
        traffic_scale: args.scale,
        rate_noise: 0.02,
        anonymize: true,
    };
    let net = SyntheticNetwork::new(Topology::abilene(), config.clone());
    // The post-drift regime: a re-seeded rate model at a different scale —
    // flows re-weighted the way a routing change re-homes traffic.
    let drifted = SyntheticNetwork::new(
        Topology::abilene(),
        DatasetConfig {
            seed: args.seed ^ 0xD51F7,
            traffic_scale: args.scale * args.drift_scale,
            ..config.clone()
        },
    );
    let p = net.indexer().n_flows();

    let live_truth: Vec<InjectedAnomaly> = Schedule::paper_mix(args.seed ^ 0x5EED, args.events)
        .materialize(&net)
        .into_iter()
        .map(|event| InjectedAnomaly { event })
        .collect();
    println!(
        "== backbone monitor: {total_bins} bins over {p} flows, {} scheduled anomalies,",
        live_truth.len()
    );
    println!(
        "   {} ingest shards, drift injection at bin {drift_bin} (x{:.2} re-seeded traffic)",
        args.shards, args.drift_scale
    );

    let mut grid =
        StreamingGridBuilder::with_shards(StreamConfig::new(p), args.shards).expect("sharded grid");
    let mut monitor = Monitor::new(
        p,
        MonitorConfig {
            diagnoser: DiagnoserConfig {
                alpha: args.alpha,
                threshold_policy: if args.jackson_mudholkar {
                    ThresholdPolicy::JacksonMudholkar
                } else {
                    ThresholdPolicy::Empirical
                },
                ..Default::default()
            },
            warmup_bins: 2 * DAY,
            window_bins: 3 * DAY,
            chunk_bins: 72,
            refit_interval: Some(DAY),
            drift: Some(Default::default()),
            // Flag verdicts as stale once the serving model is more than
            // a day past its refit cadence — only reachable when refits
            // keep failing, which is exactly when an operator should see
            // the Degraded state.
            staleness_budget: Some(2 * DAY),
            ..Default::default()
        },
    )
    .expect("monitor");

    // Fault injection: dead-collector outages as a seeded schedule. The
    // plan is data — `drop_bins()` below is the injected ground truth the
    // alert classifier checks against, instead of replaying RNG draws.
    let outage_plan =
        FaultPlan::random_outages(args.seed ^ 0xFA11, total_bins, args.missing_chance);
    let dropped_bins = outage_plan.drop_bins();
    let mut injector = FaultInjector::new(&outage_plan);

    let mut alerts: Vec<(usize, Outcome)> = Vec::new();
    let mut packets_offered: u64 = 0;
    let mut refit_log: Vec<(usize, RefitTrigger)> = Vec::new();
    let mut batch = Vec::new();
    let started = Instant::now();

    for bin in 0..total_bins {
        let source = if bin >= drift_bin { &drifted } else { &net };
        batch.clear();
        for flow in 0..p {
            for pkt in source.cell_packets(bin, flow, &live_truth) {
                batch.push((flow, pkt));
            }
        }
        // A dropped bin yields no deliveries; the watermark still seals
        // it as a zero row for the monitor to flag.
        for delivery in injector.deliver_batch(bin, &batch) {
            packets_offered += delivery.packets.len() as u64;
            grid.offer_packets(&delivery.packets).expect("offer batch");
        }
        // The first packet of the next bin advances the event-time
        // watermark past this bin's boundary and seals it.
        for sealed in grid.advance_watermark((bin + 1) as u64 * BIN_SECS) {
            let step = monitor.observe_bin(&sealed).expect("observe");
            if let Verdict::Anomalous(diag) = &step.verdict {
                let outcome = if dropped_bins.contains(&diag.bin) {
                    Outcome::InjectedOutage
                } else if live_truth.iter().any(|t| t.bins().contains(&diag.bin)) {
                    Outcome::Truth
                } else if diag.bin >= drift_bin {
                    Outcome::DriftTransient
                } else {
                    Outcome::FalseAlarm
                };
                let kind = match (diag.methods.volume(), diag.methods.entropy) {
                    (true, true) => "volume+entropy",
                    (true, false) => "volume only",
                    _ => "entropy only",
                };
                let blamed = diag
                    .flows
                    .first()
                    .map(|f| format!("flow {}", f.flow))
                    .unwrap_or_else(|| "no flow blamed".to_string());
                println!(
                    "   [bin {:>4}] ALERT ({kind}): entropy SPE {:.3e}, {blamed}{}",
                    diag.bin,
                    diag.entropy_spe,
                    match outcome {
                        Outcome::Truth => "",
                        Outcome::InjectedOutage => "  ** injected collector outage **",
                        Outcome::DriftTransient => "  ** stale model (post-drift) **",
                        Outcome::FalseAlarm => "  ** no ground truth **",
                    }
                );
                alerts.push((diag.bin, outcome));
            }
            if let Some(refit) = &step.refit {
                refit_log.push((step.bin, refit.trigger));
                match &refit.outcome {
                    RefitOutcome::Swapped => println!(
                        "   [bin {:>4}] REFIT ({:?}): model swapped over a {}-bin window{}",
                        step.bin,
                        refit.trigger,
                        refit.window_bins,
                        if refit.warnings.is_empty() { "" } else { ":" }
                    ),
                    RefitOutcome::Failed(e) => println!(
                        "   [bin {:>4}] REFIT ({:?}) FAILED, old model keeps serving: {e}",
                        step.bin, refit.trigger
                    ),
                }
                for (detector, warning) in &refit.warnings {
                    println!("              sharpness[{detector}]: {warning}");
                }
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    // ------------------------------------------------------- wrap-up ----
    let count = |o: Outcome| alerts.iter().filter(|(_, x)| *x == o).count();
    let truth_bins: usize = live_truth
        .iter()
        .flat_map(|t| t.bins())
        .filter(|&b| b >= 2 * DAY)
        .count();
    assert_eq!(monitor.state(), MonitorState::Fitted);
    println!(
        "\n== streamed {} bins ({} scored) in {elapsed:.1}s:",
        monitor.bins_observed(),
        monitor.bins_scored()
    );
    println!(
        "   {:.2e} packets/s offered through {} shards, {} bins dropped by fault injection",
        packets_offered as f64 / elapsed.max(1e-9),
        grid.shards(),
        dropped_bins.len()
    );
    println!(
        "   {} refits: {}",
        monitor.refits(),
        refit_log
            .iter()
            .map(|(bin, t)| format!("{t:?}@{bin}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "   {} alerts | {} matching ground truth | {} on injected outages | {} post-drift transients | {} false alarms | {} anomalous bins scheduled post-warmup",
        alerts.len(),
        count(Outcome::Truth),
        count(Outcome::InjectedOutage),
        count(Outcome::DriftTransient),
        count(Outcome::FalseAlarm),
        truth_bins
    );
    println!(
        "   grid: {} late events dropped, {} rejected offers, {} bins finalized, watermark at {}s",
        grid.late_events(),
        grid.rejected_events(),
        grid.finalized_bins(),
        grid.watermark()
    );
    let health = monitor.health();
    println!(
        "   health: {:?}, model {} bins old (budget {:?}), {} quarantined bins, {}/{} refits failed",
        health.state,
        health.model_age_bins,
        health.staleness_budget,
        health.quarantined_bins,
        health.failed_refits,
        health.refits + health.failed_refits,
    );
    println!(
        "   (pre-drift false alarms cluster where the weekly rate rhythm outruns the training\n\
         \u{20}   window and fade after the drift-triggered refit; drift transients persist while\n\
         \u{20}   the {}-bin window rolls into the post-drift regime -- by design, not by accident)",
        monitor.config().window_bins
    );
}

//! The two stream workloads: packets or flow records in, verdicts out,
//! through `Monitor::ingest_plane` and `Monitor::observe_bin`.
//!
//! A set-up builds the plane and the monitor and streams the warmup day,
//! which ends in the first fit. A pass streams the scored period from a
//! clone of a set-up deployment, so every pass serves the same bins from
//! the same state. Inputs come from `synth` on this thread between the
//! timed calls; generator time is kept apart and excluded from every
//! end-to-end figure. The load is a closed loop at the maximum rate: each
//! bin's batch is offered as soon as the previous bin's verdict returned.
//!
//! The first set-up feeds the correctness pass, which is not timed; the
//! timed passes clone the last set-up. With tracing on, one untraced pass
//! is followed by one traced pass, and the difference of their blocking
//! paths is the tracing overhead.

use crate::report::{median, peak_rss_mib, tail, Better, Digest, Outcome};
use crate::trace::{SpanId, Tracer};
use entromine::entropy::{FinalizedBin, StreamConfig, StreamingGridBuilder, TierShardedBuilder};
use entromine::net::flow::aggregate_bin;
use entromine::net::{FlowKey, FlowRecord, PacketHeader, Topology};
use entromine::synth::{DatasetConfig, InjectedAnomaly, Schedule, SyntheticNetwork};
use entromine::{
    DiagnoserConfig, Diagnosis, DiagnosisError, Monitor, MonitorConfig, MonitorStep, RefitOutcome,
    RefitReport, RefitTrigger, ThresholdPolicy, Verdict,
};
use std::collections::HashSet;
use std::time::Instant;

/// Bins per day (5-minute bins).
pub const DAY: usize = 288;
const BIN_SECS: u64 = DatasetConfig::BIN_SECS;

/// What a stream workload feeds and how much of it.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub topology: fn() -> Topology,
    pub sample_rate: u64,
    pub traffic_scale: f64,
    pub anonymize: bool,
    /// Bins scored after the one-day warmup.
    pub scored_bins: usize,
    /// Paper-mix events scheduled per day.
    pub events_per_day: usize,
    /// Traffic-regime change: `(bin, traffic-scale factor)`.
    pub drift: Option<(usize, f64)>,
    /// Pre-aggregate each cell into flow records (`offer_flows`) instead
    /// of offering packets (`offer_packets`).
    pub records: bool,
    pub shards: usize,
    /// Setups per untimed run (the median is `setup_s`).
    pub setups: usize,
    /// Fewest timed passes over the scored period per run.
    pub min_passes: usize,
}

impl StreamSpec {
    fn total_bins(&self) -> usize {
        DAY + self.scored_bins
    }
}

/// The production monitor configuration both stream workloads run.
fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        diagnoser: DiagnoserConfig {
            threshold_policy: ThresholdPolicy::Empirical,
            ..Default::default()
        },
        warmup_bins: DAY,
        window_bins: 2 * DAY,
        chunk_bins: 72,
        refit_interval: Some(DAY),
        drift: Some(Default::default()),
        ..Default::default()
    }
}

/// The seeded input generator.
struct Source {
    net: SyntheticNetwork,
    drifted: Option<(usize, SyntheticNetwork)>,
    truth: Vec<InjectedAnomaly>,
    records: bool,
    /// One past the last bin streamed.
    end: usize,
}

/// One bin's generated input.
#[derive(Default)]
struct BinInput {
    packets: Vec<(usize, PacketHeader)>,
    records: Vec<(usize, FlowRecord)>,
    /// Packets the batch represents (record packet counts on the records
    /// feed).
    represented: u64,
}

impl Source {
    fn new(spec: &StreamSpec, seed: u64) -> Source {
        let config = DatasetConfig {
            seed,
            n_bins: spec.total_bins(),
            sample_rate: spec.sample_rate,
            traffic_scale: spec.traffic_scale,
            rate_noise: 0.02,
            anonymize: spec.anonymize,
        };
        let net = SyntheticNetwork::new((spec.topology)(), config.clone());
        // The post-drift regime is a re-seeded, rescaled rate model, as in
        // the backbone_monitor example: flows re-weighted the way a routing
        // change re-homes traffic.
        let drifted = spec.drift.map(|(bin, factor)| {
            let cfg = DatasetConfig {
                seed: seed ^ 0xD51F7,
                traffic_scale: spec.traffic_scale * factor,
                ..config.clone()
            };
            (bin, SyntheticNetwork::new((spec.topology)(), cfg))
        });
        let events = spec.events_per_day * spec.total_bins() / DAY;
        let truth = Schedule::paper_mix(seed ^ 0x5EED, events)
            .materialize(&net)
            .into_iter()
            .map(|event| InjectedAnomaly { event })
            .collect();
        Source {
            net,
            drifted,
            truth,
            records: spec.records,
            end: spec.total_bins(),
        }
    }

    fn n_flows(&self) -> usize {
        self.net.indexer().n_flows()
    }

    /// Generates bin `bin`. On the records feed the cell packets are kept
    /// too when `keep_packets` is set, for the per-packet replay gate.
    fn fill(&self, bin: usize, input: &mut BinInput, keep_packets: bool) {
        let net = match &self.drifted {
            Some((at, drifted)) if bin >= *at => drifted,
            _ => &self.net,
        };
        input.packets.clear();
        input.records.clear();
        for flow in 0..self.n_flows() {
            let cell = net.cell_packets(bin, flow, &self.truth);
            if self.records {
                input
                    .records
                    .extend(aggregate_bin(&cell).into_iter().map(|r| (flow, r)));
                if keep_packets {
                    input.packets.extend(cell.into_iter().map(|p| (flow, p)));
                }
            } else {
                input.packets.extend(cell.into_iter().map(|p| (flow, p)));
            }
        }
        input.represented = if self.records {
            input.records.iter().map(|(_, r)| r.packets).sum()
        } else {
            input.packets.len() as u64
        };
    }
}

/// Folds a verdict into a digest: bin, verdict kind, and the bit
/// patterns of every SPE and blamed flow of anomalous verdicts.
fn digest_verdict(digest: &mut Digest, bin: usize, verdict: &Verdict) {
    digest.feed(bin as u64);
    match verdict {
        Verdict::Warmup { remaining } => {
            digest.feed(0);
            digest.feed(*remaining as u64);
        }
        Verdict::Clean => digest.feed(1),
        Verdict::Quarantined => digest.feed(3),
        Verdict::Anomalous(d) => {
            digest.feed(2);
            digest.feed(d.entropy_spe.to_bits());
            digest.feed(d.bytes_spe.to_bits());
            digest.feed(d.packets_spe.to_bits());
            for f in &d.flows {
                digest.feed(f.flow as u64);
            }
        }
    }
}

/// Bit-exact equality of two diagnoses.
fn same_diagnosis(a: &Diagnosis, b: &Diagnosis) -> bool {
    let point_bits = |p: &Option<[f64; 4]>| p.map(|v| v.map(f64::to_bits));
    a.bin == b.bin
        && a.methods == b.methods
        && a.entropy_spe.to_bits() == b.entropy_spe.to_bits()
        && a.bytes_spe.to_bits() == b.bytes_spe.to_bits()
        && a.packets_spe.to_bits() == b.packets_spe.to_bits()
        && a.flows
            .iter()
            .map(|f| f.flow)
            .eq(b.flows.iter().map(|f| f.flow))
        && point_bits(&a.point) == point_bits(&b.point)
}

/// Bit-exact equality of two sealed bins.
fn same_bin(a: &FinalizedBin, b: &FinalizedBin) -> bool {
    a.bin == b.bin
        && a.summaries.len() == b.summaries.len()
        && a.summaries.iter().zip(&b.summaries).all(|(x, y)| {
            x.packets == y.packets
                && x.bytes == y.bytes
                && x.entropy.map(f64::to_bits) == y.entropy.map(f64::to_bits)
        })
}

/// A deployment between two bins: the state a snapshot clones.
#[derive(Clone)]
struct Live {
    monitor: Monitor,
    plane: TierShardedBuilder,
}

/// What the correctness pass checks besides the digest.
#[derive(Default)]
struct Gates {
    /// Scored bins whose shadow verdict was compared with the monitor's.
    shadow_checked: u64,
    shadow_mismatch: Vec<usize>,
    /// Sampled bins replayed per packet through the serial builder.
    replay_checked: u64,
    replay_mismatch: Vec<usize>,
    /// Bins where the one-shard plane's row was compared with the
    /// serving plane's.
    one_shard_checked: u64,
    one_shard_mismatch: Vec<usize>,
    /// Packets and distinct (flow, 5-tuple) runs over the census bins.
    census_packets: u64,
    census_runs: u64,
}

/// Per-layer samples of the traced pass.
#[derive(Default)]
struct Layers {
    shadow_score_s: Vec<f64>,
    absorb_s: Vec<f64>,
    heap_peak: usize,
    one_shard_offer_s: f64,
    one_shard_packets: u64,
}

/// Everything one setup or one pass over the scored period measured.
#[derive(Default)]
struct Rep {
    /// Construction plus the warmup day's offer, seal and observe time
    /// (setups only).
    setup_s: f64,
    /// Offer + seal + observe time of the bins streamed.
    pipeline_s: f64,
    /// The part of `pipeline_s` spent in refits that `observe_bin` ran.
    fit_in_observe_s: f64,
    /// Per bin: packets offered, and serving time (offer + seal +
    /// observe less the refit).
    bins: Vec<(u64, f64)>,
    /// Wall time of the blocking path, probes excluded — what tracing
    /// can slow down.
    body_s: f64,
    gen_s: f64,
    /// Packets the streamed batches represent.
    packets: u64,
    records: u64,
    offer_s: Vec<f64>,
    seal_s: Vec<f64>,
    /// Observe time of bins without a refit.
    observe_s: Vec<f64>,
    /// Seal start to verdict return, per scored bin, less the refit that
    /// `observe_bin` runs after scoring.
    verdict_s: Vec<f64>,
    /// Fit time of every refit, the warmup fit included.
    refit_ms: Vec<f64>,
    /// Bin and trigger of every refit.
    refit_log: Vec<(usize, RefitTrigger)>,
    initial_fit_s: f64,
    refits_failed: u64,
    refits_drift: u64,
    rounds: u64,
    warm_rounds: u64,
    downdated_rounds: u64,
    eigen_cycles: u64,
    offer_errors: u64,
    observe_errors: u64,
    quarantined: u64,
    late_events: u64,
    attempted: u64,
    /// Bins with an anomalous verdict.
    alarms: Vec<usize>,
    bins_scored: u64,
    digest: Digest,
    gates: Gates,
    layers: Layers,
}

impl Rep {
    /// Offer + seal + observe time without the refits: the cost of
    /// serving the bins.
    fn serving_s(&self) -> f64 {
        self.pipeline_s - self.fit_in_observe_s
    }

    fn failures(&self) -> u64 {
        self.offer_errors + self.observe_errors + self.quarantined + self.refits_failed
    }
}

/// What a pass runs besides the production calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The correctness gates: shadow scoring, per-packet replay, census.
    Check,
    Timed,
    /// Spans, shadow scoring, heap probes and the one-shard plane.
    Traced,
}

/// Builds the plane and the monitor and streams the warmup day, whose
/// last bin runs the first fit.
fn setup(spec: &StreamSpec, source: &Source, tr: &mut Tracer) -> (Live, Rep) {
    let p = source.n_flows();
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let monitor = Monitor::new(p, monitor_config()).expect("valid monitor config");
    let plane = monitor
        .ingest_plane(StreamConfig::new(p), spec.shards)
        .expect("valid plane config");
    let construct_s = t0.elapsed().as_secs_f64();
    let mut live = Live { monitor, plane };
    let mut input = BinInput::default();
    let mode = if tr.enabled() {
        Mode::Traced
    } else {
        Mode::Timed
    };
    for bin in 0..live.monitor.config().warmup_bins {
        step(&mut live, source, bin, &mut input, mode, tr, &mut rep, None);
    }
    rep.setup_s = construct_s + rep.pipeline_s;
    let (tb, tp, te) = live.monitor.thresholds();
    for t in [tb, tp, te] {
        rep.digest.feed(t.to_bits());
    }
    (live, rep)
}

/// Streams the scored period from a set-up deployment. The traced pass
/// ends with `Monitor::refit_now`, so the per-layer refit figures hold a
/// warm refit at the workload's width whatever the drift trigger did.
fn pass(spec: &StreamSpec, source: &Source, mut live: Live, mode: Mode, tr: &mut Tracer) -> Rep {
    let p = source.n_flows();
    let first = live.monitor.config().warmup_bins;
    let mut rep = Rep::default();
    let mut input = BinInput::default();
    // The one-shard plane skips the warmup bins as zero rows before it
    // starts to ingest.
    let mut one_shard = (mode == Mode::Traced).then(|| {
        let mut one = live
            .monitor
            .ingest_plane(StreamConfig::new(p), 1)
            .expect("valid plane config");
        one.advance_watermark(first as u64 * BIN_SECS);
        one
    });
    let late_before = live.plane.late_events();
    let scored_before = live.monitor.bins_scored();
    for bin in first..spec.total_bins() {
        step(
            &mut live,
            source,
            bin,
            &mut input,
            mode,
            tr,
            &mut rep,
            one_shard.as_mut(),
        );
    }
    rep.late_events = live.plane.late_events() - late_before;
    rep.bins_scored = live.monitor.bins_scored() - scored_before;
    if mode == Mode::Traced {
        let root = tr.open("pipeline.refit_now", spec.total_bins(), None);
        let refit = live.monitor.refit_now();
        tr.close(root);
        tr.record_tail("core.window.refit", root, refit.fit_ms * 1e-3);
        account_refit(&refit, spec.total_bins(), &mut rep);
    }
    rep
}

/// Generates one bin, offers it, seals it and observes the sealed row.
#[allow(clippy::too_many_arguments)]
fn step(
    live: &mut Live,
    source: &Source,
    bin: usize,
    input: &mut BinInput,
    mode: Mode,
    tr: &mut Tracer,
    rep: &mut Rep,
    one_shard: Option<&mut TierShardedBuilder>,
) {
    let keep = mode == Mode::Check && replay_sampled(bin, source);
    let g0 = Instant::now();
    source.fill(bin, input, keep);
    let g1 = Instant::now();
    rep.gen_s += (g1 - g0).as_secs_f64();
    tr.record("synth.generate", bin, None, g0, g1);
    if mode == Mode::Check && bin.is_multiple_of(8) {
        census_runs(input, &mut rep.gates);
    }
    let probing = mode != Mode::Timed && live.monitor.fitted().is_some();

    // Everything from here to the close of `root` is the bin's blocking
    // path, except the probes, whose time is subtracted.
    let body_start = Instant::now();
    let mut probe_s = 0.0;
    let root = tr.open("pipeline.bin", bin, None);
    let t0 = Instant::now();
    let offered = if source.records {
        live.plane.offer_flows(&input.records)
    } else {
        live.plane.offer_packets(&input.packets)
    };
    let t1 = Instant::now();
    tr.record("entropy.offer", bin, Some(root), t0, t1);
    rep.attempted += 1;
    if offered.is_err() {
        rep.offer_errors += 1;
    }
    if tr.enabled() {
        let h0 = Instant::now();
        rep.layers.heap_peak = rep
            .layers
            .heap_peak
            .max(live.plane.accumulator_heap_bytes());
        let h1 = Instant::now();
        tr.record("bench.probe", bin, Some(root), h0, h1);
        probe_s += (h1 - h0).as_secs_f64();
    }
    let t2 = Instant::now();
    let sealed = live.plane.advance_watermark((bin + 1) as u64 * BIN_SECS);
    let t3 = Instant::now();
    tr.record("entropy.seal", bin, Some(root), t2, t3);
    let seal = (t3 - t2).as_secs_f64();
    let mut blocking = (t1 - t0).as_secs_f64() + seal;
    let mut fit_s = 0.0;
    for fb in &sealed {
        let shadow = probing.then(|| {
            let s0 = Instant::now();
            let probe = tr.open("bench.probe", fb.bin, Some(root));
            let shadow = shadow_score(&live.monitor, fb, rep, tr, probe);
            tr.close(probe);
            probe_s += s0.elapsed().as_secs_f64();
            shadow
        });
        let o0 = Instant::now();
        let step = live.monitor.observe_bin(fb);
        let o1 = Instant::now();
        let obs = tr.record("core.monitor.observe", fb.bin, Some(root), o0, o1);
        let observe = (o1 - o0).as_secs_f64();
        blocking += observe;
        rep.attempted += 1;
        match step {
            Ok(step) => {
                let fit = step.refit.as_ref().map_or(0.0, |r| r.fit_ms * 1e-3);
                fit_s += fit;
                account_step(&step, seal + observe - fit, observe, shadow, rep, tr, obs);
            }
            Err(_) => rep.observe_errors += 1,
        }
    }
    tr.close(root);
    rep.body_s += body_start.elapsed().as_secs_f64() - probe_s;
    rep.pipeline_s += blocking;
    rep.fit_in_observe_s += fit_s;
    rep.bins.push((input.represented, blocking - fit_s));
    rep.packets += input.represented;
    rep.records += input.records.len() as u64;
    rep.offer_s.push((t1 - t0).as_secs_f64());
    rep.seal_s.push(seal);

    if let Some(one) = one_shard {
        let s0 = Instant::now();
        let ok = if source.records {
            one.offer_flows(&input.records)
        } else {
            one.offer_packets(&input.packets)
        };
        let s1 = Instant::now();
        tr.record("entropy.offer_1shard", bin, None, s0, s1);
        rep.layers.one_shard_offer_s += (s1 - s0).as_secs_f64();
        rep.layers.one_shard_packets += input.represented;
        let rows = one.advance_watermark((bin + 1) as u64 * BIN_SECS);
        rep.gates.one_shard_checked += 1;
        let same =
            rows.len() == sealed.len() && rows.iter().zip(&sealed).all(|(a, b)| same_bin(a, b));
        if ok.is_err() || !same {
            rep.gates.one_shard_mismatch.push(bin);
        }
    }
    if keep {
        replay_gate(source.n_flows(), bin, input, &sealed, &mut rep.gates);
    }
}

/// Bins the per-packet replay gate checks: every 16th bin, the first bin
/// of every injected event, and the drift bin.
fn replay_sampled(bin: usize, source: &Source) -> bool {
    bin.is_multiple_of(16)
        || source.truth.iter().any(|t| t.event.start_bin == bin)
        || source.drifted.as_ref().is_some_and(|(at, _)| *at == bin)
}

/// Counts packets and distinct (flow, 5-tuple) runs of one bin — the
/// input property that decides whether map-side combining engages.
fn census_runs(input: &BinInput, gates: &mut Gates) {
    if !input.records.is_empty() {
        gates.census_packets += input.represented;
        gates.census_runs += input.records.len() as u64;
        return;
    }
    let runs: HashSet<(usize, FlowKey)> = input
        .packets
        .iter()
        .map(|(flow, pkt)| (*flow, FlowKey::of(pkt)))
        .collect();
    gates.census_packets += input.packets.len() as u64;
    gates.census_runs += runs.len() as u64;
}

/// Replays the bin's packets one by one through the serial builder and
/// compares the row with the one the sharded plane sealed.
fn replay_gate(p: usize, bin: usize, input: &BinInput, sealed: &[FinalizedBin], gates: &mut Gates) {
    gates.replay_checked += 1;
    let mut serial = StreamingGridBuilder::new(StreamConfig::new(p))
        .expect("valid stream config")
        .starting_at(bin);
    let offered = input
        .packets
        .iter()
        .all(|(flow, pkt)| serial.offer_packet(*flow, pkt).is_ok());
    let rows = serial.advance_watermark((bin + 1) as u64 * BIN_SECS);
    let plane_row = sealed.iter().find(|fb| fb.bin == bin);
    if !(offered && rows.len() == 1 && plane_row.is_some_and(|fb| same_bin(fb, &rows[0]))) {
        gates.replay_mismatch.push(bin);
    }
}

/// Scores the bin against the serving model through a
/// `StreamingDiagnoser` built from `Monitor::fitted` — the subspace
/// layer's share of `observe_bin`, and an independent check of the
/// monitor's verdict.
fn shadow_score(
    monitor: &Monitor,
    fb: &FinalizedBin,
    rep: &mut Rep,
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<Option<Diagnosis>, DiagnosisError> {
    let fitted = monitor.fitted().expect("probes run once a model serves");
    let alpha = monitor.config().diagnoser.alpha;
    let mut shadow = fitted
        .streaming(alpha)
        .expect("serving model has thresholds");
    let s0 = Instant::now();
    let verdict = shadow.score_bin(fb);
    let s1 = Instant::now();
    tr.record("subspace.shadow_score", fb.bin, Some(parent), s0, s1);
    rep.layers.shadow_score_s.push((s1 - s0).as_secs_f64());
    verdict
}

/// Folds one monitor step into the counters. `shadow` is the shadow
/// verdict when the pass probes.
fn account_step(
    step: &MonitorStep,
    verdict_s: f64,
    observe_s: f64,
    shadow: Option<Result<Option<Diagnosis>, DiagnosisError>>,
    rep: &mut Rep,
    tr: &mut Tracer,
    obs: SpanId,
) {
    digest_verdict(&mut rep.digest, step.bin, &step.verdict);
    match &step.verdict {
        Verdict::Warmup { .. } | Verdict::Clean => {}
        Verdict::Anomalous(_) => rep.alarms.push(step.bin),
        Verdict::Quarantined => rep.quarantined += 1,
    }
    if !matches!(step.verdict, Verdict::Warmup { .. }) {
        rep.verdict_s.push(verdict_s);
    }
    if let Some(shadow) = shadow {
        rep.gates.shadow_checked += 1;
        let agree = match (&step.verdict, &shadow) {
            (Verdict::Clean, Ok(None)) => true,
            (Verdict::Anomalous(d), Ok(Some(s))) => same_diagnosis(d, s),
            _ => false,
        };
        if !agree {
            rep.gates.shadow_mismatch.push(step.bin);
        }
        if step.refit.is_none() {
            if let Some(&score) = rep.layers.shadow_score_s.last() {
                rep.layers.absorb_s.push(observe_s - score);
            }
        }
    }
    let Some(refit) = &step.refit else {
        rep.observe_s.push(observe_s);
        return;
    };
    tr.record_tail("core.window.refit", obs, refit.fit_ms * 1e-3);
    account_refit(refit, step.bin, rep);
}

fn account_refit(refit: &RefitReport, bin: usize, rep: &mut Rep) {
    for round in &refit.trace.rounds {
        rep.rounds += 1;
        rep.warm_rounds += u64::from(round.warm_start);
        rep.downdated_rounds += u64::from(round.downdated);
        rep.eigen_cycles += round.cycles as u64;
    }
    rep.refit_ms.push(refit.fit_ms);
    rep.refit_log.push((bin, refit.trigger));
    match refit.trigger {
        RefitTrigger::Warmup => rep.initial_fit_s = refit.fit_ms * 1e-3,
        RefitTrigger::Drift => rep.refits_drift += 1,
        _ => {}
    }
    if matches!(refit.outcome, RefitOutcome::Failed(_)) {
        rep.refits_failed += 1;
    }
}

/// Share of injected events in the scored period with at least one
/// anomalous verdict in a bin they cover, and the anomalous verdicts that
/// match no injected event.
fn quality(source: &Source, first: usize, alarms: &[usize]) -> (f64, u64) {
    let scored: Vec<&InjectedAnomaly> = source
        .truth
        .iter()
        .filter(|t| t.bins().start >= first && t.bins().start < source.end)
        .collect();
    let found = scored
        .iter()
        .filter(|t| alarms.iter().any(|b| t.bins().contains(b)))
        .count();
    let false_alarms = alarms
        .iter()
        .filter(|&&b| !source.truth.iter().any(|t| t.bins().contains(&b)))
        .count();
    (
        found as f64 / scored.len().max(1) as f64,
        false_alarms as u64,
    )
}

/// Runs a stream workload: setups and passes until `seconds` of setup
/// and pipeline time are measured.
pub fn run(spec: &StreamSpec, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Tracer {
    let source = Source::new(spec, seed);
    let mut quiet = Tracer::new(false);
    let mut tracer = Tracer::new(traced);

    // The first setup's deployment streams the correctness pass; every
    // timed pass comes after it.
    let (first, setup1) = setup(spec, &source, &mut quiet);
    let check = pass(spec, &source, first, Mode::Check, &mut quiet);
    // One deployment's peak: later set-ups and the clones the timed passes
    // serve from only add the benchmark's own copies.
    let peak_rss = peak_rss_mib();
    census(spec, &source, &check, out);
    gates(&check, out);

    let mut setups = vec![setup1];
    let mut live = None;
    let want_setups = if traced { 2 } else { spec.setups };
    while setups.len() < want_setups {
        let tr = if traced { &mut tracer } else { &mut quiet };
        let (state, rep) = setup(spec, &source, tr);
        setups.push(rep);
        live = Some(state);
    }
    let live = live.expect("at least two setups");
    // A traced run needs one untraced pass, to compare the traced one with.
    let mut passes: Vec<Rep> = Vec::new();
    let mut measured: f64 = setups.iter().map(|r| r.setup_s).sum();
    loop {
        let rep = pass(spec, &source, live.clone(), Mode::Timed, &mut quiet);
        measured += rep.pipeline_s;
        passes.push(rep);
        if traced || (passes.len() >= spec.min_passes && measured >= seconds) {
            break;
        }
    }
    out.gate(
        "setup identical across setups",
        setups.iter().all(|r| r.digest == setups[0].digest),
        format!(
            "{} setups, thresholds digest {:016x}",
            setups.len(),
            setups[0].digest.0
        ),
    );
    for rep in &passes {
        same_digest(out, "verdict digest: timed pass", &check, rep);
    }
    out.attempted = setups.iter().chain(&passes).map(|r| r.attempted).sum();
    out.failed = setups.iter().chain(&passes).map(Rep::failures).sum();
    out.fact(
        "failed_frac",
        format!(
            "{} ({} of {} operations)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ),
    );
    out.fact(
        "repetitions",
        format!(
            "{} setups, 1 check pass, {} timed passes",
            setups.len(),
            passes.len()
        ),
    );
    if traced {
        let traced_pass = pass(spec, &source, live, Mode::Traced, &mut tracer);
        same_digest(out, "verdict digest: traced pass", &check, &traced_pass);
        gate_one_shard(&traced_pass, out);
        layer_metrics(spec, &source, &setups[1], &traced_pass, out);
        stage_sum(&passes[0], &traced_pass, &tracer, out);
    } else {
        end_to_end(&setups, &passes, out);
        out.metric(
            "peak_rss_mb",
            "MiB",
            Better::Lower,
            peak_rss,
            "peak resident set (VmHWM) after the first set-up and the correctness pass",
        );
    }
    tracer
}

fn same_digest(out: &mut Outcome, name: &str, check: &Rep, rep: &Rep) {
    out.gate(
        name,
        check.digest == rep.digest && check.alarms == rep.alarms,
        format!(
            "{:016x} vs check pass {:016x}",
            rep.digest.0, check.digest.0
        ),
    );
}

fn census(spec: &StreamSpec, source: &Source, check: &Rep, out: &mut Outcome) {
    let p = source.n_flows();
    let first = DAY;
    let scored_bins = (spec.total_bins() - first) as f64;
    out.fact("flows", p);
    out.fact("entropy_columns", 4 * p);
    out.fact(
        "bins",
        format!(
            "{} ({first} warmup + {scored_bins} scored)",
            spec.total_bins()
        ),
    );
    out.fact(
        "feed",
        if spec.records {
            "flow records (offer_flows)"
        } else {
            "packets (offer_packets)"
        },
    );
    out.fact("shards", spec.shards);
    out.fact(
        "packets_per_bin",
        format!("{:.0}", check.packets as f64 / scored_bins),
    );
    out.fact(
        "records_per_bin",
        format!("{:.0}", check.records as f64 / scored_bins),
    );
    out.fact(
        "pkts_per_run",
        format!(
            "{:.4}",
            check.gates.census_packets as f64 / check.gates.census_runs.max(1) as f64
        ),
    );
    let anomalous: HashSet<usize> = source
        .truth
        .iter()
        .flat_map(|t| t.bins())
        .filter(|&b| b >= first && b < source.end)
        .collect();
    let scored_events = source
        .truth
        .iter()
        .filter(|t| t.bins().start >= first && t.bins().start < source.end)
        .count();
    out.fact(
        "injected_events",
        format!(
            "{} ({scored_events} start in the scored period)",
            source.truth.len()
        ),
    );
    out.fact(
        "anomalous_bin_share",
        format!("{:.4}", anomalous.len() as f64 / scored_bins),
    );
    out.fact(
        "drift_bin",
        spec.drift.map_or("none".to_string(), |(bin, factor)| {
            format!("{bin} (traffic x{factor})")
        }),
    );
    out.fact(
        "check_pass",
        format!(
            "{} verdicts, {} anomalous, refits {:?}, digest {:016x}",
            check.verdict_s.len(),
            check.alarms.len(),
            check.refit_log,
            check.digest.0
        ),
    );
}

fn gates(check: &Rep, out: &mut Outcome) {
    let g = &check.gates;
    out.gate(
        "shadow verdict == monitor verdict",
        g.shadow_checked > 0 && g.shadow_mismatch.is_empty(),
        format!(
            "{} scored bins, mismatches at {:?}",
            g.shadow_checked, g.shadow_mismatch
        ),
    );
    out.gate(
        "plane row == per-packet replay",
        g.replay_checked > 0 && g.replay_mismatch.is_empty(),
        format!(
            "{} sampled bins, mismatches at {:?}",
            g.replay_checked, g.replay_mismatch
        ),
    );
    out.gate(
        "no failed operations",
        check.failures() == 0,
        format!(
            "{} offer errors, {} observe errors, {} quarantined, {} failed refits",
            check.offer_errors, check.observe_errors, check.quarantined, check.refits_failed
        ),
    );
}

fn gate_one_shard(traced: &Rep, out: &mut Outcome) {
    let g = &traced.gates;
    out.gate(
        "one-shard plane row == serving row",
        g.one_shard_checked > 0 && g.one_shard_mismatch.is_empty(),
        format!(
            "{} bins, mismatches at {:?}",
            g.one_shard_checked, g.one_shard_mismatch
        ),
    );
}

/// Fewest verdicts a tail is taken over.
const TAIL_GROUP_BINS: usize = 200;

fn end_to_end(setups: &[Rep], passes: &[Rep], out: &mut Outcome) {
    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = passes
        .iter()
        .flat_map(|r| r.bins.iter().map(|&(packets, secs)| packets as f64 / secs))
        .collect();
    out.metric(
        "pkts_per_s",
        "pkt/s",
        Better::Higher,
        median(&rates),
        format!(
            "per-bin packets / serving time (offer + seal + observe less in-call refits; generator excluded), median over {} scored bins",
            rates.len()
        ),
    );
    let verdict: Vec<f64> = passes
        .iter()
        .flat_map(|r| r.verdict_s.iter().map(|s| s * 1e3))
        .collect();
    out.metric(
        "verdict_p50_ms",
        "ms",
        Better::Lower,
        median(&verdict),
        format!(
            "advance_watermark call to observe_bin return less in-call refit, median over {} scored bins",
            verdict.len()
        ),
    );
    // The tail is taken per group of consecutive passes holding at least
    // `TAIL_GROUP_BINS` verdicts, and the median over groups is reported.
    let per_group = TAIL_GROUP_BINS.div_ceil(passes[0].verdict_s.len().max(1));
    let tails: Vec<(f64, f64)> = passes
        .chunks(per_group)
        .filter(|g| g.len() == per_group)
        .map(|g| {
            tail(
                &g.iter()
                    .flat_map(|r| r.verdict_s.iter().copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.metric(
        "verdict_tail_ms",
        "ms",
        Better::Lower,
        median(&tails.iter().map(|t| t.1 * 1e3).collect::<Vec<_>>()),
        format!(
            "the same latency at p{}, the highest percentile with >= 10 of a group's {} verdicts beyond it ({per_group} passes per group); median over {} groups",
            tails[0].0,
            per_group * passes[0].verdict_s.len(),
            tails.len()
        ),
    );
    let setup_s = med(setups, &|r| r.setup_s);
    out.metric(
        "setup_s",
        "s",
        Better::Lower,
        setup_s,
        format!(
            "plane + monitor construction, warmup ingest and absorb, first fit; median over {} setups",
            setups.len()
        ),
    );
    out.metric(
        "repro_s",
        "s",
        Better::Lower,
        setup_s + med(passes, &|r| r.serving_s()),
        "whole job: median setup + median scored-period serving time (generator excluded)",
    );
}

fn layer_metrics(spec: &StreamSpec, source: &Source, setup: &Rep, r: &Rep, out: &mut Outcome) {
    let ms = |v: &[f64]| median(v) * 1e3;
    out.metric(
        "entropy.offer_ms_p50",
        "ms",
        Better::Lower,
        ms(&r.offer_s),
        "offer_packets / offer_flows call per bin, median",
    );
    out.metric(
        "entropy.offer_pkts_per_s",
        "pkt/s",
        Better::Higher,
        r.packets as f64 / r.offer_s.iter().sum::<f64>(),
        format!(
            "packets / summed offer time on the {}-shard plane",
            spec.shards
        ),
    );
    out.metric(
        "entropy.offer_pkts_per_s_1shard",
        "pkt/s",
        Better::Higher,
        r.layers.one_shard_packets as f64 / r.layers.one_shard_offer_s,
        "the same batches offered to a one-shard plane (inline ingest baseline)",
    );
    out.metric(
        "entropy.seal_ms_p50",
        "ms",
        Better::Lower,
        ms(&r.seal_s),
        "advance_watermark call (finalization + dense row build), median",
    );
    out.metric(
        "entropy.heap_bytes_peak",
        "B",
        Better::Lower,
        r.layers.heap_peak as f64,
        "accumulator_heap_bytes() just before each seal, maximum",
    );
    out.count(
        "entropy.late_events",
        Better::Lower,
        r.late_events,
        "events dropped as late",
    );
    out.count(
        "entropy.offer_errors",
        Better::Lower,
        r.offer_errors,
        "offer calls returning Err",
    );
    let per_run = out
        .census
        .iter()
        .find(|(k, _)| k == "pkts_per_run")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(f64::NAN);
    out.metric(
        "entropy.pkts_per_run",
        "pkt/run",
        Better::Higher,
        per_run,
        "input property: packets per distinct (flow, 5-tuple) per bin",
    );
    out.metric(
        "core.monitor.observe_ms_p50",
        "ms",
        Better::Lower,
        ms(&r.observe_s),
        "observe_bin on scored bins without a refit, median",
    );
    out.count(
        "core.monitor.bins_scored",
        Better::Higher,
        r.bins_scored,
        "bins scored against a model",
    );
    out.count(
        "core.monitor.detections",
        Better::Lower,
        r.alarms.len() as u64,
        "anomalous verdicts",
    );
    out.count(
        "core.monitor.quarantined",
        Better::Lower,
        r.quarantined,
        "Quarantined verdicts",
    );
    out.metric(
        "subspace.score_us_p50",
        "us",
        Better::Lower,
        median(&r.layers.shadow_score_s) * 1e6,
        "shadow StreamingDiagnoser::score_bin against the serving model, median",
    );
    out.metric(
        "core.window.absorb_ms_p50",
        "ms",
        Better::Lower,
        ms(&r.layers.absorb_s),
        "observe_bin minus shadow score, bins without a refit, median",
    );
    let refits: Vec<f64> = setup.refit_ms.iter().chain(&r.refit_ms).copied().collect();
    out.metric(
        "core.window.refit_ms_p50",
        "ms",
        Better::Lower,
        median(&refits),
        format!(
            "RefitReport.fit_ms of {} fits (warmup fit included), median",
            refits.len()
        ),
    );
    out.metric(
        "core.window.refit_ms_max",
        "ms",
        Better::Lower,
        refits.iter().copied().fold(0.0, f64::max),
        "RefitReport.fit_ms, maximum",
    );
    out.metric(
        "core.window.initial_fit_s",
        "s",
        Better::Lower,
        setup.initial_fit_s,
        "warmup fit, RefitReport.fit_ms",
    );
    out.count(
        "core.window.refits",
        Better::Lower,
        r.refit_ms.len() as u64,
        "refits in the scored period, the closing refit_now included",
    );
    out.count(
        "core.window.refits_failed",
        Better::Lower,
        setup.refits_failed + r.refits_failed,
        "RefitOutcome::Failed",
    );
    out.count(
        "core.window.refits_drift",
        Better::Lower,
        r.refits_drift,
        "drift-triggered refits",
    );
    let rounds = (setup.rounds + r.rounds).max(1) as f64;
    out.metric(
        "core.window.warm_round_frac",
        "ratio",
        Better::Higher,
        (setup.warm_rounds + r.warm_rounds) as f64 / rounds,
        "fit rounds seeded from a serving basis / rounds (RefitReport.trace)",
    );
    out.metric(
        "core.window.downdated_round_frac",
        "ratio",
        Better::Higher,
        (setup.downdated_rounds + r.downdated_rounds) as f64 / rounds,
        "fit rounds whose moments were downdated / rounds",
    );
    out.count(
        "linalg.eigen_cycles",
        Better::Lower,
        setup.eigen_cycles + r.eigen_cycles,
        "sum of RoundTrace.cycles over every fit",
    );
    out.metric(
        "synth.generate_s",
        "s",
        Better::Lower,
        setup.gen_s + r.gen_s,
        "generator time of the traced setup and pass (excluded from every end-to-end metric)",
    );
    out.metric(
        "synth.pkts_per_s",
        "pkt/s",
        Better::Higher,
        (setup.packets + r.packets) as f64 / (setup.gen_s + r.gen_s),
        "generated packets / generator time",
    );
    let (recall, false_alarms) = quality(source, DAY, &r.alarms);
    out.metric(
        "core.report.truth_recall",
        "ratio",
        Better::Higher,
        recall,
        "scored-period events with >= 1 anomalous verdict in a covered bin / events",
    );
    out.count(
        "core.report.false_alarms",
        Better::Lower,
        false_alarms,
        "anomalous verdicts in no injected event's bins",
    );
}

/// Checks that the layer spans on the blocking path account for the
/// traced pipeline time, and reports the tracing overhead.
fn stage_sum(untraced: &Rep, traced: &Rep, tracer: &Tracer, out: &mut Outcome) {
    const TOLERANCE: f64 = 0.02;
    const LAYERS: [&str; 4] = [
        "entropy.offer",
        "entropy.seal",
        "core.monitor.observe",
        "core.window.refit",
    ];
    let traced_pipeline = tracer.total("pipeline.bin") + tracer.total("pipeline.refit_now")
        - tracer.total("bench.probe");
    let parts: Vec<String> = LAYERS
        .iter()
        .map(|n| format!("{n} {:.3}s", tracer.self_total(n)))
        .collect();
    let layers: f64 = LAYERS.iter().map(|n| tracer.self_total(n)).sum();
    let gap = (traced_pipeline - layers) / traced_pipeline;
    out.fact(
        "stage_sum",
        format!(
            "self times {} = {layers:.3}s of {traced_pipeline:.3}s traced pipeline time (gap {:.3}%, tolerance {:.0}%)",
            parts.join(" + "),
            gap * 100.0,
            TOLERANCE * 100.0
        ),
    );
    out.gate(
        "stage self times sum to pipeline time",
        gap.abs() <= TOLERANCE,
        format!("gap {:.3}%", gap * 100.0),
    );
    out.fact(
        "tracing_overhead",
        format!(
            "{:+.4}s ({:+.2}%): scored-period blocking path {:.4}s traced vs {:.4}s untraced",
            traced.body_s - untraced.body_s,
            (traced.body_s / untraced.body_s - 1.0) * 100.0,
            traced.body_s,
            untraced.body_s
        ),
    );
    out.fact("spans", tracer.len());
}

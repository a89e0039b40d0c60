//! The paper-reproduction batch job: generate an Abilene dataset with the
//! paper's anomaly mix, fit the batch diagnoser, diagnose every bin,
//! match the verdicts to ground truth and classify the anomalies.
//!
//! It is the only workload that runs `synth`'s per-packet accumulation
//! (`Dataset::generate`), the batch fit and `cluster`. Job 0 runs the
//! correctness gates and is not timed; the timed jobs follow.

use crate::report::{median, peak_rss_mib, Better, Digest, Outcome};
use crate::trace::Tracer;
use entromine::net::Topology;
use entromine::synth::{Dataset, DatasetConfig, Schedule, SyntheticNetwork};
use entromine::{anomaly_point_matrix, match_truth, ClassifierConfig, Diagnoser, MatchOutcome};
use std::time::Instant;

/// Size of the batch job.
#[derive(Debug, Clone)]
pub struct ReproSpec {
    pub days: usize,
    pub traffic_scale: f64,
    pub events_per_day: usize,
}

/// Everything one job measured.
#[derive(Default)]
struct Job {
    generate_s: f64,
    fit_s: f64,
    diagnose_s: f64,
    match_s: f64,
    classify_s: f64,
    /// Packets accumulated by the generator.
    packets: u64,
    /// Per-bin `score_rows` time of the replay through the fitted
    /// model's streaming head.
    score_s: Vec<f64>,
    /// Hash of the report and the clustering.
    digest: Digest,
    replay_matches: bool,
    errors: u64,
    attempted: u64,
    recall: f64,
    false_alarms: u64,
    detections: usize,
    events: usize,
    flows: usize,
}

impl Job {
    fn repro_s(&self) -> f64 {
        self.generate_s + self.fit_s + self.diagnose_s + self.match_s + self.classify_s
    }
}

fn job(spec: &ReproSpec, seed: u64, index: usize, tr: &mut Tracer) -> Job {
    let mut out = Job::default();
    let root = tr.open("repro.job", index, None);

    let t0 = Instant::now();
    let config = DatasetConfig {
        seed,
        n_bins: spec.days * crate::stream::DAY,
        sample_rate: 100,
        traffic_scale: spec.traffic_scale,
        rate_noise: 0.02,
        anonymize: true,
    };
    let net = SyntheticNetwork::new(Topology::abilene(), config.clone());
    let events =
        Schedule::paper_mix(seed ^ 0x5EED, spec.events_per_day * spec.days).materialize(&net);
    let dataset = Dataset::generate(Topology::abilene(), config, events);
    let t1 = Instant::now();
    tr.record("synth.generate", index, Some(root), t0, t1);
    out.generate_s = (t1 - t0).as_secs_f64();
    out.packets = dataset.volumes.packets().as_slice().iter().sum::<f64>() as u64;
    out.events = dataset.truth.len();
    out.flows = dataset.n_flows();

    let diagnoser = Diagnoser::default();
    out.attempted += 1;
    let fitted = match diagnoser.fit(&dataset) {
        Ok(f) => f,
        Err(_) => {
            out.errors += 1;
            tr.close(root);
            return out;
        }
    };
    let t2 = Instant::now();
    tr.record("core.pipeline.fit", index, Some(root), t1, t2);
    out.fit_s = (t2 - t1).as_secs_f64();

    out.attempted += 1;
    let report = fitted.diagnose(&dataset);
    let t3 = Instant::now();
    tr.record("core.pipeline.diagnose", index, Some(root), t2, t3);
    out.diagnose_s = (t3 - t2).as_secs_f64();
    let Ok(report) = report else {
        out.errors += 1;
        tr.close(root);
        return out;
    };

    let matches = match_truth(&report, &dataset.truth);
    let t4 = Instant::now();
    tr.record("core.report.match_truth", index, Some(root), t3, t4);
    out.match_s = (t4 - t3).as_secs_f64();

    out.attempted += 1;
    let (points, _) = anomaly_point_matrix(&report);
    let clustering = ClassifierConfig::default().classify(&points);
    let t5 = Instant::now();
    tr.record("cluster.classify", index, Some(root), t4, t5);
    out.classify_s = (t5 - t4).as_secs_f64();
    tr.close(root);

    let mut digest = Digest::default();
    for d in &report.diagnoses {
        digest.feed(d.bin as u64);
        digest.feed(d.entropy_spe.to_bits());
        digest.feed(d.bytes_spe.to_bits());
        digest.feed(d.packets_spe.to_bits());
        for f in &d.flows {
            digest.feed(f.flow as u64);
        }
    }
    match &clustering {
        Ok(c) => c.assignments.iter().for_each(|&a| digest.feed(a as u64)),
        Err(_) => out.errors += 1,
    }
    out.digest = digest;
    out.detections = report.diagnoses.len();

    // Truth recall and false alarms from the matched report.
    let mut found = vec![false; dataset.truth.len()];
    for m in &matches {
        match m {
            MatchOutcome::Truth(i) => found[*i] = true,
            MatchOutcome::FalseAlarm => out.false_alarms += 1,
        }
    }
    // An event is found when any diagnosis falls in a bin it covers, not
    // only when it is the first covering event in truth order.
    for (i, t) in dataset.truth.iter().enumerate() {
        found[i] |= report.diagnoses.iter().any(|d| t.bins().contains(&d.bin));
    }
    out.recall = found.iter().filter(|&&f| f).count() as f64 / found.len().max(1) as f64;

    // Replay every bin through the fitted model's streaming head (the
    // scoring path `diagnose` runs): it must reproduce the report
    // exactly, and its per-bin times are the subspace layer's figure.
    let alpha = fitted.config().alpha;
    let mut scorer = fitted
        .streaming(alpha)
        .expect("fitted model has thresholds");
    let mut replayed = Vec::new();
    let mut replay_errors = 0;
    for bin in 0..dataset.n_bins() {
        let entropy = dataset.tensor.unfolded_row(bin);
        let s0 = Instant::now();
        let verdict = scorer.score_rows(
            bin,
            dataset.volumes.bytes().row(bin),
            dataset.volumes.packets().row(bin),
            &entropy,
        );
        let s1 = Instant::now();
        tr.record("subspace.score", bin, None, s0, s1);
        out.score_s.push((s1 - s0).as_secs_f64());
        match verdict {
            Ok(Some(d)) => replayed.push(d),
            Ok(None) => {}
            Err(_) => replay_errors += 1,
        }
    }
    out.replay_matches = replay_errors == 0
        && replayed.len() == report.diagnoses.len()
        && replayed.iter().zip(&report.diagnoses).all(|(a, b)| {
            a.bin == b.bin
                && a.entropy_spe.to_bits() == b.entropy_spe.to_bits()
                && a.bytes_spe.to_bits() == b.bytes_spe.to_bits()
                && a.packets_spe.to_bits() == b.packets_spe.to_bits()
        });
    out
}

/// Runs the batch job until `seconds` of job time are measured.
pub fn run(spec: &ReproSpec, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Tracer {
    let mut quiet = Tracer::new(false);
    let check = job(spec, seed, 0, &mut quiet);
    // One job's peak: later jobs only reuse or add allocator arenas.
    let peak_rss = peak_rss_mib();
    let p = check.flows;
    out.fact("flows", p);
    out.fact("entropy_columns", 4 * p);
    out.fact("bins", spec.days * crate::stream::DAY);
    out.fact(
        "feed",
        "synthetic packets accumulated per packet by Dataset::generate",
    );
    out.fact(
        "packets_per_bin",
        format!(
            "{:.0}",
            check.packets as f64 / (spec.days * crate::stream::DAY) as f64
        ),
    );
    out.fact("injected_events", check.events);
    out.fact("detections", check.detections);
    out.gate(
        "streaming replay == batch report",
        check.replay_matches,
        format!("{} bins replayed", check.score_s.len()),
    );
    out.gate(
        "no failed batch stages",
        check.errors == 0,
        format!("{} errors", check.errors),
    );

    let mut jobs = Vec::new();
    let mut tracer = Tracer::new(traced);
    let mut measured = 0.0;
    loop {
        let tr = if traced && jobs.len() == 1 {
            &mut tracer
        } else {
            &mut quiet
        };
        let j = job(spec, seed, jobs.len() + 1, tr);
        measured += j.repro_s();
        jobs.push(j);
        if jobs.len() >= 2 && (traced || measured >= seconds) {
            break;
        }
    }
    let same = jobs.iter().all(|j| j.digest == check.digest);
    out.gate(
        "report identical across jobs",
        same,
        format!("{} jobs, digest {:016x}", jobs.len() + 1, check.digest.0),
    );
    out.attempted = jobs.iter().map(|j| j.attempted).sum();
    out.failed = jobs.iter().map(|j| j.errors).sum();
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
        format!("{} timed jobs after 1 check job", jobs.len()),
    );

    let med = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    if traced {
        let (untraced, traced_job) = (&jobs[0], &jobs[1]);
        layer_metrics(traced_job, &tracer, out);
        out.fact(
            "tracing_overhead",
            format!(
                "{:+.3}s ({:+.2}%): job time {:.3}s traced vs {:.3}s untraced",
                traced_job.repro_s() - untraced.repro_s(),
                (traced_job.repro_s() / untraced.repro_s() - 1.0) * 100.0,
                traced_job.repro_s(),
                untraced.repro_s()
            ),
        );
        return tracer;
    }
    out.metric(
        "pkts_per_s",
        "pkt/s",
        Better::Higher,
        med(&|j| j.packets as f64 / j.repro_s()),
        "packets accumulated by the generator / job time (generate + fit + diagnose + match + classify); median over jobs",
    );
    // Every verdict of the batch job arrives when the job ends, so its
    // verdict latency is the job time.
    let verdict_ms: Vec<f64> = jobs.iter().map(|j| j.repro_s() * 1e3).collect();
    out.metric(
        "verdict_p50_ms",
        "ms",
        Better::Lower,
        median(&verdict_ms),
        format!(
            "config to classified verdicts (the job time), median over {} jobs",
            jobs.len()
        ),
    );
    out.metric(
        "verdict_tail_ms",
        "ms",
        Better::Lower,
        verdict_ms.iter().copied().fold(0.0, f64::max),
        format!(
            "the same latency, maximum over {} jobs (too few for a percentile with 10 beyond)",
            jobs.len()
        ),
    );
    out.metric(
        "setup_s",
        "s",
        Better::Lower,
        med(&|j| j.generate_s),
        "Dataset::generate; median over jobs",
    );
    out.metric(
        "repro_s",
        "s",
        Better::Lower,
        med(&|j| j.repro_s()),
        "config to classified report: generate + fit + diagnose + match + classify; median over jobs",
    );
    out.metric(
        "peak_rss_mb",
        "MiB",
        Better::Lower,
        peak_rss,
        "peak resident set (VmHWM) after the first job",
    );
    tracer
}

fn layer_metrics(j: &Job, tracer: &Tracer, out: &mut Outcome) {
    out.metric(
        "synth.generate_s",
        "s",
        Better::Lower,
        j.generate_s,
        "Dataset::generate",
    );
    out.metric(
        "synth.pkts_per_s",
        "pkt/s",
        Better::Higher,
        j.packets as f64 / j.generate_s,
        "packets accumulated / generate time",
    );
    out.metric(
        "core.pipeline.fit_s",
        "s",
        Better::Lower,
        j.fit_s,
        "Diagnoser::fit",
    );
    out.metric(
        "core.pipeline.diagnose_s",
        "s",
        Better::Lower,
        j.diagnose_s,
        "FittedDiagnoser::diagnose (scoring + identification)",
    );
    out.metric(
        "cluster.classify_s",
        "s",
        Better::Lower,
        j.classify_s,
        "anomaly_point_matrix + ClassifierConfig::classify",
    );
    out.metric(
        "subspace.score_us_p50",
        "us",
        Better::Lower,
        median(&j.score_s) * 1e6,
        "StreamingDiagnoser::score_rows per bin in the replay, median",
    );
    out.metric(
        "core.report.truth_recall",
        "ratio",
        Better::Higher,
        j.recall,
        "events with >= 1 diagnosis in a covered bin / events",
    );
    out.count(
        "core.report.false_alarms",
        Better::Lower,
        j.false_alarms,
        "diagnoses in no injected event's bins",
    );
    const TOLERANCE: f64 = 0.02;
    let job_s = tracer.total("repro.job");
    let layers: f64 = [
        "synth.generate",
        "core.pipeline.fit",
        "core.pipeline.diagnose",
        "core.report.match_truth",
        "cluster.classify",
    ]
    .iter()
    .map(|n| tracer.self_total(n))
    .sum();
    let gap = (job_s - layers) / job_s;
    out.fact(
        "stage_sum",
        format!("layer self times {layers:.4}s of {job_s:.4}s traced job time (gap {:.3}%, tolerance {:.0}%)", gap * 100.0, TOLERANCE * 100.0),
    );
    out.gate(
        "stage self times sum to job time",
        gap.abs() <= TOLERANCE,
        format!("gap {:.3}%", gap * 100.0),
    );
    out.fact("spans", tracer.len());
}

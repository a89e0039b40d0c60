//! Packet-to-verdict benchmark of entromine.
//!
//! ```sh
//! cargo run --release --manifest-path verdictbench/Cargo.toml -- \
//!     --workload abilene_packets --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `abilene_packets` — packets through a two-shard
//!   `Monitor::ingest_plane` into `Monitor::observe_bin`, Abilene width,
//!   with a traffic-regime change late in the scored day;
//! * `geant_records` — NetFlow-shaped records through `offer_flows` at
//!   Geant width, where the first fit and window absorbs dominate (not in
//!   `BENCHMARK.json`: too unsteady across seeds, see the README);
//! * `abilene_repro` — the batch paper reproduction: generate, fit,
//!   diagnose, match to ground truth, classify.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from a traced repetition
//! and writes its spans to `verdictbench/out/`. Every run first checks
//! the program's outputs (see the `gate` lines); the last line of
//! standard output is the JSON result. The exit code is 1 when a gate
//! fails and 2 on bad arguments or a pinned reference path.

mod report;
mod repro;
mod stream;
mod trace;

use entromine::linalg::kernel::{active_backend, cpu_features, forced_scalar};
use entromine::linalg::reference_score_forced;
use entromine::net::Topology;
use report::{Better, Digest, Outcome};
use repro::ReproSpec;
use std::path::Path;
use stream::{StreamSpec, DAY};

/// Every per-layer metric a traced run reports. A workload that does not
/// call into a layer reports zero work for it and says so.
const PER_LAYER: [(&str, &str, Better); 30] = [
    ("entropy.offer_ms_p50", "ms", Better::Lower),
    ("entropy.offer_pkts_per_s", "pkt/s", Better::Higher),
    ("entropy.offer_pkts_per_s_1shard", "pkt/s", Better::Higher),
    ("entropy.seal_ms_p50", "ms", Better::Lower),
    ("entropy.heap_bytes_peak", "B", Better::Lower),
    ("entropy.late_events", "count", Better::Lower),
    ("entropy.offer_errors", "count", Better::Lower),
    ("entropy.pkts_per_run", "pkt/run", Better::Higher),
    ("core.monitor.observe_ms_p50", "ms", Better::Lower),
    ("core.monitor.bins_scored", "count", Better::Higher),
    ("core.monitor.detections", "count", Better::Lower),
    ("core.monitor.quarantined", "count", Better::Lower),
    ("subspace.score_us_p50", "us", Better::Lower),
    ("core.window.absorb_ms_p50", "ms", Better::Lower),
    ("core.window.refit_ms_p50", "ms", Better::Lower),
    ("core.window.refit_ms_max", "ms", Better::Lower),
    ("core.window.initial_fit_s", "s", Better::Lower),
    ("core.window.refits", "count", Better::Lower),
    ("core.window.refits_failed", "count", Better::Lower),
    ("core.window.refits_drift", "count", Better::Lower),
    ("core.window.warm_round_frac", "ratio", Better::Higher),
    ("core.window.downdated_round_frac", "ratio", Better::Higher),
    ("linalg.eigen_cycles", "count", Better::Lower),
    ("synth.generate_s", "s", Better::Lower),
    ("synth.pkts_per_s", "pkt/s", Better::Higher),
    ("core.pipeline.fit_s", "s", Better::Lower),
    ("core.pipeline.diagnose_s", "s", Better::Lower),
    ("cluster.classify_s", "s", Better::Lower),
    ("core.report.truth_recall", "ratio", Better::Higher),
    ("core.report.false_alarms", "count", Better::Lower),
];

enum Workload {
    Stream(StreamSpec),
    Repro(ReproSpec),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "abilene_packets" => Workload::Stream(StreamSpec {
            topology: Topology::abilene,
            sample_rate: 100,
            traffic_scale: 0.05,
            anonymize: true,
            scored_bins: DAY,
            events_per_day: 21,
            // 18:00 of the scored day: the post-drift alarm storm covers a
            // quarter of the scored bins, so the medians over bins stay in
            // the steady regime.
            drift: Some((DAY + 3 * DAY / 4, 1.4)),
            records: false,
            shards: 2,
            setups: 3,
            min_passes: 4,
        }),
        "geant_records" => Workload::Stream(StreamSpec {
            topology: Topology::geant,
            sample_rate: 1000,
            traffic_scale: 0.1,
            anonymize: false,
            // One bin short of the drift policy's 36-bin window, so no
            // refit (12 s at this width, triggered by seed-dependent alarm
            // rates) can land in the timed period; the fit engine is timed
            // in set-up, where the first fit is most of the work.
            scored_bins: 35,
            events_per_day: 21,
            drift: None,
            records: true,
            shards: 2,
            setups: 2,
            min_passes: 12,
        }),
        "abilene_repro" => Workload::Repro(ReproSpec {
            days: 2,
            traffic_scale: 0.1,
            events_per_day: 21,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Revision of the program under test: the git commit when run from the
/// root of a git checkout, and always an FNV-1a hash of the workspace and
/// benchmark sources, so exported trees without git history are
/// identified too.
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    collect_sources(Path::new("verdictbench/src"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut hash = Digest::default();
    for file in &files {
        hash.feed_bytes(file.to_string_lossy().as_bytes());
        hash.feed_bytes(&std::fs::read(file).unwrap_or_default());
    }
    format!("git {git}, sources {:016x} ({} files)", hash.0, files.len())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn fingerprint(out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.fact("host.nproc", nproc);
    out.fact("host.backend", active_backend().name());
    out.fact("host.cpu_features", format!("{:?}", cpu_features()));
    out.fact("build.revision", revision());
    out.fact(
        "build.profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!(
            "verdictbench: unknown workload {:?} (abilene_packets, geant_records, abilene_repro)",
            args.workload
        );
        std::process::exit(2);
    };
    // These pins route the process through the scalar kernels or the
    // reference scoring chain: a different program from the one users run.
    if forced_scalar() || reference_score_forced() {
        eprintln!(
            "verdictbench: refusing to time a pinned process: unset ENTROMINE_FORCE_SCALAR and ENTROMINE_FORCE_REFERENCE_SCORE"
        );
        std::process::exit(2);
    }

    let mut out = Outcome::default();
    out.fact("workload", &args.workload);
    out.fact("seed", args.seed);
    out.fact(
        "mode",
        if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        },
    );
    fingerprint(&mut out);
    let tracer = match &spec {
        Workload::Stream(s) => stream::run(s, args.seed, args.seconds, args.trace, &mut out),
        Workload::Repro(r) => repro::run(r, args.seed, args.seconds, args.trace, &mut out),
    };

    if args.trace {
        for (name, unit, better) in PER_LAYER {
            if !out.metrics.iter().any(|m| m.name == name) {
                out.metric(name, unit, better, 0.0, "not exercised by this workload");
                out.absent.push((
                    name.to_string(),
                    "the workload makes no call into this layer; reported as zero work".to_string(),
                ));
            }
        }
        let dir = Path::new("verdictbench/out");
        let file = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&file, tracer.to_json_lines()))
        {
            Ok(()) => out.fact("spans_file", file.display()),
            Err(e) => out.fact("spans_file", format!("not written: {e}")),
        }
    }
    out.print();
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level list of `BENCHMARK.json`.
    fn names_in(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let declared = names_in("per_layer");
        let emitted: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(declared, emitted);
    }

    #[test]
    fn every_workload_is_declared() {
        for name in names_in("workloads") {
            assert!(workload(&name).is_some(), "{name} has no spec");
        }
    }
}

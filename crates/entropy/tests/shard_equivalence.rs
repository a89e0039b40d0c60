//! Ingest-plane equivalence — the contract of the one grid builder.
//!
//! Sharding, batching and combining are only admissible if they are
//! *invisible* in the output: for any shard count, any batch
//! segmentation, and any watermark schedule, the emitted `FinalizedBin`
//! sequence must be **bit-identical** to what the documented per-event
//! rules produce on the same events — same bins, same per-flow volumes,
//! same entropies to the last bit, same late-event accounting.
//!
//! The executable specification is [`ReferenceGrid`], kept in this file
//! and sharing no code with the builder above the cell accumulator: it
//! feeds `BinAccumulator::add_packet` one event at a time into a
//! `BTreeMap<bin, Vec<BinAccumulator>>` and applies the late, gap and
//! horizon rules written out directly. The builder — per-event and batch
//! offers, at every shard count — is pinned against it here.
//!
//! The fixed tests cover late events, gap bins, lateness slack, flow
//! records, and the end-of-stream flush; the proptests sweep random
//! traffic shapes across shard counts 1/2/7/16.
//!
//! The `combining_*` tests pin the map-side combining batch path
//! specifically (these are what CI's `combining-equivalence` step runs):
//! batches — including shuffled ones, flow-record ones, and batches
//! straddling bins — must finalize bit-identically to the per-event
//! reference at every shard count, late events and gap bins included.

use entromine_entropy::stream::{StreamConfig, StreamError, StreamingGridBuilder};
use entromine_entropy::{BinAccumulator, BinSummary, FinalizedBin};
use entromine_net::flow::aggregate_bin;
use entromine_net::{Ipv4, PacketHeader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// A deterministic pseudo-traffic stream: `(flow, packet)` events in
/// near-time order with controllable stragglers and silent bins.
fn traffic(
    seed: u64,
    n_flows: usize,
    n_bins: usize,
    per_bin: usize,
    gap_bins: &[usize],
    stragglers: usize,
) -> Vec<(usize, PacketHeader)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for bin in 0..n_bins {
        if gap_bins.contains(&bin) {
            continue;
        }
        for _ in 0..per_bin {
            let flow = rng.random_range(0..n_flows);
            let ts = bin as u64 * 300 + rng.random_range(0..300);
            let pkt = PacketHeader::tcp(
                Ipv4(rng.random_range(0..50)),
                rng.random_range(1024..1064),
                Ipv4(rng.random_range(0..20)),
                [80u16, 443, 53, 22][rng.random_range(0..4)],
                40 + rng.random_range(0..1400),
                ts,
            );
            out.push((flow, pkt));
        }
    }
    // Stragglers: events for long-sealed bins, interleaved at the end of
    // the stream (they are offered after the watermark has moved on).
    for _ in 0..stragglers {
        let flow = rng.random_range(0..n_flows);
        let pkt = PacketHeader::tcp(Ipv4(1), 1024, Ipv4(2), 80, 40, rng.random_range(0..300));
        out.push((flow, pkt));
    }
    out
}

/// The per-event reference grid: open-bin accumulators keyed by bin,
/// with the builder's documented rules written out directly.
///
/// * An event for a bin below the next unemitted bin is late: dropped
///   and counted.
/// * An event at or past `next_emit + horizon_bins` is refused.
/// * Advancing the watermark seals every bin `b` with
///   `(b + 1)·bin_secs + allowed_lateness <= watermark`, at most
///   `horizon_bins` of them per advance, in order; a sealed bin nothing
///   was offered for is an all-zero row.
struct ReferenceGrid {
    config: StreamConfig,
    open: BTreeMap<usize, Vec<BinAccumulator>>,
    watermark: u64,
    next_emit: usize,
    late: u64,
}

impl ReferenceGrid {
    fn new(config: &StreamConfig) -> Self {
        ReferenceGrid {
            config: config.clone(),
            open: BTreeMap::new(),
            watermark: 0,
            next_emit: 0,
            late: 0,
        }
    }

    fn offer_packet(&mut self, flow: usize, pkt: &PacketHeader) -> Result<(), StreamError> {
        let n_flows = self.config.n_flows;
        if flow >= n_flows {
            return Err(StreamError::FlowOutOfRange { flow, n_flows });
        }
        let bin = (pkt.timestamp / self.config.bin_secs) as usize;
        let horizon_end = self.next_emit + self.config.horizon_bins;
        if bin < self.next_emit {
            self.late += 1;
        } else if bin >= horizon_end {
            return Err(StreamError::BeyondHorizon { bin, horizon_end });
        } else {
            self.open
                .entry(bin)
                .or_insert_with(|| vec![BinAccumulator::new(); n_flows])[flow]
                .add_packet(pkt);
        }
        Ok(())
    }

    fn advance_watermark(&mut self, event_time: u64) -> Vec<FinalizedBin> {
        self.watermark = self.watermark.max(event_time);
        let mut out = Vec::new();
        while out.len() < self.config.horizon_bins
            && (self.next_emit as u64 + 1) * self.config.bin_secs + self.config.allowed_lateness
                <= self.watermark
        {
            out.push(self.seal_next());
        }
        out
    }

    fn finish(mut self) -> Vec<FinalizedBin> {
        let mut out = Vec::new();
        while !self.open.is_empty() {
            out.push(self.seal_next());
        }
        out
    }

    fn seal_next(&mut self) -> FinalizedBin {
        let bin = self.next_emit;
        self.next_emit += 1;
        let summaries = match self.open.remove(&bin) {
            Some(row) => row.iter().map(BinAccumulator::summarize).collect(),
            None => vec![BinSummary::default(); self.config.n_flows],
        };
        FinalizedBin { bin, summaries }
    }
}

/// Splits `events` into one slice per watermark step: an even share
/// before each step, the remainder before the last.
fn slices<'a, T>(events: &'a [T], watermarks: &[u64]) -> Vec<&'a [T]> {
    let mut out = Vec::new();
    let mut remaining = events;
    for i in 0..watermarks.len() {
        let take = if i + 1 == watermarks.len() {
            remaining.len()
        } else {
            events.len() / watermarks.len()
        }
        .min(remaining.len());
        let (now, rest) = remaining.split_at(take);
        out.push(now);
        remaining = rest;
    }
    out
}

/// Drives the reference grid event by event with a watermark advance
/// after each slice, returning (sealed bins..., late count).
fn run_reference(
    config: &StreamConfig,
    events: &[(usize, PacketHeader)],
    watermarks: &[u64],
) -> (Vec<FinalizedBin>, u64) {
    let mut grid = ReferenceGrid::new(config);
    let mut out = Vec::new();
    for (now, &wm) in slices(events, watermarks).into_iter().zip(watermarks) {
        for (flow, pkt) in now {
            grid.offer_packet(*flow, pkt).expect("offer");
        }
        out.extend(grid.advance_watermark(wm));
    }
    let late = grid.late;
    out.extend(grid.finish());
    (out, late)
}

/// How [`run_builder`] offers each slice.
#[derive(Clone, Copy)]
enum Offer {
    /// One `offer_packet` per event.
    PerEvent,
    /// The slice as one `offer_packets` batch.
    Batch,
    /// The slice as one batch, deterministically shuffled first
    /// (combining must be order-blind).
    Shuffled(u64),
}

/// Drives the builder at `shards` shards with the same slicing as
/// [`run_reference`].
fn run_builder(
    config: &StreamConfig,
    shards: usize,
    events: &[(usize, PacketHeader)],
    watermarks: &[u64],
    offer: Offer,
) -> (Vec<FinalizedBin>, u64) {
    let mut b = StreamingGridBuilder::with_shards(config.clone(), shards).expect("builder");
    let mut out = Vec::new();
    for (i, (now, &wm)) in slices(events, watermarks)
        .into_iter()
        .zip(watermarks)
        .enumerate()
    {
        match offer {
            Offer::PerEvent => {
                for (flow, pkt) in now {
                    b.offer_packet(*flow, pkt).expect("offer");
                }
            }
            Offer::Batch => b.offer_packets(now).expect("offer batch"),
            Offer::Shuffled(seed) => {
                let mut batch = now.to_vec();
                let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
                for i in (1..batch.len()).rev() {
                    let j = rng.random_range(0..=i);
                    batch.swap(i, j);
                }
                b.offer_packets(&batch).expect("offer batch");
            }
        }
        out.extend(b.advance_watermark(wm));
    }
    let late = b.late_events();
    out.extend(b.finish());
    (out, late)
}

/// Bitwise comparison of two finalized sequences (`FinalizedBin` derives
/// `PartialEq`, and f64 equality here *is* the bit test we want).
fn assert_bit_identical(expected: &[FinalizedBin], got: &[FinalizedBin], label: &str) {
    assert_eq!(
        expected.len(),
        got.len(),
        "{label}: different number of sealed bins"
    );
    for (a, b) in expected.iter().zip(got) {
        assert_eq!(a.bin, b.bin, "{label}: bin order diverged");
        assert_eq!(a, b, "{label}: bin {} diverged", a.bin);
    }
}

/// The same traffic aggregated into flow records per `(bin, flow)` cell,
/// so record binning matches packet binning, as one batch.
fn record_batch(
    events: &[(usize, PacketHeader)],
    n_flows: usize,
    n_bins: usize,
) -> Vec<(usize, entromine_net::flow::FlowRecord)> {
    let mut batch = Vec::new();
    for bin in 0..n_bins {
        for flow in 0..n_flows {
            let cell: Vec<PacketHeader> = events
                .iter()
                .filter(|(f, p)| *f == flow && (p.timestamp / 300) as usize == bin)
                .map(|(_, p)| *p)
                .collect();
            for rec in aggregate_bin(&cell) {
                batch.push((flow, rec));
            }
        }
    }
    batch
}

#[test]
fn sharded_matches_serial_with_gaps_and_stragglers() {
    let n_flows = 23;
    let config = StreamConfig::new(n_flows);
    let events = traffic(42, n_flows, 12, 400, &[3, 4, 9], 25);
    let watermarks: Vec<u64> = (1..=13).map(|b| b * 300).collect();
    let (reference, reference_late) = run_reference(&config, &events, &watermarks);
    assert!(
        reference
            .iter()
            .any(|fb| fb.summaries.iter().all(|s| s.packets == 0)),
        "fixture must exercise gap bins"
    );
    assert!(reference_late > 0, "fixture must exercise late events");
    for shards in SHARD_COUNTS {
        for (label, offer) in [("per event", Offer::PerEvent), ("batch", Offer::Batch)] {
            let (got, late) = run_builder(&config, shards, &events, &watermarks, offer);
            assert_bit_identical(&reference, &got, &format!("{shards} shards ({label})"));
            assert_eq!(
                late, reference_late,
                "{shards} shards ({label}): late-event accounting"
            );
        }
    }
}

#[test]
fn sharded_matches_serial_under_lateness_slack() {
    let n_flows = 9;
    let config = StreamConfig::new(n_flows).with_lateness(120);
    let events = traffic(7, n_flows, 8, 200, &[], 10);
    let watermarks: Vec<u64> = (1..=9).map(|b| b * 300 + 60).collect();
    let (reference, reference_late) = run_reference(&config, &events, &watermarks);
    for shards in SHARD_COUNTS {
        for (label, offer) in [("per event", Offer::PerEvent), ("batch", Offer::Batch)] {
            let (got, late) = run_builder(&config, shards, &events, &watermarks, offer);
            assert_bit_identical(
                &reference,
                &got,
                &format!("{shards} shards (slack, {label})"),
            );
            assert_eq!(late, reference_late);
        }
    }
}

#[test]
fn flow_record_batches_match_serial_packet_feed() {
    // The same traffic offered as packets (reference) and as aggregated
    // flow-record batches (builder) must agree exactly: record
    // aggregation preserves per-cell counts, and counts are all the
    // summaries see.
    let n_flows = 11;
    let config = StreamConfig::new(n_flows);
    let events = traffic(99, n_flows, 6, 300, &[2], 0);
    let (reference_bins, _) = run_reference(&config, &events, &[0]);
    let batch = record_batch(&events, n_flows, 6);

    for shards in SHARD_COUNTS {
        let mut sharded = StreamingGridBuilder::with_shards(config.clone(), shards).unwrap();
        sharded.offer_flows(&batch).unwrap();
        let sharded_bins = sharded.finish();
        assert_eq!(reference_bins.len(), sharded_bins.len());
        for (a, b) in reference_bins.iter().zip(&sharded_bins) {
            assert_eq!(a.bin, b.bin);
            for (sa, sb) in a.summaries.iter().zip(&b.summaries) {
                assert_eq!(sa.packets, sb.packets);
                assert_eq!(sa.bytes, sb.bytes);
                for k in 0..4 {
                    assert!(
                        (sa.entropy[k] - sb.entropy[k]).abs() < 1e-12,
                        "entropy diverged at bin {} feature {k}",
                        a.bin
                    );
                }
            }
        }
    }
}

#[test]
fn combining_batch_matches_per_packet_offers() {
    // One shard, same events: the per-event reference vs the combining
    // batch path (in offer order and shuffled) with gap bins,
    // stragglers, and mid-stream watermarks.
    let n_flows = 17;
    let config = StreamConfig::new(n_flows);
    let events = traffic(1234, n_flows, 10, 350, &[2, 7], 30);
    let watermarks: Vec<u64> = (1..=11).map(|b| b * 300).collect();
    let (reference, reference_late) = run_reference(&config, &events, &watermarks);
    for (label, offer) in [
        ("offer order", Offer::Batch),
        ("shuffled", Offer::Shuffled(99)),
    ] {
        let (batched, late) = run_builder(&config, 1, &events, &watermarks, offer);
        assert_bit_identical(&reference, &batched, &format!("combining ({label})"));
        assert_eq!(late, reference_late, "late accounting ({label})");
    }
}

#[test]
fn combining_matches_per_packet_across_shards_with_late_and_gap_bins() {
    // The batch path *is* the combining path; pin it against the
    // per-event reference across every shard count on a fixture that
    // exercises late events and gap bins, with batches spanning several
    // bins (so the sort-and-group really reorders across cells).
    let n_flows = 23;
    let config = StreamConfig::new(n_flows).with_lateness(60);
    let events = traffic(77, n_flows, 9, 300, &[4], 20);
    // Coarse watermarks: every batch covers ~3 bins.
    let watermarks: Vec<u64> = (1..=3).map(|b| b * 1000).collect();
    let (reference, reference_late) = run_reference(&config, &events, &watermarks);
    assert!(reference_late > 0, "fixture must exercise late events");
    for shards in SHARD_COUNTS {
        let (sharded, late) = run_builder(&config, shards, &events, &watermarks, Offer::Batch);
        assert_bit_identical(&reference, &sharded, &format!("combining {shards} shards"));
        assert_eq!(late, reference_late);
    }
}

#[test]
fn combining_flow_record_batches_match_packet_offers() {
    // The NetFlow front door: the same traffic offered as aggregated flow
    // records through the combining path, at every shard count, must
    // match the per-event reference packet feed exactly (record
    // aggregation and run combining preserve per-cell counts, and counts
    // are all the summaries see).
    let n_flows = 13;
    let config = StreamConfig::new(n_flows);
    let events = traffic(555, n_flows, 5, 250, &[1], 0);
    let (reference_bins, _) = run_reference(&config, &events, &[0]);

    // One record batch covering the whole stream, aggregated per cell.
    let batch = record_batch(&events, n_flows, 5);
    for shards in SHARD_COUNTS {
        let mut sharded = StreamingGridBuilder::with_shards(config.clone(), shards).unwrap();
        sharded.offer_flows(&batch).unwrap();
        assert_bit_identical(
            &reference_bins,
            &sharded.finish(),
            &format!("{shards}-shard flow records"),
        );
    }
}

/// Per-bin batches shaped like a sampled, anonymized collector feed:
/// flow-major within each bin, addresses with their low 11 bits masked,
/// nearly every packet its own `(cell, tuple)` run, and stragglers for
/// the previous (sealed) bin interleaved every `straggle_every` events.
fn anonymized_flow_major_batches(
    seed: u64,
    n_flows: usize,
    n_bins: usize,
    per_flow: usize,
    straggle_every: usize,
) -> Vec<Vec<(usize, PacketHeader)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut anon = move || Ipv4(rng.random_range(1u32..1 << 21) << 11);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    (0..n_bins)
        .map(|bin| {
            let mut batch = Vec::new();
            for flow in 0..n_flows {
                for _ in 0..per_flow {
                    if bin > 0 && batch.len() % straggle_every == straggle_every - 1 {
                        let ts = (bin as u64 - 1) * 300 + rng.random_range(0..300);
                        let late = PacketHeader::tcp(anon(), 1024, anon(), 80, 40, ts);
                        batch.push((rng.random_range(0..n_flows), late));
                    }
                    let pkt = PacketHeader::tcp(
                        anon(),
                        rng.random_range(1024..65535),
                        anon(),
                        [80u16, 443, 53, 25][rng.random_range(0..4)],
                        40 + rng.random_range(0..1400),
                        bin as u64 * 300 + rng.random_range(0..300),
                    );
                    batch.push((flow, pkt));
                }
            }
            batch
        })
        .collect()
}

#[test]
fn combining_flow_major_anonymized_batches_match_per_packet_offers() {
    // Grouped batches below the combining ratio take the shard-group
    // walk: every group walks the whole batch in offer order and absorbs
    // only its own cells. Batches are large enough for the plane to fan
    // out on a multi-core host, so the spawned groups run too.
    let n_flows = 41;
    let config = StreamConfig::new(n_flows);
    let batches = anonymized_flow_major_batches(2024, n_flows, 4, 600, 97);
    let packets: usize = batches.iter().map(Vec::len).sum();
    assert!(packets > 4 * 24_000, "batches must be worth a fan-out");

    let mut reference = ReferenceGrid::new(&config);
    let mut expected = Vec::new();
    for (bin, batch) in batches.iter().enumerate() {
        for (flow, pkt) in batch {
            reference.offer_packet(*flow, pkt).unwrap();
        }
        expected.extend(reference.advance_watermark((bin as u64 + 1) * 300));
    }
    assert!(reference.late > 0, "fixture must exercise stragglers");
    assert_eq!(expected.len(), 4);
    for fb in &expected {
        let pkts: u64 = fb.summaries.iter().map(|s| s.packets).sum();
        assert!(pkts > 20_000, "bin {} must carry traffic", fb.bin);
    }

    for shards in SHARD_COUNTS {
        let mut sharded = StreamingGridBuilder::with_shards(config.clone(), shards).unwrap();
        let mut got = Vec::new();
        for (bin, batch) in batches.iter().enumerate() {
            sharded.offer_packets(batch).unwrap();
            got.extend(sharded.advance_watermark((bin as u64 + 1) * 300));
        }
        assert_bit_identical(&expected, &got, &format!("{shards} shards (anonymized)"));
        assert_eq!(sharded.late_events(), reference.late, "{shards} shards");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn combining_equals_per_packet_on_random_streams(
        seed in 0u64..10_000,
        n_flows in 1usize..40,
        n_bins in 2usize..9,
        per_bin in 1usize..120,
        gap in 0usize..8,
        stragglers in 0usize..12,
        shuffle_seed in 0u64..1000,
    ) {
        let config = StreamConfig::new(n_flows);
        let gaps = [gap % n_bins];
        let events = traffic(seed, n_flows, n_bins, per_bin, &gaps, stragglers);
        let watermarks: Vec<u64> = (1..=(n_bins as u64 + 1)).map(|b| b * 300).collect();
        let (reference, reference_late) = run_reference(&config, &events, &watermarks);
        let (batched, late) =
            run_builder(&config, 1, &events, &watermarks, Offer::Shuffled(shuffle_seed));
        assert_bit_identical(&reference, &batched, &format!("combining (seed {seed})"));
        prop_assert_eq!(late, reference_late);
    }

    #[test]
    fn sharded_equals_serial_on_random_streams(
        seed in 0u64..10_000,
        n_flows in 1usize..40,
        n_bins in 2usize..9,
        per_bin in 1usize..120,
        gap in 0usize..8,
        stragglers in 0usize..12,
        lateness_ix in 0usize..3,
    ) {
        let lateness = [0u64, 60, 299][lateness_ix];
        let config = StreamConfig::new(n_flows).with_lateness(lateness);
        let gaps = [gap % n_bins];
        let events = traffic(seed, n_flows, n_bins, per_bin, &gaps, stragglers);
        let watermarks: Vec<u64> = (1..=(n_bins as u64 + 1)).map(|b| b * 300).collect();
        let (reference, reference_late) = run_reference(&config, &events, &watermarks);
        for shards in SHARD_COUNTS {
            let (sharded, late) =
                run_builder(&config, shards, &events, &watermarks, Offer::Batch);
            assert_bit_identical(&reference, &sharded, &format!("{shards} shards (seed {seed})"));
            prop_assert_eq!(late, reference_late);
        }
    }
}

//! Streaming construction of the per-bin traffic grid: the ingest plane.
//!
//! The batch path ([`TensorBuilder`](crate::TensorBuilder)) assumes the
//! whole `t × p` grid of cell summaries exists before anything downstream
//! runs. An operator watching a live link has no such luxury: packets and
//! flow records arrive roughly in time order, and the grid must grow one
//! finalized bin at a time while memory stays bounded by the number of
//! bins still *open*, not by the length of the stream.
//!
//! [`StreamingGridBuilder`] is that ingest stage. It consumes time-ordered
//! (well, *mostly* time-ordered) packet and flow-record events, keeps a
//! [`BinAccumulator`] grid only for bins the event-time **watermark** has
//! not yet sealed, and emits a [`FinalizedBin`] — the per-flow volume and
//! 4-feature entropy row the detectors consume — as soon as the watermark
//! passes a bin's closing boundary plus the configured lateness slack.
//! Finalization collapses each cell's histograms into 48-byte summaries
//! and drops them, which is exactly the property that lets weeks of
//! network-wide data flow through a fixed-size working set.
//!
//! # Event time, watermarks, lateness
//!
//! * Every offered event carries its own timestamp (seconds from the
//!   measurement epoch); the builder never looks at a wall clock.
//! * The watermark only moves via [`advance_watermark`], monotonically.
//!   Callers that trust their source's ordering advance it with each
//!   event's timestamp; callers with out-of-order sources advance it on a
//!   schedule of their choosing.
//! * Bin `b` (covering `[b·bin_secs, (b+1)·bin_secs)`) is sealed once
//!   `watermark >= (b+1)·bin_secs + allowed_lateness`. Events for sealed
//!   bins are dropped and counted in [`late_events`], never silently.
//! * Bins the watermark skips over without any event finalize as all-zero
//!   rows — the same convention the batch builder uses for missing-data
//!   periods (the paper's Geant archive has them too).
//! * A sanity horizon ([`StreamConfig::horizon_bins`]) bounds how far past
//!   the present an event may land and how many gap bins one watermark
//!   advance emits, so a corrupt timestamp cannot blow the working set.
//!
//! # Shards
//!
//! The builder partitions the flow space into a fixed number of shards
//! (one by default; [`with_shards`] picks more). The shard rows, the
//! partition and the fan-out live in the crate-private `shard` module:
//!
//! * **Hash partitioning.** Each OD flow is assigned to one shard by a
//!   fixed multiplicative hash of its flow index. A shard owns the
//!   open-bin accumulators of exactly its own flows, so shards never
//!   share mutable state and need no locks.
//! * **One shape-probed walk per shard group.** A batch is validated once
//!   by `combine::validate_grouped`: one comparison-only pass that also
//!   reports whether cell ranks arrive grouped and how many
//!   `(cell, flow-key)` runs the batch holds. The shards are then split
//!   into groups, and every group walks the whole batch on the path the
//!   shape picks — per event when the packets-per-run ratio is below
//!   `COMBINE_MIN_RATIO`, the in-order run merge for grouped batches, a
//!   rank sort otherwise — absorbing only the cells its shards own. The
//!   calling thread runs the first group and each further group gets one
//!   scoped thread, sized by the worker discipline of
//!   [`entromine_linalg::par`]. One shard is one group: it runs inline
//!   and never spawns.
//! * **One coordinator.** The watermark, lateness slack, sanity horizon,
//!   and gap-bin rules live once, above the shards. When a bin seals,
//!   every shard summarizes its slice (in parallel when large enough) and
//!   the slices are scattered into the dense flow-ordered row.
//!
//! # Same bits at any shard count, batch shape, or offer order
//!
//! Each (flow, bin) cell's accumulator receives exactly the traffic
//! offered for it — a flow lives on one shard, and combining only
//! reorders and reweights updates, never moves them between cells.
//! Counts are exact integer sums, and entropy finalization is a pure
//! function of each histogram's count multiset (see
//! [`sample_entropy`](crate::sample_entropy)), so neither sharding, batch
//! segmentation, nor combining order can perturb a bit of the output.
//! `crates/entropy/tests/shard_equivalence.rs` pins every shard count
//! 1/2/7/16 against a per-event reference grid kept in the test file,
//! late events and gap bins included.
//!
//! # Per-event vs batch offers
//!
//! [`offer_packet`]/[`offer_flow`] absorb one event at a time and report a
//! bad event (unknown flow, corrupt far-future timestamp) at the offer
//! that carries it, with every prior event already absorbed.
//! [`offer_packets`]/[`offer_flows`] take a whole batch through the
//! map-side combining path (validate → sort-and-group by cell → merge
//! equal flow tuples → weighted `add_n`), which is the hot production
//! path. A batch is validated **atomically**: if any event is invalid the
//! whole batch is rejected before any accumulator is touched. Late
//! events are not errors on either path — they are dropped and counted.
//!
//! [`advance_watermark`]: StreamingGridBuilder::advance_watermark
//! [`late_events`]: StreamingGridBuilder::late_events
//! [`with_shards`]: StreamingGridBuilder::with_shards
//! [`offer_packet`]: StreamingGridBuilder::offer_packet
//! [`offer_flow`]: StreamingGridBuilder::offer_flow
//! [`offer_packets`]: StreamingGridBuilder::offer_packets
//! [`offer_flows`]: StreamingGridBuilder::offer_flows

use crate::accum::{BinAccumulator, BinSummary};
use crate::combine;
use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use crate::shard::{self, fan_out, Shard, ShardGroup, PACKET_WORK, SUMMARIZE_WORK};
use entromine_linalg::par;
use entromine_net::flow::FlowRecord;
use entromine_net::packet::PacketHeader;
use std::collections::BTreeMap;
use std::fmt;

/// Configuration of the streaming ingest stage.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of OD flows `p` in the grid (fixed for a deployment).
    pub n_flows: usize,
    /// Seconds per time bin (the paper uses 5-minute bins).
    pub bin_secs: u64,
    /// Extra event-time slack, in seconds, a bin stays open after its
    /// closing boundary. 0 means a bin seals the instant the watermark
    /// touches the next bin.
    pub allowed_lateness: u64,
    /// Sanity horizon, in bins: an event more than this far ahead of the
    /// next unemitted bin is rejected as corrupt rather than opened, and
    /// one watermark advance emits at most this many bins. Real feeds
    /// deliver events near the present; a garbage timestamp (a classic
    /// corrupted-capture value like `u64::MAX`) would otherwise open a
    /// bin ~6·10¹⁶ and force an unbounded gap-fill — this bound is what
    /// makes the "memory stays bounded by open bins" promise hold against
    /// hostile input. Default: one week of 5-minute bins.
    pub horizon_bins: usize,
}

impl StreamConfig {
    /// Paper-shaped defaults: 5-minute bins, no lateness slack, a one-week
    /// horizon.
    pub fn new(n_flows: usize) -> Self {
        StreamConfig {
            n_flows,
            bin_secs: 300,
            allowed_lateness: 0,
            horizon_bins: 2016,
        }
    }

    /// Sets the lateness slack.
    pub fn with_lateness(mut self, secs: u64) -> Self {
        self.allowed_lateness = secs;
        self
    }

    /// Sets the sanity horizon.
    pub fn with_horizon(mut self, bins: usize) -> Self {
        self.horizon_bins = bins;
        self
    }
}

/// Errors from the streaming ingest stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An event named a flow index outside the configured grid.
    FlowOutOfRange {
        /// The offending flow index.
        flow: usize,
        /// Number of flows the builder was configured with.
        n_flows: usize,
    },
    /// An event's timestamp lands implausibly far past the next unemitted
    /// bin — a corrupt capture, not a fast clock.
    BeyondHorizon {
        /// The bin the timestamp maps to.
        bin: usize,
        /// The first bin the builder considers implausible.
        horizon_end: usize,
    },
    /// The configuration is unusable (zero flows or zero-length bins).
    BadConfig(&'static str),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::FlowOutOfRange { flow, n_flows } => {
                write!(f, "flow index {flow} out of range for {n_flows} flows")
            }
            StreamError::BeyondHorizon { bin, horizon_end } => {
                write!(
                    f,
                    "event timestamp maps to bin {bin}, past the sanity horizon at bin \
                     {horizon_end} (corrupt timestamp?)"
                )
            }
            StreamError::BadConfig(what) => write!(f, "bad stream config: {what}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One sealed time bin: the per-flow summaries the detectors consume.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalizedBin {
    /// The time-bin index (`timestamp / bin_secs`).
    pub bin: usize,
    /// One summary per OD flow, dense in flow order. Flows with no
    /// traffic carry the all-zero summary.
    pub summaries: Vec<BinSummary>,
}

impl FinalizedBin {
    /// The raw unfolded entropy row of this bin, length `4p`, laid out
    /// exactly like [`EntropyTensor::unfolded_row`](crate::EntropyTensor::unfolded_row)
    /// (`[srcIP(all flows) | srcPort | dstIP | dstPort]`), written into a
    /// caller scratch buffer (cleared first) — the allocation-free form the
    /// per-bin scoring hot path uses.
    pub fn unfolded_entropy_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(4 * self.summaries.len());
        for k in 0..4 {
            out.extend(self.summaries.iter().map(|s| s.entropy[k]));
        }
    }

    /// Byte counts per flow (one row of the byte volume matrix), into a
    /// caller scratch buffer (cleared first).
    pub fn bytes_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.summaries.iter().map(|s| s.bytes as f64));
    }

    /// Packet counts per flow (one row of the packet volume matrix), into
    /// a caller scratch buffer (cleared first).
    pub fn packets_row_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.summaries.iter().map(|s| s.packets as f64));
    }
}

/// Streaming grid builder: hash-partitioned open-bin accumulators behind
/// one event-time watermark. See the [module docs](self) for the design.
///
/// ```
/// use entromine_entropy::stream::{StreamConfig, StreamingGridBuilder};
/// use entromine_net::{Ipv4, PacketHeader};
///
/// let mut b = StreamingGridBuilder::new(StreamConfig::new(2)).unwrap();
/// // Two packets in bin 0 (t < 300), on flows 0 and 1.
/// let p0 = PacketHeader::tcp(Ipv4(1), 10, Ipv4(2), 80, 100, 12);
/// let p1 = PacketHeader::tcp(Ipv4(3), 11, Ipv4(4), 443, 100, 290);
/// b.offer_packet(0, &p0).unwrap();
/// b.offer_packet(1, &p1).unwrap();
/// assert!(b.advance_watermark(290).is_empty(), "bin 0 still open");
/// // The watermark crossing t = 300 seals bin 0.
/// let sealed = b.advance_watermark(300);
/// assert_eq!(sealed.len(), 1);
/// assert_eq!(sealed[0].bin, 0);
/// assert_eq!(sealed[0].summaries[0].packets, 1);
///
/// // The same traffic as one batch on a 4-shard plane seals the same row.
/// let mut sharded = StreamingGridBuilder::with_shards(StreamConfig::new(2), 4).unwrap();
/// sharded.offer_packets(&[(0, p0), (1, p1)]).unwrap();
/// assert_eq!(sharded.advance_watermark(300), sealed);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingGridBuilder<D: DistributionAccumulator = FeatureHistogram> {
    config: StreamConfig,
    /// Store parameters applied to every cell this builder opens —
    /// `()` for the exact tier, the key budget for the sketched tier.
    params: D::Params,
    /// Flow → shard id.
    shard_ix: Vec<u32>,
    /// Flow → index within its shard's accumulator rows.
    local_ix: Vec<u32>,
    shards: Vec<Shard<D>>,
    /// Highest event time the caller has vouched for.
    watermark: u64,
    /// The next bin index to emit; every bin below it is sealed.
    next_emit: usize,
    /// Events dropped because their bin was already sealed.
    late_events: u64,
    /// Offers refused by the far-future horizon sanity bound (a refused
    /// batch counts once — nothing from it was absorbed).
    rejected_events: u64,
    /// Bins emitted so far.
    finalized_bins: u64,
}

impl StreamingGridBuilder {
    /// A one-shard builder with no open bins, starting at bin 0 with
    /// watermark 0.
    ///
    /// Implemented on the concrete exact-tier type (the default type
    /// parameter does not apply in expression position), so
    /// `StreamingGridBuilder::new(cfg)` infers the exact tier. Other
    /// tiers construct via [`with_params`](Self::with_params) or the
    /// [`AccumulatorPolicy`](crate::AccumulatorPolicy) facade.
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        Self::with_shards(config, 1)
    }

    /// An exact-tier builder whose flows are partitioned across `shards`
    /// shards.
    pub fn with_shards(config: StreamConfig, shards: usize) -> Result<Self, StreamError> {
        Self::with_params(config, shards, ())
    }
}

impl<D: DistributionAccumulator> StreamingGridBuilder<D> {
    /// A builder with `shards` shards whose cells are built from
    /// `params` — the tier-generic constructor behind [`new`] and
    /// [`with_shards`]. A shard count above the flow count is clamped to
    /// it (an empty shard would only cost a fan-out slot).
    ///
    /// # Errors
    ///
    /// [`StreamError::BadConfig`] for zero flows, zero-length bins, a
    /// zero sanity horizon, or zero shards.
    ///
    /// [`new`]: StreamingGridBuilder::new
    /// [`with_shards`]: StreamingGridBuilder::with_shards
    pub fn with_params(
        config: StreamConfig,
        shards: usize,
        params: D::Params,
    ) -> Result<Self, StreamError> {
        if config.n_flows == 0 {
            return Err(StreamError::BadConfig("grid needs at least one flow"));
        }
        if config.bin_secs == 0 {
            return Err(StreamError::BadConfig("bins must span at least 1 second"));
        }
        if config.horizon_bins == 0 {
            return Err(StreamError::BadConfig(
                "sanity horizon must allow at least 1 bin",
            ));
        }
        if shards == 0 {
            return Err(StreamError::BadConfig(
                "ingest plane needs at least 1 shard",
            ));
        }
        let (shard_ix, local_ix, shards) =
            shard::partition(config.n_flows, shards.min(config.n_flows), &params);
        Ok(StreamingGridBuilder {
            config,
            shard_ix,
            local_ix,
            shards,
            params,
            watermark: 0,
            next_emit: 0,
            late_events: 0,
            rejected_events: 0,
            finalized_bins: 0,
        })
    }

    /// Skips ahead so emission starts at `bin` (a monitor attached to a
    /// live feed mid-epoch has no business emitting the epoch's past).
    pub fn starting_at(mut self, bin: usize) -> Self {
        self.next_emit = self.next_emit.max(bin);
        self
    }

    /// The store parameters every cell is built from.
    pub fn params(&self) -> &D::Params {
        &self.params
    }

    /// Number of shards the flow space is partitioned into.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current event-time watermark, seconds.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Number of bins currently open on any shard (bounds the working
    /// set).
    pub fn open_bins(&self) -> usize {
        // A bin may be open on several shards; count it once.
        let mut bins: Vec<usize> = self
            .shards
            .iter()
            .flat_map(|s| s.open.keys().copied())
            .collect();
        bins.sort_unstable();
        bins.dedup();
        bins.len()
    }

    /// Events dropped because they arrived after their bin sealed.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Offers refused because an event's timestamp lay beyond the
    /// far-future horizon sanity bound ([`StreamError::BeyondHorizon`]).
    /// A refused batch counts once: batch validation is atomic, so
    /// nothing from it was absorbed. Lets an operator distinguish a
    /// clock-skewed exporter (this counter climbing) from plain late
    /// arrivals ([`late_events`](Self::late_events)).
    pub fn rejected_events(&self) -> u64 {
        self.rejected_events
    }

    /// Bins finalized so far.
    pub fn finalized_bins(&self) -> u64 {
        self.finalized_bins
    }

    /// The admission rules at the current emission frontier.
    fn admission(&self) -> combine::Admission {
        combine::Admission::at(&self.config, self.next_emit)
    }

    /// Counts an offer the far-future horizon refused.
    fn count_rejection(&mut self, e: &StreamError) {
        if matches!(e, StreamError::BeyondHorizon { .. }) {
            self.rejected_events += 1;
        }
    }

    /// Validates one event and borrows (opening if necessary) its cell on
    /// the owning shard; `None` means the event is late (and counted).
    fn admitted_cell(
        &mut self,
        flow: usize,
        timestamp: u64,
    ) -> Result<Option<&mut BinAccumulator<D>>, StreamError> {
        let Some(bin) = self
            .admission()
            .admit(flow, timestamp)
            .inspect_err(|e| self.count_rejection(e))?
        else {
            self.late_events += 1;
            return Ok(None);
        };
        let (s, l) = (self.shard_ix[flow] as usize, self.local_ix[flow] as usize);
        Ok(Some(self.shards[s].cell(bin, l)))
    }

    /// Offers one packet observed on `flow` at its header timestamp.
    ///
    /// Packets for sealed bins are dropped (counted in
    /// [`late_events`](Self::late_events)); everything else lands in its
    /// bin's accumulator, opening the bin if needed. Hot feeds should use
    /// [`offer_packets`](Self::offer_packets).
    pub fn offer_packet(&mut self, flow: usize, pkt: &PacketHeader) -> Result<(), StreamError> {
        if let Some(cell) = self.admitted_cell(flow, pkt.timestamp)? {
            cell.add_packet(pkt);
        }
        Ok(())
    }

    /// Offers one aggregated flow record, binned by its first-packet
    /// timestamp (how flow collectors export, and how the paper bins).
    pub fn offer_flow(&mut self, flow: usize, rec: &FlowRecord) -> Result<(), StreamError> {
        if let Some(cell) = self.admitted_cell(flow, rec.first)? {
            cell.add_flow(rec);
        }
        Ok(())
    }

    /// Offers a batch of packets through the map-side combining path.
    ///
    /// The batch is validated **atomically** (any invalid event rejects
    /// the whole batch before anything is absorbed; late events are
    /// dropped and counted), then pre-aggregated into `(bin, flow,
    /// flow-key)`-grouped weighted runs so each cell's histograms see
    /// four `add_n` probes per distinct flow per bin instead of four per
    /// packet, fanned out across the shards. The emitted
    /// [`FinalizedBin`] rows are bit-identical to offering every packet
    /// through [`offer_packet`](Self::offer_packet).
    pub fn offer_packets(&mut self, batch: &[(usize, PacketHeader)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Offers a batch of aggregated flow records (binned by first-packet
    /// timestamp) through the same combining path as
    /// [`offer_packets`](Self::offer_packets) — the NetFlow-shaped front
    /// door: records arriving pre-aggregated keep their weights and merge
    /// further whenever they share a bin, flow, and feature tuple.
    pub fn offer_flows(&mut self, batch: &[(usize, FlowRecord)]) -> Result<(), StreamError> {
        self.offer_batch(batch)
    }

    /// Shared batch path: one shape-probing validation pass, then one
    /// walk per shard group on the path the shape selects (see the
    /// [module docs](self) and the [`combine`] module for the engine).
    fn offer_batch<E: combine::IngestEvent + Sync>(
        &mut self,
        batch: &[(usize, E)],
    ) -> Result<(), StreamError> {
        let adm = self.admission();
        let shape =
            combine::validate_grouped(batch, &adm).inspect_err(|e| self.count_rejection(e))?;
        // The batch validated end to end: only now does any state change.
        self.late_events += shape.late;
        let workers = par::workers_for(batch.len().saturating_mul(PACKET_WORK));
        let groups = par::even_ranges(self.shards.len(), workers);
        let (shard_ix, local_ix) = (&self.shard_ix, &self.local_ix);
        fan_out(&mut self.shards, &groups, |first, shards| {
            let mut grid = ShardGroup {
                shards,
                first: first as u32,
                shard_ix,
                local_ix,
            };
            combine::accumulate(batch, &adm, &shape, &mut grid);
        });
        Ok(())
    }

    /// Bytes of heap currently owned by the distribution stores of every
    /// open cell — the working-set number the memory-tier benches record.
    /// The sketched tier keeps this under
    /// `4 · open_cells · heap_ceiling(budget)` no matter how many distinct
    /// keys the feed carries; the exact tier grows with the key space.
    pub fn accumulator_heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.open.values())
            .flat_map(|row| row.iter().map(BinAccumulator::heap_bytes))
            .sum()
    }

    /// Advances the event-time watermark to `event_time` (monotone: lower
    /// values are ignored) and returns every newly sealed bin, in time
    /// order.
    ///
    /// A bin seals when the watermark reaches its closing boundary plus
    /// the lateness slack. Skipped bins with no traffic are emitted as
    /// all-zero rows so the grid downstream stays dense and aligned — but
    /// never more than [`StreamConfig::horizon_bins`] of them per call, so
    /// a corrupt far-future timestamp cannot force an unbounded gap-fill
    /// (call again to drain further if the jump was genuine).
    pub fn advance_watermark(&mut self, event_time: u64) -> Vec<FinalizedBin> {
        self.watermark = self.watermark.max(event_time);
        let sealed_below = (self.watermark.saturating_sub(self.config.allowed_lateness)
            / self.config.bin_secs) as usize;
        let capped = sealed_below.min(self.next_emit.saturating_add(self.config.horizon_bins));
        self.emit_through(capped)
    }

    /// Seals and returns every bin still open on any shard (plus zero
    /// rows for gaps), regardless of the watermark — the end-of-stream
    /// flush.
    pub fn finish(mut self) -> Vec<FinalizedBin> {
        match self
            .shards
            .iter()
            .filter_map(|s| s.open.keys().next_back().copied())
            .max()
        {
            Some(last) => self.emit_through(last + 1),
            None => Vec::new(),
        }
    }

    /// Emits bins `next_emit..upto` in order: each shard summarizes its
    /// slice of every sealed bin (fanned out when the work justifies it),
    /// and the slices are scattered into dense flow-ordered rows.
    fn emit_through(&mut self, upto: usize) -> Vec<FinalizedBin> {
        if self.next_emit >= upto {
            return Vec::new();
        }
        let bins: Vec<usize> = (self.next_emit..upto).collect();

        // Per shard, the summarized slice of every sealed bin it opened.
        let summarize = |shard: &mut Shard<D>| -> Vec<(usize, Vec<BinSummary>)> {
            bins.iter()
                .filter_map(|&bin| shard.take_summaries(bin).map(|s| (bin, s)))
                .collect()
        };
        let open_cells: usize = self
            .shards
            .iter()
            .map(|s| {
                s.open
                    .range(..upto)
                    .map(|(_, row)| row.len())
                    .sum::<usize>()
            })
            .sum();
        let workers = par::workers_for(open_cells.saturating_mul(SUMMARIZE_WORK));
        let groups = par::even_ranges(self.shards.len(), workers);
        let slices: Vec<Vec<(usize, Vec<BinSummary>)>> =
            fan_out(&mut self.shards, &groups, |_, shards| {
                shards.iter_mut().map(summarize).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        // Scatter: dense zero rows, overwritten wherever a shard had
        // traffic. An untouched cell equals a fresh accumulator's
        // summary, so gap bins and quiet flows read as all-zero.
        let mut rows: BTreeMap<usize, Vec<BinSummary>> = BTreeMap::new();
        for (shard, slice) in self.shards.iter().zip(slices) {
            for (bin, summaries) in slice {
                let row = rows
                    .entry(bin)
                    .or_insert_with(|| vec![BinSummary::default(); self.config.n_flows]);
                for (&flow, summary) in shard.flows.iter().zip(summaries) {
                    row[flow] = summary;
                }
            }
        }
        let out: Vec<FinalizedBin> = bins
            .iter()
            .map(|&bin| FinalizedBin {
                bin,
                summaries: rows
                    .remove(&bin)
                    .unwrap_or_else(|| vec![BinSummary::default(); self.config.n_flows]),
            })
            .collect();
        self.finalized_bins += out.len() as u64;
        self.next_emit = upto;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::flow::aggregate_bin;
    use entromine_net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn builder(n_flows: usize) -> StreamingGridBuilder {
        StreamingGridBuilder::new(StreamConfig::new(n_flows)).unwrap()
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(StreamingGridBuilder::new(StreamConfig::new(0)).is_err());
        let mut cfg = StreamConfig::new(3);
        cfg.bin_secs = 0;
        assert!(StreamingGridBuilder::new(cfg).is_err());
    }

    #[test]
    fn flow_index_validated() {
        let mut b = builder(2);
        assert_eq!(
            b.offer_packet(2, &pkt(1, 80, 0)),
            Err(StreamError::FlowOutOfRange {
                flow: 2,
                n_flows: 2
            })
        );
    }

    #[test]
    fn watermark_seals_bins_in_order() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        b.offer_packet(0, &pkt(2, 80, 400)).unwrap();
        // Watermark inside bin 0: nothing seals.
        assert!(b.advance_watermark(299).is_empty());
        assert_eq!(b.open_bins(), 2);
        // Crossing into bin 1 seals bin 0 only.
        let sealed = b.advance_watermark(300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].bin, 0);
        assert_eq!(sealed[0].summaries[0].packets, 1);
        assert_eq!(b.open_bins(), 1);
        // Watermark never regresses.
        assert!(b.advance_watermark(100).is_empty());
        assert_eq!(b.watermark(), 300);
    }

    #[test]
    fn lateness_slack_keeps_bins_open() {
        let cfg = StreamConfig::new(1).with_lateness(60);
        let mut b = StreamingGridBuilder::new(cfg).unwrap();
        b.offer_packet(0, &pkt(1, 80, 100)).unwrap();
        // Watermark past the boundary but within slack: bin 0 still open,
        // and a straggler for bin 0 is accepted.
        assert!(b.advance_watermark(330).is_empty());
        b.offer_packet(0, &pkt(2, 80, 250)).unwrap();
        assert_eq!(b.late_events(), 0);
        // Past boundary + slack: sealed, straggler now dropped.
        let sealed = b.advance_watermark(360);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0].packets, 2);
        b.offer_packet(0, &pkt(3, 80, 299)).unwrap();
        assert_eq!(b.late_events(), 1);
    }

    #[test]
    fn late_events_do_not_alter_emitted_bins() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        let sealed = b.advance_watermark(600);
        assert_eq!(sealed.len(), 2, "bins 0 and 1 seal");
        // Straggler for bin 0: dropped, and nothing new is emitted for it.
        b.offer_packet(0, &pkt(9, 80, 5)).unwrap();
        assert!(b.advance_watermark(900).iter().all(|fb| fb.bin == 2));
        assert_eq!(b.late_events(), 1);
    }

    #[test]
    fn gap_bins_emit_zero_rows() {
        let mut b = builder(2);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        b.offer_packet(1, &pkt(2, 80, 1000)).unwrap(); // bin 3
        let sealed = b.advance_watermark(1200);
        let bins: Vec<usize> = sealed.iter().map(|fb| fb.bin).collect();
        assert_eq!(bins, vec![0, 1, 2, 3]);
        // Bins 1 and 2 are all-zero.
        for fb in &sealed[1..3] {
            assert!(fb.summaries.iter().all(|s| s.packets == 0));
        }
        assert_eq!(sealed[3].summaries[1].packets, 1);
    }

    #[test]
    fn finish_flushes_everything_open() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 50)).unwrap();
        b.offer_packet(0, &pkt(2, 80, 700)).unwrap(); // bin 2
        let sealed = b.finish();
        let bins: Vec<usize> = sealed.iter().map(|fb| fb.bin).collect();
        assert_eq!(bins, vec![0, 1, 2]);
        let empty = builder(1).finish();
        assert!(empty.is_empty());
    }

    #[test]
    fn starting_at_skips_history() {
        let mut b = builder(1).starting_at(5);
        // An event from the skipped past is late by definition.
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        assert_eq!(b.late_events(), 1);
        b.offer_packet(0, &pkt(2, 80, 5 * 300 + 10)).unwrap();
        let sealed = b.advance_watermark(6 * 300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].bin, 5);
    }

    #[test]
    fn corrupt_far_future_timestamp_rejected() {
        let mut b = builder(1);
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        // A classic corrupted-capture value must not open bin ~6e16.
        assert!(matches!(
            b.offer_packet(0, &pkt(2, 80, u64::MAX)),
            Err(StreamError::BeyondHorizon { .. })
        ));
        assert_eq!(b.rejected_events(), 1);
        // The batch path counts a refused batch once.
        assert!(b.offer_packets(&[(0, pkt(3, 80, u64::MAX))]).is_err());
        assert_eq!(b.rejected_events(), 2);
        // Within the horizon is fine.
        b.offer_packet(0, &pkt(3, 80, 2015 * 300)).unwrap();
        assert_eq!(b.open_bins(), 2);
        assert_eq!(b.rejected_events(), 2);
    }

    #[test]
    fn watermark_jump_emits_at_most_one_horizon_per_call() {
        let cfg = StreamConfig::new(1).with_horizon(10);
        let mut b = StreamingGridBuilder::new(cfg).unwrap();
        b.offer_packet(0, &pkt(1, 80, 0)).unwrap();
        // A garbage watermark cannot force an unbounded gap-fill ...
        let first = b.advance_watermark(u64::MAX);
        assert_eq!(first.len(), 10);
        // ... but repeated calls keep draining, horizon by horizon.
        let second = b.advance_watermark(0);
        assert_eq!(second.len(), 10);
        assert_eq!(second[0].bin, 10);
    }

    #[test]
    fn unfolded_row_layout_matches_tensor_convention() {
        let fb = FinalizedBin {
            bin: 0,
            summaries: vec![
                BinSummary {
                    packets: 1,
                    bytes: 10,
                    entropy: [1.0, 2.0, 3.0, 4.0],
                },
                BinSummary {
                    packets: 2,
                    bytes: 20,
                    entropy: [10.0, 20.0, 30.0, 40.0],
                },
            ],
        };
        // Stale scratch contents must be cleared, not appended to.
        let mut row = vec![-1.0; 3];
        fb.unfolded_entropy_row_into(&mut row);
        assert_eq!(row, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        fb.bytes_row_into(&mut row);
        assert_eq!(row, vec![10.0, 20.0]);
        fb.packets_row_into(&mut row);
        assert_eq!(row, vec![1.0, 2.0]);
    }

    #[test]
    fn batch_offers_match_per_packet_offers_exactly() {
        // The combining batch path must be invisible in the output: same
        // traffic via offer_packets (in shuffled order, so combining and
        // sorting really happen) finalizes bit-identically to per-packet
        // offers.
        let packets: Vec<(usize, PacketHeader)> = (0..600)
            .map(|i| {
                (
                    i % 3,
                    pkt(i as u32 % 11, [80u16, 443, 53][i % 3], (i as u64 * 7) % 900),
                )
            })
            .collect();
        let mut serial = builder(3);
        for (flow, p) in &packets {
            serial.offer_packet(*flow, p).unwrap();
        }
        let serial_bins = serial.finish();

        let mut shuffled = packets.clone();
        shuffled.reverse();
        let mut batched = builder(3);
        for chunk in shuffled.chunks(101) {
            batched.offer_packets(chunk).unwrap();
        }
        let batched_bins = batched.finish();
        assert_eq!(serial_bins, batched_bins);
    }

    #[test]
    fn flow_record_batches_match_packet_batches() {
        let packets: Vec<PacketHeader> = (0..120)
            .map(|i| pkt(i % 5, [80u16, 443][i as usize % 2], 40 + (i as u64) % 260))
            .collect();
        let mut by_packet = builder(1);
        by_packet
            .offer_packets(&packets.iter().map(|p| (0usize, *p)).collect::<Vec<_>>())
            .unwrap();
        let a = by_packet.finish();

        let records: Vec<(usize, FlowRecord)> = aggregate_bin(&packets)
            .into_iter()
            .map(|r| (0usize, r))
            .collect();
        let mut by_record = builder(1);
        by_record.offer_flows(&records).unwrap();
        let b = by_record.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_is_validated_atomically() {
        let mut b = builder(2);
        let batch = vec![(0usize, pkt(1, 80, 10)), (5, pkt(2, 80, 20))];
        assert_eq!(
            b.offer_packets(&batch),
            Err(StreamError::FlowOutOfRange {
                flow: 5,
                n_flows: 2
            })
        );
        // Nothing was absorbed: flushing yields no bins.
        assert!(b.finish().is_empty());
    }

    #[test]
    fn late_batch_events_counted_not_misfiled() {
        let mut b = builder(1);
        b.offer_packets(&[(0, pkt(1, 80, 10))]).unwrap();
        assert_eq!(b.advance_watermark(600).len(), 2);
        // Bin 0 is sealed; a batch straggler is dropped and counted.
        b.offer_packets(&[(0, pkt(2, 80, 5)), (0, pkt(3, 80, 700))])
            .unwrap();
        assert_eq!(b.late_events(), 1);
        let sealed = b.advance_watermark(900);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0].packets, 1);
    }

    #[test]
    fn streamed_summaries_equal_batch_accumulation() {
        // The same packets offered as a stream (packets and flow records
        // mixed) must finalize to exactly the batch accumulator's summary.
        let packets: Vec<PacketHeader> = (0..40)
            .map(|i| pkt(i % 7, [80u16, 443, 53][i as usize % 3], 40 + i as u64))
            .collect();
        let mut batch = BinAccumulator::new();
        batch.add_packets(&packets);

        let mut b = builder(1);
        for p in &packets[..20] {
            b.offer_packet(0, p).unwrap();
        }
        for rec in aggregate_bin(&packets[20..]) {
            b.offer_flow(0, &rec).unwrap();
        }
        let sealed = b.advance_watermark(300);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[0], batch.summarize());
    }
}

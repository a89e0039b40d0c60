//! Map-side combining: the batch-ingest engine behind
//! [`StreamingGridBuilder`](crate::StreamingGridBuilder)'s batch offers.
//!
//! A validated batch is reduced to `(cell, flow-key)`-grouped runs before
//! any accumulator is touched:
//!
//! 1. **Validate** every event against the grid (atomic batch error
//!    semantics; late events dropped and counted), assigning each
//!    survivor a *cell rank* — `(bin − next_emit) · n_flows + flow` — that
//!    totally orders cells by (bin, flow). Validation also probes
//!    the batch's [`BatchShape`]: whether it already arrives in rank
//!    order (how per-bin batches, flow-major replays, and NetFlow
//!    exports naturally do) and how many merged runs it would collapse
//!    to; its hot loop is comparison-only (no division, no allocation).
//!    Batches with too few packets per run for combining to pay off
//!    bail out to [`accumulate_per_event`], skipping steps 2–3;
//!    [`accumulate`] picks the path.
//! 2. **Sort and group.** Grouped batches take the in-order walk — one
//!    sequential pass, no index array, no sort. Everything else gets a
//!    `(rank, index)` key array and one `sort_unstable` on plain
//!    integers, paying `O(n log n)` once to buy perfect cell locality
//!    downstream; ties keep offer order, so packets of one flow burst
//!    stay adjacent either way.
//! 3. **Run-merge** within each cell: consecutive events sharing one
//!    feature tuple collapse into a single weighted run fed through
//!    [`BinAccumulator::absorb_run`]'s `add_n` path, so the histograms
//!    see four table probes per distinct flow per bin instead of four
//!    per packet — with the cell borrowed once per contiguous group and
//!    no allocation per packet.
//!
//! Every walk consults [`CellGrid::owns`] before opening a cell, so a
//! grid that owns only some flows (one shard group of the builder)
//! walks the whole batch and absorbs only its own events.
//!
//! Because entropy finalization is a pure function of each histogram's
//! count multiset (see [`crate::metrics`]), none of this reordering or
//! weighting is observable downstream: the combining paths emit
//! [`FinalizedBin`](crate::FinalizedBin) rows bit-identical to per-packet
//! offers, which `crates/entropy/tests/shard_equivalence.rs` pins against
//! a per-event reference grid at every shard count.

use crate::accum::BinAccumulator;
use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use crate::stream::{StreamConfig, StreamError};

/// The accumulation surface the combining engine drives: anything that
/// can lend out the accumulator of a `(bin, slot)` cell. The engine
/// borrows each cell once per contiguous cell group and feeds it merged
/// runs directly — no intermediate buffering. The grid is generic over
/// the distribution store, so one engine serves both the exact and the
/// sketched tier; the default keeps pre-trait implementors compiling
/// unchanged.
pub trait CellGrid<D: DistributionAccumulator = FeatureHistogram> {
    /// Borrows (opening if necessary) the accumulator for `slot` at
    /// `bin`. `slot` is the global flow index.
    fn cell(&mut self, bin: usize, slot: usize) -> &mut BinAccumulator<D>;

    /// Whether this grid absorbs `slot`'s events. The walks skip events
    /// of slots it does not own, which lets each shard group of the
    /// builder walk a whole batch and absorb only its own cells.
    #[inline]
    fn owns(&self, _slot: usize) -> bool {
        true
    }
}

/// The admission rules of the grid builder at one emission frontier:
/// the per-event offers and the batch validator both admit through
/// them, so one event is judged alike on either path.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub n_flows: usize,
    pub bin_secs: u64,
    pub next_emit: usize,
    pub horizon_bins: usize,
}

impl Admission {
    /// The rules of a builder with `config` whose next bin to emit is
    /// `next_emit`.
    pub fn at(config: &StreamConfig, next_emit: usize) -> Self {
        Admission {
            n_flows: config.n_flows,
            bin_secs: config.bin_secs,
            next_emit,
            horizon_bins: config.horizon_bins,
        }
    }

    /// Validates one event: `Ok(None)` means late (drop and count),
    /// `Ok(Some(bin))` admits it.
    #[inline]
    pub fn admit(&self, flow: usize, timestamp: u64) -> Result<Option<usize>, StreamError> {
        if flow >= self.n_flows {
            return Err(StreamError::FlowOutOfRange {
                flow,
                n_flows: self.n_flows,
            });
        }
        let bin = (timestamp / self.bin_secs) as usize;
        if bin < self.next_emit {
            return Ok(None);
        }
        let horizon_end = self.next_emit.saturating_add(self.horizon_bins);
        if bin >= horizon_end {
            return Err(StreamError::BeyondHorizon { bin, horizon_end });
        }
        Ok(Some(bin))
    }
}

/// An event the batch paths can ingest: anything that knows its event
/// time and reduces to a weighted feature tuple.
pub trait IngestEvent {
    /// The timestamp that bins this event.
    fn event_time(&self) -> u64;
    /// The four extracted feature values, `FEATURES` order.
    fn tuple(&self) -> [u32; 4];
    /// The packet weight this event carries.
    fn weight(&self) -> u64;
    /// The byte volume this event carries.
    fn bytes(&self) -> u64;
    /// Whether two events share one flow tuple (compared on the raw
    /// fields, so the hot merge loop never materializes tuples it will
    /// not keep).
    fn same_tuple(&self, other: &Self) -> bool;
}

impl IngestEvent for entromine_net::packet::PacketHeader {
    #[inline]
    fn event_time(&self) -> u64 {
        self.timestamp
    }

    #[inline]
    fn tuple(&self) -> [u32; 4] {
        [
            self.src_ip.0,
            self.src_port as u32,
            self.dst_ip.0,
            self.dst_port as u32,
        ]
    }

    #[inline]
    fn weight(&self) -> u64 {
        1
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes as u64
    }

    #[inline]
    fn same_tuple(&self, other: &Self) -> bool {
        self.src_ip == other.src_ip
            && self.src_port == other.src_port
            && self.dst_ip == other.dst_ip
            && self.dst_port == other.dst_port
    }
}

impl IngestEvent for entromine_net::flow::FlowRecord {
    /// Flow records bin by their first-packet timestamp (how collectors
    /// export, and how the paper bins).
    #[inline]
    fn event_time(&self) -> u64 {
        self.first
    }

    #[inline]
    fn tuple(&self) -> [u32; 4] {
        [
            self.key.src_ip.0,
            self.key.src_port as u32,
            self.key.dst_ip.0,
            self.key.dst_port as u32,
        ]
    }

    #[inline]
    fn weight(&self) -> u64 {
        self.packets
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The transport protocol is deliberately ignored: the accumulators
    /// never see it, so records differing only in protocol combine.
    #[inline]
    fn same_tuple(&self, other: &Self) -> bool {
        self.key.src_ip == other.key.src_ip
            && self.key.src_port == other.key.src_port
            && self.key.dst_ip == other.key.dst_ip
            && self.key.dst_port == other.key.dst_port
    }
}

/// The forward-order validation oracle: validates the whole batch
/// event by event, counts late events, and hands every admitted event's
/// `(batch index, flow, bin)` to `sink`. Returns the late-event count.
/// [`validate_grouped`] must surface the same first error.
#[cfg(test)]
pub(crate) fn validate_batch<E: IngestEvent>(
    batch: &[(usize, E)],
    adm: &Admission,
    mut sink: impl FnMut(u32, usize, usize),
) -> Result<u64, StreamError> {
    let mut late = 0u64;
    for (i, &(flow, ref ev)) in batch.iter().enumerate() {
        match adm.admit(flow, ev.event_time())? {
            None => late += 1,
            Some(bin) => sink(i as u32, flow, bin),
        }
    }
    Ok(late)
}

/// Packets-per-run below which the run-merge machinery (per-event tuple
/// comparisons, run bookkeeping, and — on ungrouped batches — the rank
/// sort) costs more than its `add_n` batching saves. On a feed with no
/// duplicate `(cell, tuple)` adjacency the combining path measured 0.97×
/// against plain per-event accumulation, while at ~8 packets per run it
/// measured ~2×; the crossover sits just above 1, and this threshold
/// keeps a safety margin so [`BatchShape::combining_profitable`] only
/// engages combining where it genuinely wins.
pub const COMBINE_MIN_RATIO: f64 = 1.25;

/// What [`validate_grouped`] learned about a batch while validating it:
/// admission counts plus the shape signals that pick the cheapest
/// accumulation path.
#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    /// Late events (sealed bins) — dropped and counted, never absorbed.
    pub late: u64,
    /// Whether the admitted events' cell ranks arrive non-decreasing
    /// (per-bin batches, flow-major replays, NetFlow exports).
    pub grouped: bool,
    /// Admitted (non-late) events.
    pub admitted: u64,
    /// Maximal groups of consecutive admitted events sharing one cell
    /// *and* one feature tuple — exactly the weighted runs the merge
    /// engine would absorb. For ungrouped batches this over-counts what
    /// the sort path could still merge, making the profitability test
    /// conservative: a bail-out can only route to a path that is never
    /// slower than per-event accumulation.
    pub runs: u64,
}

impl BatchShape {
    /// Whether the run-merge machinery pays for itself on this batch:
    /// the packets-per-run ratio clears [`COMBINE_MIN_RATIO`]. When it
    /// does not, [`accumulate_per_event`] skips the merge bookkeeping
    /// (and, for ungrouped batches, the sort) entirely.
    pub fn combining_profitable(&self) -> bool {
        self.admitted as f64 >= self.runs as f64 * COMBINE_MIN_RATIO
    }
}

/// Validation pre-pass for the grid builder's batch offers: atomic batch
/// validation plus the batch-shape probe — whether the admitted events'
/// cell ranks arrive non-decreasing (how per-bin batches, flow-major
/// replays, and NetFlow exports naturally arrive), and how many merged
/// runs the batch would reduce to. Grouped batches with enough packets
/// per run take [`accumulate_in_order`], which needs no index array and
/// no sort; ungrouped ones fall back to [`accumulate_grouped`]; and
/// batches whose packets-per-run ratio is too low for either to win take
/// [`accumulate_per_event`]. [`accumulate`] makes that choice.
///
/// Lateness and horizon checks run as plain timestamp comparisons
/// against precomputed bin boundaries (`bin < b` ⟺ `ts < b·bin_secs` for
/// integer division), so the hot loop performs no division; the bin
/// index is derived once per cell change, not once per event.
pub fn validate_grouped<E: IngestEvent>(
    batch: &[(usize, E)],
    adm: &Admission,
) -> Result<BatchShape, StreamError> {
    let n_flows = adm.n_flows;
    let bin_secs = adm.bin_secs as u128;
    let late_below = adm.next_emit as u128 * bin_secs;
    let horizon_end = adm.next_emit.saturating_add(adm.horizon_bins);
    let horizon_ts = horizon_end as u128 * bin_secs;
    let mut late = 0u64;
    let mut admitted = 0u64;
    let mut runs = 0u64;
    let mut grouped = true;
    let mut last_rank = u64::MAX;
    // Current-cell bounds: events inside them need no division and no
    // rank update. `prev` is the previously walked admitted event — runs
    // are maximal same-cell-same-tuple segments, and segment counts are
    // direction-independent, so the backward walk counts exactly what
    // the forward merge pass would absorb.
    let mut cur_flow = usize::MAX;
    let mut cur_lo = u64::MAX;
    let mut cur_hi = 0u64;
    let mut prev: Option<&E> = None;
    // Walked back to front: validation is order-independent (forward
    // non-decreasing ranks ⟺ backward non-increasing), and ending at the
    // batch's head leaves exactly the memory the accumulation pass reads
    // first sitting warm in the cache. Errors keep scanning instead of
    // returning, so the error that surfaces is the first one in *offer*
    // order — matching [`validate_batch`]'s forward walk exactly.
    let mut error = None;
    for &(flow, ref ev) in batch.iter().rev() {
        if flow >= n_flows {
            error = Some(StreamError::FlowOutOfRange { flow, n_flows });
            continue;
        }
        let ts = ev.event_time();
        if (ts as u128) >= horizon_ts {
            error = Some(StreamError::BeyondHorizon {
                bin: (ts / adm.bin_secs) as usize,
                horizon_end,
            });
            continue;
        }
        if (ts as u128) < late_below {
            late += 1;
            continue;
        }
        admitted += 1;
        if flow == cur_flow && ts >= cur_lo && ts < cur_hi {
            if !prev.is_some_and(|p| ev.same_tuple(p)) {
                runs += 1;
            }
            prev = Some(ev);
            continue;
        }
        runs += 1;
        prev = Some(ev);
        let bin = (ts / adm.bin_secs) as usize;
        cur_flow = flow;
        cur_lo = bin as u64 * adm.bin_secs;
        cur_hi = cur_lo.saturating_add(adm.bin_secs);
        let rank = ((bin - adm.next_emit) * n_flows + flow) as u64;
        grouped &= rank <= last_rank;
        last_rank = rank;
    }
    match error {
        Some(e) => Err(e),
        None => Ok(BatchShape {
            late,
            grouped,
            admitted,
            runs,
        }),
    }
}

/// Absorbs a batch that [`validate_grouped`] accepted into `grid` on the
/// cheapest path its shape allows: per event when combining does not pay
/// ([`BatchShape::combining_profitable`]), the in-order walk when ranks
/// arrive grouped, and the rank sort otherwise. Ranks use the global
/// flow as slot, with stride `adm.n_flows`. Every path builds the same
/// count multisets, so the choice is unobservable downstream.
pub(crate) fn accumulate<E: IngestEvent, D: DistributionAccumulator>(
    batch: &[(usize, E)],
    adm: &Admission,
    shape: &BatchShape,
    grid: &mut impl CellGrid<D>,
) {
    if !shape.combining_profitable() {
        accumulate_per_event(batch, adm, grid);
    } else if shape.grouped {
        accumulate_in_order(batch, adm, grid);
    } else {
        let mut keys = rank_keys(batch, adm, grid);
        accumulate_grouped(batch, &mut keys, adm, grid);
    }
}

/// Accumulates a *validated, grouped* batch in one sequential pass: no
/// index array, no sort — the fast path for feeds that already arrive
/// cell-grouped. Late events are skipped in stride (they were counted
/// during validation). Each cell's accumulator is borrowed once from the
/// grid and fed its merged runs directly. Like the validator, the walk
/// divides once per cell change, never per event.
///
/// Callers must have established via [`validate_grouped`] that admitted
/// cell ranks are non-decreasing; runs of one cell are then contiguous
/// (up to interleaved late events), so adjacent-merge is complete.
pub fn accumulate_in_order<E: IngestEvent, D: DistributionAccumulator>(
    batch: &[(usize, E)],
    adm: &Admission,
    grid: &mut impl CellGrid<D>,
) {
    let late_below = adm.next_emit as u128 * adm.bin_secs as u128;
    let len = batch.len();
    let mut i = 0;
    while i < len {
        let (flow, ref ev) = batch[i];
        let ts = ev.event_time();
        if (ts as u128) < late_below || !grid.owns(flow) {
            i += 1;
            continue;
        }
        // Open a cell: one division, then bounds comparisons only.
        let bin = (ts / adm.bin_secs) as usize;
        let lo = bin as u64 * adm.bin_secs;
        let hi = lo.saturating_add(adm.bin_secs);
        let acc = grid.cell(bin, flow);
        'cell: loop {
            // Start a run at event i (known to belong to this cell).
            let first = &batch[i].1;
            let mut weight = first.weight();
            let mut bytes = first.bytes();
            i += 1;
            let same_cell = loop {
                if i >= len {
                    break false;
                }
                let (next_flow, ref next) = batch[i];
                let nts = next.event_time();
                if (nts as u128) < late_below {
                    i += 1;
                    continue;
                }
                if next_flow != flow || nts < lo || nts >= hi {
                    break false;
                }
                if !next.same_tuple(first) {
                    break true;
                }
                weight += next.weight();
                bytes += next.bytes();
                i += 1;
            };
            acc.absorb_run(first.tuple(), weight, bytes);
            if !same_cell {
                break 'cell;
            }
        }
    }
}

/// Accumulates a *validated* batch one event at a time, in offer order:
/// the bail-out path for batches whose packets-per-run ratio is too low
/// for run merging (or sorting) to pay for itself — see
/// [`BatchShape::combining_profitable`]. No tuple comparisons, no run
/// bookkeeping, no index array; each cell is still borrowed once per
/// contiguous same-cell stretch, and late events are skipped in stride.
///
/// Works on *any* event order, grouped or not: entropy finalization is a
/// pure function of each histogram's count multiset, so per-event
/// absorption commutes and the emitted bins stay bit-identical to every
/// other path.
pub fn accumulate_per_event<E: IngestEvent, D: DistributionAccumulator>(
    batch: &[(usize, E)],
    adm: &Admission,
    grid: &mut impl CellGrid<D>,
) {
    let late_below = adm.next_emit as u128 * adm.bin_secs as u128;
    let len = batch.len();
    let mut i = 0;
    while i < len {
        let (flow, ref ev) = batch[i];
        let ts = ev.event_time();
        if (ts as u128) < late_below || !grid.owns(flow) {
            i += 1;
            continue;
        }
        // Open a cell: one division, then bounds comparisons only.
        let bin = (ts / adm.bin_secs) as usize;
        let lo = bin as u64 * adm.bin_secs;
        let hi = lo.saturating_add(adm.bin_secs);
        let acc = grid.cell(bin, flow);
        acc.absorb_run(ev.tuple(), ev.weight(), ev.bytes());
        i += 1;
        while i < len {
            let (next_flow, ref next) = batch[i];
            let nts = next.event_time();
            if (nts as u128) < late_below {
                i += 1;
                continue;
            }
            if next_flow != flow || nts < lo || nts >= hi {
                break;
            }
            acc.absorb_run(next.tuple(), next.weight(), next.bytes());
            i += 1;
        }
    }
}

/// Builds the `(rank, index)` key array for an already-validated batch
/// (the ungrouped fall-back): one cheap sweep, no error paths, late
/// events and events of slots `grid` does not own skipped.
pub(crate) fn rank_keys<E: IngestEvent, D: DistributionAccumulator>(
    batch: &[(usize, E)],
    adm: &Admission,
    grid: &impl CellGrid<D>,
) -> Vec<(u64, u32)> {
    let mut keys = Vec::with_capacity(batch.len());
    for (i, &(flow, ref ev)) in batch.iter().enumerate() {
        let bin = (ev.event_time() / adm.bin_secs) as usize;
        if bin < adm.next_emit || !grid.owns(flow) {
            continue;
        }
        keys.push((
            ((bin - adm.next_emit) * adm.n_flows + flow) as u64,
            i as u32,
        ));
    }
    keys
}

/// Sorts `(rank, index)` keys, combines each cell's events into weighted
/// runs, and feeds them to the grid cell by cell, where
/// `rank = (bin − next_emit) · n_flows + flow` — the general-order path
/// behind [`accumulate_in_order`]'s fast path.
pub(crate) fn accumulate_grouped<E: IngestEvent, D: DistributionAccumulator>(
    batch: &[(usize, E)],
    keys: &mut [(u64, u32)],
    adm: &Admission,
    grid: &mut impl CellGrid<D>,
) {
    keys.sort_unstable();
    let mut k = 0;
    while k < keys.len() {
        let rank = keys[k].0;
        let mut end = k + 1;
        while end < keys.len() && keys[end].0 == rank {
            end += 1;
        }
        let bin = adm.next_emit + rank as usize / adm.n_flows;
        let slot = rank as usize % adm.n_flows;
        let acc = grid.cell(bin, slot);
        let mut i = k;
        while i < end {
            let first = &batch[keys[i].1 as usize].1;
            let mut weight = first.weight();
            let mut bytes = first.bytes();
            i += 1;
            while i < end {
                let next = &batch[keys[i].1 as usize].1;
                if !next.same_tuple(first) {
                    break;
                }
                weight += next.weight();
                bytes += next.bytes();
                i += 1;
            }
            acc.absorb_run(first.tuple(), weight, bytes);
        }
        k = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entromine_net::{Ipv4, PacketHeader};

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn adm() -> Admission {
        Admission {
            n_flows: 4,
            bin_secs: 300,
            next_emit: 0,
            horizon_bins: 2016,
        }
    }

    #[test]
    fn admission_matches_builder_rules() {
        let a = adm();
        assert!(matches!(a.admit(0, 10), Ok(Some(0))));
        assert!(matches!(a.admit(3, 700), Ok(Some(2))));
        assert!(matches!(
            a.admit(4, 0),
            Err(StreamError::FlowOutOfRange { .. })
        ));
        assert!(matches!(
            a.admit(0, u64::MAX),
            Err(StreamError::BeyondHorizon { .. })
        ));
        let later = Admission {
            next_emit: 2,
            ..adm()
        };
        assert!(matches!(later.admit(0, 10), Ok(None)), "sealed bin is late");
    }

    #[test]
    fn grouped_runs_combine_equal_tuples() {
        // Interleaved cells and duplicate tuples: runs must come back
        // grouped per cell with duplicates combined.
        let batch = vec![
            (0usize, pkt(1, 80, 10)),
            (1, pkt(2, 80, 20)),
            (0, pkt(1, 80, 30)),
            (0, pkt(5, 443, 40)),
            (1, pkt(2, 80, 350)), // bin 1
        ];
        let a = adm();
        let mut keys = Vec::new();
        let late = validate_batch(&batch, &a, |idx, flow, bin| {
            keys.push((((bin * a.n_flows) + flow) as u64, idx));
        })
        .unwrap();
        assert_eq!(late, 0);
        let mut grid = MapGrid::default();
        accumulate_grouped(&batch, &mut keys, &a, &mut grid);
        assert_eq!(grid.cells.len(), 3);
        // (bin 0, flow 0): two packets of tuple (1, 1024, 9, 80) combined
        // plus one of (5, ..., 443).
        let acc = &grid.cells[&(0, 0)];
        assert_eq!(acc.packets(), 3);
        assert_eq!(acc.bytes(), 300);
        assert_eq!(acc.histogram(crate::Feature::SrcIp).count(1), 2);
        assert_eq!(acc.histogram(crate::Feature::SrcIp).count(5), 1);
        assert_eq!(grid.cells[&(0, 1)].packets(), 1);
        assert_eq!(grid.cells[&(1, 1)].packets(), 1);
    }

    #[test]
    fn validation_error_matches_forward_order() {
        // Two different errors in one batch: both validators must
        // surface the earliest one in offer order, even though the
        // grouped validator walks back to front.
        let batch = vec![(9usize, pkt(1, 80, 10)), (0, pkt(2, 80, u64::MAX))];
        let a = adm();
        let fwd = validate_batch(&batch, &a, |_, _, _| {}).unwrap_err();
        let rev = validate_grouped(&batch, &a).unwrap_err();
        assert_eq!(fwd, rev);
        assert!(matches!(fwd, StreamError::FlowOutOfRange { flow: 9, .. }));
    }

    #[test]
    fn batch_shape_counts_runs_and_flags_low_ratio_feeds() {
        let a = adm();
        // Every admitted event is its own run: 4 distinct tuples across
        // 2 cells → ratio 1, combining not profitable.
        let singles = vec![
            (0usize, pkt(1, 80, 10)),
            (0, pkt(2, 80, 20)),
            (1, pkt(3, 80, 30)),
            (1, pkt(4, 443, 40)),
        ];
        let shape = validate_grouped(&singles, &a).unwrap();
        assert_eq!((shape.admitted, shape.runs), (4, 4));
        assert!(shape.grouped);
        assert!(!shape.combining_profitable());
        // Bursty feed: 6 packets collapse to 2 runs (ratio 3) — and a
        // late event interleaved inside a run must not split it.
        let later = Admission {
            next_emit: 1,
            ..adm()
        };
        let bursts = vec![
            (0usize, pkt(1, 80, 310)),
            (0, pkt(1, 80, 315)),
            (0, pkt(9, 80, 20)), // late: bin 0 is sealed
            (0, pkt(1, 80, 320)),
            (2, pkt(7, 443, 350)),
            (2, pkt(7, 443, 355)),
            (2, pkt(7, 443, 360)),
        ];
        let shape = validate_grouped(&bursts, &later).unwrap();
        assert_eq!(shape.late, 1);
        assert_eq!((shape.admitted, shape.runs), (6, 2));
        assert!(shape.combining_profitable());
    }

    #[test]
    fn per_event_path_builds_identical_cells() {
        // Ungrouped, ratio-1 feed: the bail-out path must produce cells
        // bit-identical to the sort-based combining path.
        let a = adm();
        let batch = vec![
            (2usize, pkt(1, 80, 310)),
            (0, pkt(2, 80, 10)),
            (3, pkt(3, 443, 650)),
            (1, pkt(4, 80, 20)),
            (2, pkt(5, 80, 30)),
        ];
        let shape = validate_grouped(&batch, &a).unwrap();
        assert!(!shape.grouped);
        assert!(!shape.combining_profitable());
        let mut per_event = MapGrid::default();
        accumulate_per_event(&batch, &a, &mut per_event);
        let mut keys = rank_keys(&batch, &a, &MapGrid::default());
        let mut sorted = MapGrid::default();
        accumulate_grouped(&batch, &mut keys, &a, &mut sorted);
        assert_eq!(per_event.cells.len(), sorted.cells.len());
        for (k, acc) in &per_event.cells {
            assert_eq!(acc.summarize(), sorted.cells[k].summarize(), "cell {k:?}");
        }
    }

    #[test]
    fn in_order_matches_sorted_path() {
        // Grouped input incl. interleaved late events: the in-order walk
        // and the sort-based walk must build identical cells.
        let a = Admission {
            next_emit: 1,
            ..adm()
        };
        let batch = vec![
            (2usize, pkt(1, 80, 310)),
            (2, pkt(1, 80, 315)),
            (0, pkt(9, 80, 20)), // late (bin 0 sealed)
            (2, pkt(3, 443, 320)),
            (3, pkt(4, 80, 350)),
            (3, pkt(4, 80, 650)), // bin 2
        ];
        let shape = validate_grouped(&batch, &a).unwrap();
        assert_eq!(shape.late, 1);
        assert!(shape.grouped);
        let mut in_order = MapGrid::default();
        accumulate_in_order(&batch, &a, &mut in_order);
        let mut keys = rank_keys(&batch, &a, &MapGrid::default());
        let mut sorted = MapGrid::default();
        accumulate_grouped(&batch, &mut keys, &a, &mut sorted);
        assert_eq!(in_order.cells.len(), sorted.cells.len());
        for (k, acc) in &in_order.cells {
            let other = &sorted.cells[k];
            assert_eq!(acc.summarize(), other.summarize(), "cell {k:?}");
        }
        // The combined runs really combined: cell (1, 2) saw tuple
        // (1, 1024, 9, 80) twice.
        assert_eq!(
            in_order.cells[&(1, 2)]
                .histogram(crate::Feature::SrcIp)
                .count(1),
            2
        );
    }

    /// A trivially inspectable grid for engine tests.
    #[derive(Default)]
    struct MapGrid {
        cells: std::collections::BTreeMap<(usize, usize), crate::accum::BinAccumulator>,
    }

    impl CellGrid for MapGrid {
        fn cell(&mut self, bin: usize, slot: usize) -> &mut crate::accum::BinAccumulator {
            self.cells.entry((bin, slot)).or_default()
        }
    }
}

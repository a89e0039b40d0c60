//! The shard layer under [`StreamingGridBuilder`](crate::StreamingGridBuilder):
//! how the flow space is partitioned, the per-shard open-bin rows, the
//! [`combine::CellGrid`] view a group of shards presents to a batch walk,
//! and the scoped-thread fan-out over shard groups. The watermark,
//! admission and seal rules live once, in [`stream`](crate::stream); this
//! module only decides which shard owns which cell and runs work per
//! group. See the [`stream`](crate::stream) module docs for the design.

use crate::accum::{BinAccumulator, BinSummary};
use crate::combine;
use crate::dist::DistributionAccumulator;
use crate::hist::FeatureHistogram;
use std::collections::BTreeMap;
use std::ops::Range;

/// Fixed multiplicative (Fibonacci) hash assigning a flow to a shard.
///
/// The constant is `2^64 / φ`; the high bits of the product are well
/// mixed, so consecutive flow indices spread evenly across shards instead
/// of striding.
fn shard_of(flow: usize, shards: usize) -> usize {
    (((flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards
}

/// The flow → shard map of a plane: per flow its shard id and its index
/// within that shard's rows (the `shard_ix`/`local_ix` a [`ShardGroup`]
/// reads), and the empty shards themselves, each building its cells from
/// `params`. `shards` must lie in `1..=n_flows`.
pub(crate) fn partition<D: DistributionAccumulator>(
    n_flows: usize,
    shards: usize,
    params: &D::Params,
) -> (Vec<u32>, Vec<u32>, Vec<Shard<D>>) {
    let mut shard_ix = vec![0u32; n_flows];
    let mut local_ix = vec![0u32; n_flows];
    let mut owned: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for flow in 0..n_flows {
        let s = shard_of(flow, shards);
        shard_ix[flow] = s as u32;
        local_ix[flow] = owned[s].len() as u32;
        owned[s].push(flow);
    }
    let shards = owned
        .into_iter()
        .map(|flows| Shard {
            size_hints: vec![[0u32; 4]; flows.len()],
            flows,
            open: BTreeMap::new(),
            params: params.clone(),
        })
        .collect();
    (shard_ix, local_ix, shards)
}

/// Rough per-packet accumulation cost in the flop-equivalent units
/// [`par::workers_for`](entromine_linalg::par::workers_for) expects (four histogram updates dominate).
pub(crate) const PACKET_WORK: usize = 400;

/// Rough per-cell finalization cost (four entropy reductions) in the same
/// units.
pub(crate) const SUMMARIZE_WORK: usize = 600;

/// One shard of the ingest plane: the open-bin accumulators of the flows
/// it owns, stored at shard-local indices.
#[derive(Debug, Clone)]
pub(crate) struct Shard<D: DistributionAccumulator = FeatureHistogram> {
    /// Global flow ids owned by this shard, ascending. `flows[local] =
    /// global`.
    pub(crate) flows: Vec<usize>,
    /// Open bins, keyed by bin index; each row holds one accumulator per
    /// owned flow, in `flows` order. A `BTreeMap` keeps drain order =
    /// time order for free.
    pub(crate) open: BTreeMap<usize, Vec<BinAccumulator<D>>>,
    /// Per owned flow, the per-feature distinct counts of its last
    /// finalized bin with traffic — sizing hints for fresh accumulators.
    size_hints: Vec<[u32; 4]>,
    /// Store parameters for every cell this shard opens.
    params: D::Params,
}

impl<D: DistributionAccumulator> Shard<D> {
    /// Borrows (opening if necessary) the local accumulator for `local`
    /// flow index at `bin`. Fresh rows are pre-sized from the hints — the
    /// last observed cardinality itself, which the table sizes to double —
    /// so a steady feed never rehashes mid-bin.
    pub(crate) fn cell(&mut self, bin: usize, local: usize) -> &mut BinAccumulator<D> {
        let hints = &self.size_hints;
        let params = &self.params;
        &mut self.open.entry(bin).or_insert_with(|| {
            hints
                .iter()
                .map(|h| BinAccumulator::with_size_hints_in(h.map(|h| h as usize), params))
                .collect()
        })[local]
    }

    /// Removes and summarizes this shard's slice of `bin`, if any traffic
    /// opened it, feeding the observed cardinalities back as hints
    /// (flows that saw no traffic this bin keep their previous hints — a
    /// flow's cardinality profile outlives a quiet bin).
    pub(crate) fn take_summaries(&mut self, bin: usize) -> Option<Vec<BinSummary>> {
        self.open.remove(&bin).map(|row| {
            for (hint, acc) in self.size_hints.iter_mut().zip(&row) {
                if acc.packets() > 0 {
                    let d = acc.size_hints();
                    *hint = [d[0] as u32, d[1] as u32, d[2] as u32, d[3] as u32];
                }
            }
            row.iter().map(BinAccumulator::summarize).collect()
        })
    }
}

/// A run of consecutive shards viewed as one [`combine::CellGrid`] over
/// global flow indices: it owns exactly the flows of its shards, so a
/// walk over the whole batch absorbs only this group's cells.
pub(crate) struct ShardGroup<'a, D: DistributionAccumulator> {
    pub(crate) shards: &'a mut [Shard<D>],
    /// Global id of `shards[0]`.
    pub(crate) first: u32,
    pub(crate) shard_ix: &'a [u32],
    pub(crate) local_ix: &'a [u32],
}

impl<D: DistributionAccumulator> combine::CellGrid<D> for ShardGroup<'_, D> {
    fn cell(&mut self, bin: usize, flow: usize) -> &mut BinAccumulator<D> {
        let s = (self.shard_ix[flow] - self.first) as usize;
        self.shards[s].cell(bin, self.local_ix[flow] as usize)
    }

    #[inline]
    fn owns(&self, flow: usize) -> bool {
        self.shard_ix[flow].wrapping_sub(self.first) < self.shards.len() as u32
    }
}

/// Runs `work(first_shard, group)` once per group of consecutive shards
/// and returns the results in group order. The calling thread runs the
/// first group; every further group gets one scoped thread.
pub(crate) fn fan_out<D: DistributionAccumulator, T: Send>(
    shards: &mut [Shard<D>],
    groups: &[Range<usize>],
    work: impl Fn(usize, &mut [Shard<D>]) -> T + Sync,
) -> Vec<T> {
    let Some((head, tail)) = groups.split_first() else {
        return Vec::new();
    };
    let (mine, mut rest) = shards.split_at_mut(head.len());
    if tail.is_empty() {
        return vec![work(head.start, mine)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = tail
            .iter()
            .map(|group| {
                let (theirs, after) = std::mem::take(&mut rest).split_at_mut(group.len());
                rest = after;
                let first = group.start;
                scope.spawn(move || work(first, theirs))
            })
            .collect();
        let mut out = vec![work(head.start, mine)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamConfig, StreamError, StreamingGridBuilder};
    use entromine_net::packet::PacketHeader;
    use entromine_net::Ipv4;

    fn pkt(src: u32, dport: u16, ts: u64) -> PacketHeader {
        PacketHeader::tcp(Ipv4(src), 1024, Ipv4(9), dport, 100, ts)
    }

    fn sharded(n_flows: usize, shards: usize) -> StreamingGridBuilder {
        StreamingGridBuilder::with_shards(StreamConfig::new(n_flows), shards).unwrap()
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(StreamingGridBuilder::with_shards(StreamConfig::new(0), 2).is_err());
        assert!(StreamingGridBuilder::with_shards(StreamConfig::new(3), 0).is_err());
        let mut cfg = StreamConfig::new(3);
        cfg.bin_secs = 0;
        assert!(StreamingGridBuilder::with_shards(cfg, 2).is_err());
    }

    #[test]
    fn shard_count_clamped_to_flows() {
        assert_eq!(sharded(3, 64).shards(), 3);
    }

    #[test]
    fn every_flow_owned_exactly_once() {
        let (shard_ix, local_ix, shards) = partition::<FeatureHistogram>(121, 7, &());
        let mut owned: Vec<usize> = shards.iter().flat_map(|s| s.flows.clone()).collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..121).collect::<Vec<_>>());
        // The flow -> (shard, local) maps point back at the owning row.
        for flow in 0..121 {
            let s = &shards[shard_ix[flow] as usize];
            assert_eq!(s.flows[local_ix[flow] as usize], flow);
        }
        // The hash spreads flows: no shard is empty, none hoards.
        for s in &shards {
            assert!(!s.flows.is_empty());
            assert!(s.flows.len() <= 121 / 7 * 3);
        }
    }

    #[test]
    fn batch_is_validated_atomically() {
        let mut b = sharded(2, 2);
        let batch = vec![(0usize, pkt(1, 80, 10)), (5, pkt(2, 80, 20))];
        assert_eq!(
            b.offer_packets(&batch),
            Err(StreamError::FlowOutOfRange {
                flow: 5,
                n_flows: 2
            })
        );
        // Nothing was absorbed on either shard: flushing yields no bins.
        assert!(b.finish().is_empty());
    }

    #[test]
    fn late_batch_events_counted_not_misfiled() {
        let mut b = sharded(2, 2);
        b.offer_packets(&[(0, pkt(1, 80, 10))]).unwrap();
        assert_eq!(b.advance_watermark(600).len(), 2);
        // Bin 0 is sealed; a straggler on the other shard's flow is
        // dropped and counted.
        b.offer_packets(&[(1, pkt(2, 80, 5)), (1, pkt(3, 80, 700))])
            .unwrap();
        assert_eq!(b.late_events(), 1);
        let sealed = b.advance_watermark(900);
        assert_eq!(sealed.len(), 1);
        assert_eq!(sealed[0].summaries[1].packets, 1);
    }

    #[test]
    fn corrupt_timestamp_rejected_in_batch() {
        let mut b = sharded(1, 1);
        assert!(matches!(
            b.offer_packets(&[(0, pkt(1, 80, u64::MAX))]),
            Err(StreamError::BeyondHorizon { .. })
        ));
        assert_eq!(b.rejected_events(), 1);
        assert!(b.offer_packet(0, &pkt(2, 80, u64::MAX)).is_err());
        assert_eq!(b.rejected_events(), 2);
    }

    #[test]
    fn single_event_offers_match_serial_semantics() {
        let mut b = sharded(2, 2);
        assert!(b.offer_packet(3, &pkt(1, 80, 0)).is_err());
        b.offer_packet(0, &pkt(1, 80, 10)).unwrap();
        let sealed = b.advance_watermark(300);
        assert_eq!(sealed.len(), 1);
        b.offer_packet(0, &pkt(2, 80, 20)).unwrap(); // late now
        assert_eq!(b.late_events(), 1);
    }
}

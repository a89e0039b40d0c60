//! Counting histograms over traffic feature values.
//!
//! Two implementations live here:
//!
//! * [`FeatureHistogram`] — the production table: an open-addressing,
//!   linear-probing flat table of inline `u32` key and `u64` count
//!   columns with power-of-two capacity. One inline probe walk per update, no
//!   per-entry indirection, and a whole table that is a handful of cache
//!   lines for the few-hundred-distinct-value histograms a (flow, bin)
//!   cell actually holds — this is the structure the ingest hot path
//!   hammers four times per packet.
//! * [`MapHistogram`] — the previous `HashMap`-backed implementation,
//!   kept verbatim as the pinned *observational-equivalence reference*
//!   (the same serial-reference pattern as `covariance_serial`):
//!   `crates/entropy/tests/hist_equivalence.rs`
//!   drives both through random operation sequences and requires every
//!   observable — totals, counts, distinct, top-k, rank order, entropy —
//!   to agree exactly.
//!
//! Both use the same fixed-key Fx hash, and neither promises anything
//! about raw iteration order: every derived quantity (entropy, rank
//! order, top-k) is defined as a function of the *multiset* of entries,
//! which is what makes merge and combining order unobservable downstream.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic FxHash-style hasher.
///
/// `std`'s default `HashMap` hasher is seeded per instance, which makes
/// iteration order — and therefore anything computed from an unsorted
/// walk — vary between runs. Reproducibility is a hard requirement here
/// (same seed ⇒ bit-identical dataset), so histograms use this fixed-key
/// multiply-rotate hasher instead. Keys are attacker-influenced in a real
/// deployment only through feature values, whose cardinality per bin is
/// bounded by the sampled packet count, so HashDoS resistance is not a
/// concern at this layer.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Deterministic hash state for histogram maps.
pub type DetState = BuildHasherDefault<FxHasher>;

/// The flat table's hash: exactly what [`FxHasher`] computes for one
/// `u32` write (the rotate of the zero initial state is a no-op, leaving
/// the single multiply). Shared with the sketched tier
/// (`crate::sketch`), whose level-sampling admission test reads the high
/// bits of this same product — one deterministic hash for the whole
/// accumulation plane.
#[inline(always)]
pub(crate) fn fx_hash(key: u32) -> u64 {
    (key as u64).wrapping_mul(FxHasher::SEED)
}

/// The flat table's home slot for `value`, before masking to the
/// capacity: the low half of [`fx_hash`] with bits 16–31 folded onto bits
/// 0–15, so keys whose low bits are constant (anonymized addresses) still
/// spread. Bits 32 and up are never read; the sketched tier's level
/// sampling owns them.
#[inline(always)]
fn home_slot(value: u32) -> usize {
    let h = fx_hash(value) as u32;
    (h ^ (h >> 16)) as usize
}

/// Walks the linear probe sequence from `value`'s home slot and returns
/// the first slot that holds `stored` (`Ok`) or is vacant (`Err`, where
/// an insert must land), the convention of `slice::binary_search`.
/// `keys` must have power-of-two length and hold at least one vacancy,
/// which the half-full growth rule guarantees.
#[inline(always)]
fn probe(keys: &[u32], value: u32, stored: u32) -> Result<usize, usize> {
    let mask = keys.len() - 1;
    let mut j = home_slot(value) & mask;
    loop {
        let k = keys[j];
        if k == stored {
            return Ok(j);
        }
        if k == 0 {
            return Err(j);
        }
        j = (j + 1) & mask;
    }
}

/// Smallest capacity the table allocates once it holds anything.
const MIN_CAP: usize = 32;

/// Growth factor. Quadrupling instead of doubling halves the number of
/// rehash passes a freshly opened cell pays while filling up, which is
/// where the ingest path spends its allocation budget; the peak load
/// factor stays ≤ 1/2 either way.
const GROWTH: usize = 4;

/// An empirical histogram `X = {n_i, i = 1..N}`: feature value `i`
/// occurred `n_i` times in the sample.
///
/// Keys are the `u32` encoding produced by
/// [`Feature::extract`](entromine_net::packet::Feature::extract) (address
/// as numeric value, port widened).
///
/// # Layout
///
/// Keys and counts live inline in two parallel power-of-two arrays,
/// probed linearly from a home slot. The home slot is the low 32 bits
/// of the Fx product with bits 16–31 folded onto bits 0–15
/// (`home_slot`). The fold matters on anonymized feeds: an address
/// whose low 11 bits are masked yields a product whose low 11 bits are
/// zero too, so plain low-bit indexing homes every such key to slot 0
/// and the table degenerates into a linear scan (8.7–9.0 probes per
/// update on anonymized Abilene addresses). The fold reads only bits
/// below 32, which leaves the high half to the sketched tier's level
/// sampling. Splitting the columns keeps the probe loop inside the
/// dense 4-byte key array — a few KB even for thousands of entries, so
/// the walk stays in L1/L2 where an interleaved 16-byte layout would
/// thrash — while the matching count is a single indexed access on hit.
/// A key slot stores `value + 1` with `0` marking vacancy; the one value
/// that encoding cannot represent (`u32::MAX`) lives in a dedicated side
/// counter. The table grows when half full. A default-constructed
/// histogram owns no allocation at all (gap bins materialize thousands
/// of empty cells).
///
/// Equality ([`PartialEq`]) is multiset equality of the entries —
/// capacity and insertion history are not observable.
#[derive(Debug, Clone, Default)]
pub struct FeatureHistogram {
    /// Stored keys (`value + 1`; 0 = vacant), power-of-two length.
    keys: Vec<u32>,
    /// Count of each occupied key slot, same indices as `keys`.
    counts: Vec<u64>,
    /// Occupied slots (= distinct values, excluding the side counter).
    distinct: usize,
    /// Occupancy threshold that triggers the next growth.
    grow_at: usize,
    total: u64,
    /// Count of `u32::MAX`, the one value the vacancy encoding cannot
    /// store in the table.
    max_key_count: u64,
}

impl FeatureHistogram {
    /// An empty histogram (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram pre-sized to absorb `cap` distinct values
    /// without growing (the ingest plane feeds this from the previous
    /// bin's observed cardinality).
    pub fn with_capacity(cap: usize) -> Self {
        let mut h = FeatureHistogram::default();
        if cap > 0 {
            h.rebuild((cap * 2).next_power_of_two().max(MIN_CAP));
        }
        h
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn add(&mut self, value: u32) {
        self.add_n(value, 1);
    }

    /// Records `n` observations of `value`.
    #[inline]
    pub fn add_n(&mut self, value: u32, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        let Some(stored) = value.checked_add(1) else {
            self.max_key_count += n;
            return;
        };
        // Growing *before* the probe keeps the walk free of any fullness
        // check: occupancy never exceeds half the slots, so a vacant slot
        // is always reachable.
        if self.distinct >= self.grow_at {
            self.grow();
        }
        match probe(&self.keys, value, stored) {
            Ok(j) => self.counts[j] += n,
            Err(j) => {
                self.keys[j] = stored;
                self.counts[j] = n;
                self.distinct += 1;
            }
        }
    }

    /// Ensures the table can absorb `additional` more distinct values
    /// without growing mid-stream.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.distinct + additional).saturating_mul(2);
        if needed > self.keys.len() {
            self.rebuild(needed.next_power_of_two().max(MIN_CAP));
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &FeatureHistogram) {
        // Pre-reserve for the incoming entries so the merge rehashes at
        // most once instead of once per growth step.
        self.reserve(other.distinct);
        for (v, n) in other.iter() {
            self.add_n(v, n);
        }
    }

    /// Re-homes every entry into fresh arrays of `cap` slots.
    #[cold]
    fn rebuild(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= MIN_CAP);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; cap]);
        self.grow_at = cap / 2;
        for (stored, count) in old_keys.into_iter().zip(old_counts) {
            if stored == 0 {
                continue;
            }
            // Keys are unique, so the probe can only land on a vacancy.
            match probe(&self.keys, stored - 1, stored) {
                Err(j) => {
                    self.keys[j] = stored;
                    self.counts[j] = count;
                }
                Ok(_) => unreachable!("rehashed keys are unique"),
            }
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = if self.keys.is_empty() {
            MIN_CAP
        } else {
            self.keys.len() * GROWTH
        };
        self.rebuild(cap);
    }

    /// Total number of observations `S`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values `N`.
    pub fn distinct(&self) -> usize {
        self.distinct + (self.max_key_count != 0) as usize
    }

    /// `true` if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Count of a specific value (0 if unseen).
    pub fn count(&self, value: u32) -> u64 {
        let Some(stored) = value.checked_add(1) else {
            return self.max_key_count;
        };
        if self.keys.is_empty() {
            return 0;
        }
        match probe(&self.keys, value, stored) {
            Ok(j) => self.counts[j],
            Err(_) => 0,
        }
    }

    /// Iterates over `(value, count)` pairs in unspecified order.
    ///
    /// Everything derived from a histogram must be a function of the
    /// multiset of pairs, never of this order (which depends on capacity
    /// history); the sorted accessors below are the canonical views.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(&k, _)| k != 0)
            .map(|(&k, &n)| (k - 1, n))
            .chain((self.max_key_count != 0).then_some((u32::MAX, self.max_key_count)))
    }

    /// All counts, ascending — the canonical multiset view the dispersion
    /// metrics consume (entropy, Gini, and rank order are functions of
    /// the count multiset alone).
    pub fn counts_sorted(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.iter().map(|(_, n)| n).collect();
        counts.sort_unstable();
        counts
    }

    /// Counts sorted in decreasing order — the paper's "rank order"
    /// histogram view (Figure 1 plots these).
    pub fn rank_ordered_counts(&self) -> Vec<u64> {
        let mut counts = self.counts_sorted();
        counts.reverse();
        counts
    }

    /// The `k` most frequent values with their counts, most frequent
    /// first. Ties are broken by value for determinism.
    ///
    /// Uses partial selection (`select_nth_unstable`) so only the top `k`
    /// pay the sort, not all `N` entries.
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut pairs: Vec<(u32, u64)> = self.iter().collect();
        let order = |a: &(u32, u64), b: &(u32, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if k < pairs.len() {
            pairs.select_nth_unstable_by(k - 1, order);
            pairs.truncate(k);
        }
        pairs.sort_unstable_by(order);
        pairs
    }

    /// The single most frequent value, if any (ties broken by value).
    pub fn heavy_hitter(&self) -> Option<(u32, u64)> {
        self.top_k(1).into_iter().next()
    }

    /// Bytes of heap currently owned by the table (the two parallel slot
    /// columns; the struct header itself is not counted). This is the
    /// number the memory-tier benches and ceilings account against: a
    /// `u32` key column plus a `u64` count column is 12 bytes per slot.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u64>()
    }

    /// The fraction of observations belonging to the most frequent value
    /// (0.0 for an empty histogram).
    pub fn max_share(&self) -> f64 {
        match self.heavy_hitter() {
            Some((_, n)) if self.total > 0 => n as f64 / self.total as f64,
            _ => 0.0,
        }
    }
}

impl PartialEq for FeatureHistogram {
    /// Multiset equality: same totals and the same `(value, count)`
    /// entries, regardless of capacity or insertion history.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.distinct() == other.distinct()
            && self.iter().all(|(v, n)| other.count(v) == n)
    }
}

impl Eq for FeatureHistogram {}

impl FromIterator<u32> for FeatureHistogram {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut h = FeatureHistogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

/// The `HashMap`-backed histogram this crate used before the flat table —
/// kept, unchanged in behaviour, as the pinned observational-equivalence
/// reference for [`FeatureHistogram`]. Not used on any hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapHistogram {
    counts: HashMap<u32, u64, DetState>,
    total: u64,
}

impl MapHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn add(&mut self, value: u32) {
        self.add_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn add_n(&mut self, value: u32, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &MapHistogram) {
        for (&v, &n) in &other.counts {
            self.add_n(v, n);
        }
    }

    /// Total number of observations `S`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values `N`.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of a specific value (0 if unseen).
    pub fn count(&self, value: u32) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Iterates over `(value, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&v, &n)| (v, n))
    }

    /// All counts, ascending (the canonical multiset view).
    pub fn counts_sorted(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        counts.sort_unstable();
        counts
    }

    /// Counts sorted in decreasing order.
    pub fn rank_ordered_counts(&self) -> Vec<u64> {
        let mut counts = self.counts_sorted();
        counts.reverse();
        counts
    }

    /// The `k` most frequent values, most frequent first, ties broken by
    /// value (the reference implementation sorts everything).
    pub fn top_k(&self, k: usize) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = self.counts.iter().map(|(&v, &n)| (v, n)).collect();
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = FeatureHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.total(), 0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.count(5), 0);
        assert!(h.rank_ordered_counts().is_empty());
        assert!(h.heavy_hitter().is_none());
        assert_eq!(h.max_share(), 0.0);
        // No allocation until the first observation.
        assert_eq!(h.keys.capacity(), 0);
    }

    #[test]
    fn counting() {
        let h: FeatureHistogram = [1u32, 1, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(h.total(), 6);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(9), 0);
    }

    #[test]
    fn add_n_and_zero() {
        let mut h = FeatureHistogram::new();
        h.add_n(7, 5);
        h.add_n(8, 0); // no-op
        assert_eq!(h.total(), 5);
        assert_eq!(h.distinct(), 1);
        assert_eq!(h.count(8), 0);
    }

    #[test]
    fn key_zero_is_a_valid_value() {
        // Slot vacancy is tracked by count, not key, so value 0 (a real
        // address encoding) must behave like any other.
        let mut h = FeatureHistogram::new();
        h.add(0);
        h.add(0);
        h.add(7);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.distinct(), 2);
    }

    #[test]
    fn growth_preserves_contents() {
        let mut h = FeatureHistogram::new();
        for v in 0..10_000u32 {
            h.add_n(v, (v as u64 % 7) + 1);
        }
        assert_eq!(h.distinct(), 10_000);
        for v in 0..10_000u32 {
            assert_eq!(h.count(v), (v as u64 % 7) + 1);
        }
        // Load factor stays at or below one half.
        assert!(h.keys.len() >= 2 * h.distinct());
    }

    #[test]
    fn with_capacity_absorbs_without_growth() {
        let mut h = FeatureHistogram::with_capacity(500);
        let cap = h.keys.len();
        for v in 0..500u32 {
            h.add(v);
        }
        assert_eq!(h.keys.len(), cap, "pre-sized table must not grow");
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: FeatureHistogram = [1u32, 2].into_iter().collect();
        let b: FeatureHistogram = [2u32, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.distinct(), 3);
    }

    #[test]
    fn multiset_equality_ignores_history() {
        // Same multiset built in different orders, with different
        // capacity histories, must compare equal.
        let a: FeatureHistogram = [5u32, 9, 9, 1, 5, 5].into_iter().collect();
        let mut b = FeatureHistogram::with_capacity(300);
        b.add_n(9, 2);
        b.add_n(1, 1);
        b.add_n(5, 3);
        assert_eq!(a, b);
        let mut c = b.clone();
        c.add(1);
        assert_ne!(a, c);
    }

    #[test]
    fn rank_order_is_descending() {
        let h: FeatureHistogram = [5u32, 5, 5, 9, 9, 1].into_iter().collect();
        assert_eq!(h.rank_ordered_counts(), vec![3, 2, 1]);
    }

    #[test]
    fn top_k_and_heavy_hitter() {
        let h: FeatureHistogram = [5u32, 5, 5, 9, 9, 1].into_iter().collect();
        assert_eq!(h.top_k(2), vec![(5, 3), (9, 2)]);
        assert_eq!(h.heavy_hitter(), Some((5, 3)));
        assert!((h.max_share() - 0.5).abs() < 1e-12);
        // k larger than distinct count returns everything.
        assert_eq!(h.top_k(10).len(), 3);
        assert!(h.top_k(0).is_empty());
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let h: FeatureHistogram = [4u32, 2, 4, 2].into_iter().collect();
        // Equal counts: smaller value first.
        assert_eq!(h.top_k(2), vec![(2, 2), (4, 2)]);
    }

    /// Total distance of every occupied slot from its key's home slot:
    /// the extra probes a lookup of each stored key walks.
    fn displacement(h: &FeatureHistogram) -> usize {
        let mask = h.keys.len() - 1;
        h.keys
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != 0)
            .map(|(j, &k)| j.wrapping_sub(home_slot(k - 1)) & mask)
            .sum()
    }

    #[test]
    fn anonymized_keys_spread_across_slots() {
        // Addresses with their low 11 bits masked (how anonymized traces
        // arrive) next to a run of consecutive ports. Indexing by the
        // product's low bits alone homes every aligned key to slot 0,
        // piling them into one 64-long cluster (displacement ≥ 2016).
        let mut h = FeatureHistogram::new();
        for k in 1..=64u32 {
            h.add(k << 11);
        }
        for port in 1024..1088u32 {
            h.add(port);
        }
        assert_eq!(h.distinct(), 128);
        let d = displacement(&h);
        assert!(d <= 64, "total probe displacement {d} for 128 keys");
    }

    #[test]
    fn probe_wraps_at_table_end() {
        // A cluster at the very end of the table: the walk must wrap to
        // slot 0 for both hits and vacancies.
        let homed_at = |slot: usize| (0u32..).find(|&v| home_slot(v) & 31 == slot).unwrap();
        let v = homed_at(29);
        let mut keys = vec![0u32; 32];
        keys[29] = 3;
        keys[30] = 7;
        keys[31] = 11;
        keys[0] = v + 1;
        assert_eq!(probe(&keys, v, v + 1), Ok(0));
        let absent = (v + 1..).find(|&w| home_slot(w) & 31 == 29).unwrap();
        assert_eq!(probe(&keys, absent, absent + 1), Err(1));
    }

    #[test]
    fn top_k_partial_selection_matches_full_sort() {
        // Many ties across the k boundary: the select_nth path must agree
        // with the reference's full sort.
        let mut flat = FeatureHistogram::new();
        let mut map = MapHistogram::new();
        for v in 0..200u32 {
            let n = (v as u64 % 5) + 1;
            flat.add_n(v, n);
            map.add_n(v, n);
        }
        for k in [0, 1, 3, 40, 199, 200, 500] {
            assert_eq!(flat.top_k(k), map.top_k(k), "k = {k}");
        }
    }
}

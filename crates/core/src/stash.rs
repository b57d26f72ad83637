//! The on-chip stash and the eviction placement plan.
//!
//! The stash is dense: its blocks live in one `Vec`, with an id → index map
//! beside it for point lookups. An eviction "searches the entire stash"
//! (§III-A) exactly once: [`Stash::plan_path`] and [`Stash::plan_bucket`]
//! scan the `Vec` and record, for every block that fits somewhere on the
//! rebuilt buckets, the deepest level it may occupy. Each rebuilt bucket
//! then takes its blocks from that [`Placement`] instead of rescanning.

use crate::{BlockId, BLOCK_BYTES};
use aboram_tree::{BucketId, Level, PathId, TreeGeometry};
use std::collections::HashMap;

/// One block buffered in the stash: its current path label and (optionally)
/// its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StashBlock {
    /// The block's logical id.
    pub block: BlockId,
    /// The path the block is mapped to.
    pub label: PathId,
    /// Block contents when the data path is enabled; zeroes otherwise.
    pub data: [u8; BLOCK_BYTES],
}

/// Fixed-capacity stash with peak-occupancy tracking.
///
/// Ring ORAM's stash buffers blocks between a readPath and a later eviction.
/// Overflow is a protocol failure; the CB baseline prevents it with
/// background eviction above a threshold (§III-C).
///
/// Blocks are kept densely in a `Vec` in unspecified order; `index` maps
/// each id to its position. [`remove`](Self::remove) swap-removes and
/// re-points the index of the block moved into the hole.
#[derive(Debug, Clone)]
pub struct Stash {
    blocks: Vec<StashBlock>,
    index: HashMap<BlockId, u32>,
    capacity: usize,
    peak: usize,
}

impl Stash {
    /// Creates an empty stash with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Stash { blocks: Vec::new(), index: HashMap::new(), capacity, peak: 0 }
    }

    /// Current number of buffered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether occupancy currently exceeds the stash's capacity — the
    /// condition the engine reports as [`crate::OramError::StashOverflow`].
    pub fn overflowed(&self) -> bool {
        self.blocks.len() > self.capacity
    }

    /// Inserts or updates a block. Returns the previous copy, if any.
    pub fn insert(&mut self, entry: StashBlock) -> Option<StashBlock> {
        if let Some(&i) = self.index.get(&entry.block) {
            return Some(std::mem::replace(&mut self.blocks[i as usize], entry));
        }
        self.index.insert(entry.block, self.blocks.len() as u32);
        self.blocks.push(entry);
        self.peak = self.peak.max(self.blocks.len());
        None
    }

    /// Looks up a block without removing it.
    pub fn get(&self, block: BlockId) -> Option<&StashBlock> {
        self.index.get(&block).map(|&i| &self.blocks[i as usize])
    }

    /// Updates the label of a buffered block (block remap while in stash).
    pub fn relabel(&mut self, block: BlockId, label: PathId) -> bool {
        match self.index.get(&block) {
            Some(&i) => {
                self.blocks[i as usize].label = label;
                true
            }
            None => false,
        }
    }

    /// Removes and returns a block. The last block moves into its place.
    pub fn remove(&mut self, block: BlockId) -> Option<StashBlock> {
        let i = self.index.remove(&block)? as usize;
        let entry = self.blocks.swap_remove(i);
        if let Some(moved) = self.blocks.get(i) {
            self.index.insert(moved.block, i as u32);
        }
        Some(entry)
    }

    /// Iterates over buffered blocks in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &StashBlock> {
        self.blocks.iter()
    }

    /// Buffered blocks sorted by block id — snapshot serialization (the
    /// stash's own order depends on its insert/remove history and must not
    /// leak).
    pub(crate) fn snapshot_blocks(&self) -> Vec<StashBlock> {
        let mut blocks = self.blocks.clone();
        blocks.sort_unstable_by_key(|e| e.block);
        blocks
    }

    /// Rebuilds a stash from snapshot parts, restoring the sticky peak
    /// exactly (inserting alone would under-report it).
    pub(crate) fn from_snapshot(capacity: usize, peak: usize, blocks: Vec<StashBlock>) -> Self {
        let mut stash = Stash::new(capacity);
        for entry in blocks {
            stash.insert(entry);
        }
        stash.peak = peak.max(stash.peak);
        stash
    }

    /// Plans an evictPath (or Path ORAM write-back) onto `path`: a block
    /// labelled `l` may go to any bucket of `path` at a level below
    /// `common_prefix_levels(l, path)`.
    pub(crate) fn plan_path(&self, geo: &TreeGeometry, path: PathId, plan: &mut Placement) {
        self.plan(plan, |label| geo.common_prefix_levels(label, path));
    }

    /// Plans the rebuild of the single bucket `bucket` (early reshuffle,
    /// growth drain): a block fits iff the bucket is on its path.
    pub(crate) fn plan_bucket(&self, geo: &TreeGeometry, bucket: BucketId, plan: &mut Placement) {
        let depth = bucket.level().0 + 1;
        self.plan(plan, |label| if geo.bucket_is_on_path(bucket, label) { depth } else { 0 });
    }

    /// The one stash scan of an eviction: every block with a nonzero depth,
    /// in ascending id order.
    fn plan(&self, plan: &mut Placement, mut depth: impl FnMut(PathId) -> u8) {
        plan.entries.clear();
        plan.entries.extend(self.blocks.iter().filter_map(|e| {
            let d = depth(e.label);
            (d > 0).then_some((e.block, d))
        }));
        // Deterministic order for reproducible simulations.
        plan.entries.sort_unstable_by_key(|&(block, _)| block);
    }
}

/// One eviction's placement plan, built by a single stash scan
/// ([`Stash::plan_path`], [`Stash::plan_bucket`]).
///
/// Each entry is a stash block and its depth: the block may be placed in
/// any rebuilt bucket at a level below the depth. Buckets are served
/// deepest first; each [`take`](Self::take)s the lowest-id unplaced blocks
/// that fit it. That is the selection a fresh per-bucket stash scan makes
/// (matching ids, ascending, truncated to capacity), because the blocks
/// placed deeper are exactly the ones that scan would no longer see.
#[derive(Debug, Clone, Default)]
pub(crate) struct Placement {
    /// `(block, depth)` in ascending id order; depth 0 once placed.
    entries: Vec<(BlockId, u8)>,
}

impl Placement {
    /// Picks up to `cap` blocks for the bucket at `level` into `out`
    /// (cleared first), ascending by id, and marks them placed. The caller
    /// moves them out of the stash.
    pub(crate) fn take(&mut self, level: Level, cap: usize, out: &mut Vec<BlockId>) {
        out.clear();
        if cap == 0 {
            return;
        }
        for (block, depth) in &mut self.entries {
            if *depth > level.0 {
                out.push(*block);
                *depth = 0;
                if out.len() == cap {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::LevelConfig;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn blk(id: BlockId, leaf: u64) -> StashBlock {
        StashBlock { block: id, label: PathId::new(leaf), data: [0; BLOCK_BYTES] }
    }

    #[test]
    fn insert_get_remove() {
        let mut s = Stash::new(10);
        assert!(s.is_empty());
        assert!(s.insert(blk(1, 5)).is_none());
        assert_eq!(s.get(1).unwrap().label, PathId::new(5));
        assert_eq!(s.len(), 1);
        let old = s.insert(blk(1, 9)).unwrap();
        assert_eq!(old.label, PathId::new(5));
        assert_eq!(s.len(), 1, "re-insert replaces");
        assert!(s.remove(1).is_some());
        assert!(s.remove(1).is_none());
    }

    #[test]
    fn relabel_in_place() {
        let mut s = Stash::new(10);
        s.insert(blk(3, 1));
        assert!(s.relabel(3, PathId::new(7)));
        assert_eq!(s.get(3).unwrap().label, PathId::new(7));
        assert!(!s.relabel(99, PathId::new(0)));
    }

    #[test]
    fn peak_and_overflow_tracking() {
        let mut s = Stash::new(2);
        s.insert(blk(1, 0));
        s.insert(blk(2, 0));
        assert!(!s.overflowed());
        s.insert(blk(3, 0));
        assert!(s.overflowed());
        assert_eq!(s.peak(), 3);
        s.remove(1);
        s.remove(2);
        assert!(!s.overflowed());
        assert_eq!(s.peak(), 3, "peak is sticky");
    }

    #[test]
    fn placement_takes_lowest_fitting_ids() {
        let geo = TreeGeometry::uniform(4, LevelConfig::new(4, 4)).unwrap();
        let mut s = Stash::new(10);
        s.insert(blk(5, 1));
        s.insert(blk(2, 1));
        s.insert(blk(9, 3));
        s.insert(blk(7, 6));
        let mut plan = Placement::default();
        s.plan_path(&geo, PathId::new(1), &mut plan);
        let mut out = Vec::new();
        // Leaf 1: only the two blocks labelled 1 reach it.
        plan.take(Level(3), 4, &mut out);
        assert_eq!(out, vec![2, 5]);
        // Level 1 (shared by leaves 0..=3): 9; placed blocks are skipped.
        plan.take(Level(1), 4, &mut out);
        assert_eq!(out, vec![9]);
        plan.take(Level(0), 0, &mut out);
        assert!(out.is_empty(), "zero capacity takes nothing");
        plan.take(Level(0), 4, &mut out);
        assert_eq!(out, vec![7]);
    }

    /// What the engines did before the placement plan: one stash scan per
    /// rebuilt bucket — filter, sort by id, truncate to capacity, remove.
    fn reference_picks(
        stash: &mut Stash,
        order: &[BucketId],
        caps: &[usize],
        fits: impl Fn(BucketId, PathId) -> bool,
    ) -> Vec<Vec<BlockId>> {
        order
            .iter()
            .map(|&bucket| {
                let mut ids: Vec<BlockId> =
                    stash.iter().filter(|e| fits(bucket, e.label)).map(|e| e.block).collect();
                ids.sort_unstable();
                ids.truncate(caps[usize::from(bucket.level().0)]);
                for &id in &ids {
                    stash.remove(id).unwrap();
                }
                ids
            })
            .collect()
    }

    fn planned_picks(
        stash: &mut Stash,
        plan: &mut Placement,
        order: &[BucketId],
        caps: &[usize],
    ) -> Vec<Vec<BlockId>> {
        let mut out = Vec::new();
        order
            .iter()
            .map(|&bucket| {
                plan.take(bucket.level(), caps[usize::from(bucket.level().0)], &mut out);
                for &id in &out {
                    stash.remove(id).unwrap();
                }
                out.clone()
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(BlockId, u64, u8),
        Get(BlockId),
        Relabel(BlockId, u64),
        Remove(BlockId),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..24, 0u64..64, any::<u8>()).prop_map(|(b, l, d)| Op::Insert(b, l, d)),
            (0u64..24).prop_map(Op::Get),
            (0u64..24, 0u64..64).prop_map(|(b, l)| Op::Relabel(b, l)),
            (0u64..24).prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass plan picks, bucket by bucket, exactly what the
        /// per-bucket scan picks, for an evictPath served in Ring's order
        /// (sorted deepest level first) or Path ORAM's (the path reversed),
        /// and for a single-bucket rebuild.
        #[test]
        fn plan_equals_per_bucket_scan(
            levels in 2u8..=9,
            raw_labels in proptest::collection::vec((0u64..600, any::<u64>()), 0..80),
            raw_path in any::<u64>(),
            single in any::<bool>(),
            level in any::<u8>(),
            index in any::<u64>(),
            ring_order in any::<bool>(),
            caps in proptest::collection::vec(0usize..7, 9),
        ) {
            let geo = TreeGeometry::uniform(levels, LevelConfig::new(4, 4)).unwrap();
            let leaves = geo.leaf_count();
            let mut stash = Stash::new(1000);
            for &(id, leaf) in &raw_labels {
                stash.insert(blk(id, leaf % leaves));
            }
            let mut reference = stash.clone();
            let mut plan = Placement::default();
            let path = PathId::new(raw_path % leaves);
            let (got, want) = if single {
                let level = Level(level % levels);
                let bucket = BucketId::from_level_index(level, index % (1 << level.0));
                stash.plan_bucket(&geo, bucket, &mut plan);
                let got = planned_picks(&mut stash, &mut plan, &[bucket], &caps);
                let want = reference_picks(&mut reference, &[bucket], &caps, |b, l| {
                    geo.bucket_is_on_path(b, l)
                });
                (got, want)
            } else {
                let mut order: Vec<BucketId> = geo.path_buckets(path).collect();
                if ring_order {
                    order.sort_by_key(|b| std::cmp::Reverse(b.level()));
                } else {
                    order.reverse();
                }
                stash.plan_path(&geo, path, &mut plan);
                let got = planned_picks(&mut stash, &mut plan, &order, &caps);
                let want = reference_picks(&mut reference, &order, &caps, |b, l| {
                    geo.common_prefix_levels(l, path) > b.level().0
                });
                (got, want)
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(stash.snapshot_blocks(), reference.snapshot_blocks());
        }

        /// The dense stash behaves like an id-keyed map under any sequence
        /// of inserts (new and replacing), lookups, relabels and removes —
        /// in particular no index goes stale after a swap-remove.
        #[test]
        fn dense_stash_matches_map_model(
            capacity in 0usize..12,
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut stash = Stash::new(capacity);
            let mut model: BTreeMap<BlockId, StashBlock> = BTreeMap::new();
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Insert(b, l, d) => {
                        let label = PathId::new(l);
                        let e = StashBlock { block: b, label, data: [d; BLOCK_BYTES] };
                        prop_assert_eq!(stash.insert(e), model.insert(b, e));
                    }
                    Op::Get(b) => prop_assert_eq!(stash.get(b), model.get(&b)),
                    Op::Relabel(b, l) => {
                        let hit = model.get_mut(&b).map(|e| e.label = PathId::new(l)).is_some();
                        prop_assert_eq!(stash.relabel(b, PathId::new(l)), hit);
                    }
                    Op::Remove(b) => prop_assert_eq!(stash.remove(b), model.remove(&b)),
                }
                peak = peak.max(model.len());
                prop_assert_eq!(stash.len(), model.len());
                prop_assert_eq!(stash.peak(), peak);
                prop_assert_eq!(stash.overflowed(), model.len() > capacity);
            }
            for b in 0..24 {
                prop_assert_eq!(stash.get(b), model.get(&b));
            }
            let blocks = stash.snapshot_blocks();
            prop_assert_eq!(&blocks, &model.values().copied().collect::<Vec<_>>());
            let restored = Stash::from_snapshot(capacity, stash.peak(), blocks.clone());
            prop_assert_eq!(restored.snapshot_blocks(), blocks);
            for (&b, e) in &model {
                prop_assert_eq!(restored.get(b), Some(e));
            }
            prop_assert_eq!(restored.peak(), stash.peak());
            prop_assert_eq!(restored.len(), stash.len());
        }
    }
}

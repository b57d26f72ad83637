//! Bucket metadata (Table I): Ring ORAM's block/slot bookkeeping plus
//! AB-ORAM's remote-allocation extensions, and the bit-exact layout
//! accounting behind the §VIII-H storage-overhead claim.
//!
//! The per-bucket state is held as fixed-width bitset words (`u64`, one bit
//! per slot): slot validity, real-block occupancy and the slot-status
//! lifecycle are all single-word masks, so the engine's hot scans — pick a
//! valid dummy, gather dead slots, census the not-refreshed slots — are
//! branch-light word operations instead of `Vec` walks (see DESIGN.md §8).
//! The in-memory words are machine-width (`u64`) so mask combining and
//! `nth_set_bit` selection compile to single register ops with headroom for
//! wider buckets; the snapshot codec still stores the occupied low 16 bits
//! (`own_slots + borrowed ≤ 16`), keeping every `ABSN` byte unchanged.

use crate::segvec::SegmentedVector;
use crate::BlockId;
use aboram_tree::{Level, PathId, SlotId, TreeGeometry};

/// Physical-slot lifecycle under AB-ORAM (§V-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    /// Written at the last reshuffle; content live until read.
    Refreshed,
    /// Content consumed by a readPath; space reclaimable.
    Dead,
    /// Handed to the DeadQ / a remote bucket; the home bucket must not
    /// touch it.
    Allocated,
}

/// Metadata for one real block mapped into a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealEntry {
    /// The block's logical address (`addr` in Table I).
    pub addr: BlockId,
    /// The block's current path (`label`).
    pub label: PathId,
    /// Logical slot index inside the bucket (`ptr`).
    pub ptr: u8,
}

/// A `u64` with the low `n` bits set — the all-slots mask for an `n`-slot
/// bucket (`n < 64`).
#[inline]
pub const fn low_mask(n: u8) -> u64 {
    (1u64 << n) - 1
}

/// Index of the `n`-th set bit of `mask` (0-based, counting from the least
/// significant bit). Equivalent to indexing the ascending list of set-bit
/// positions — which is exactly how slot-candidate lists used to be built —
/// so selection through this function consumes the same RNG draws and picks
/// the same slot as the old `Vec`-based scan.
///
/// # Panics
///
/// Debug-asserts that `mask` has more than `n` set bits.
#[inline]
pub fn nth_set_bit(mut mask: u64, n: usize) -> u8 {
    debug_assert!((mask.count_ones() as usize) > n, "nth_set_bit({mask:#x}, {n}) out of range");
    for _ in 0..n {
        mask &= mask - 1; // Clear the lowest set bit.
    }
    mask.trailing_zeros() as u8
}

/// Metadata of one bucket.
///
/// The bucket exposes a *logical* slot space: its own physical slots
/// (possibly fewer than the paper's `Z` under DR) plus any slots borrowed
/// from the level's DeadQ. Logical slot `i` resolves to the bucket's own
/// physical slot `i` when `i < own_slots`, otherwise to `borrowed[i -
/// own_slots]` — this is the extra address-mapping level of Fig. 5(b), kept
/// in cleartext.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BucketMeta {
    /// `count`: readPaths absorbed since the last refresh.
    pub count: u8,
    /// `dynamicS`: dummy budget chosen at the last refresh.
    pub dynamic_s: u8,
    /// Real blocks currently mapped here (≤ `Z'`), with their slots.
    entries: Vec<RealEntry>,
    /// Validity bitmap over logical slots.
    valid: u64,
    /// Occupancy bitmap: bit `i` set iff some entry's `ptr == i`.
    real: u64,
    /// Own slots whose content was consumed by a readPath.
    dead: u64,
    /// Own slots handed to the DeadQ / a remote bucket this epoch.
    allocated: u64,
    /// Number of own physical slots.
    own_slots: u8,
    /// Number of logical slots at the last refresh.
    pub logical_slots: u8,
    /// Remote physical slots backing logical slots `own_slots..` — the
    /// paper's `remoteAddr`/`remoteInd` entries (at most `R`). Remote slots
    /// hold reserved dummies only; real blocks always live in own slots
    /// (see DESIGN.md on why this is the only capacity-consistent reading).
    pub borrowed: Vec<SlotId>,
}

impl BucketMeta {
    /// Creates metadata for a bucket with `own_slots` physical slots, all
    /// slots initially refreshed and invalid (empty tree).
    pub fn new(own_slots: u8) -> Self {
        debug_assert!(own_slots <= 16, "the snapshot codec stores 16-bit masks");
        BucketMeta {
            count: 0,
            dynamic_s: 0,
            entries: Vec::new(),
            valid: 0,
            real: 0,
            dead: 0,
            allocated: 0,
            own_slots,
            logical_slots: own_slots,
            borrowed: Vec::new(),
        }
    }

    /// Whether logical slot `logical` resolves to a borrowed (remote) slot.
    #[inline]
    pub fn is_remote(&self, logical: u8) -> bool {
        logical >= self.own_slots
    }

    /// Number of own physical slots (excludes borrowed).
    #[inline]
    pub fn own_slots(&self) -> u8 {
        self.own_slots
    }

    /// Whether logical slot `i` still holds unread content.
    #[inline]
    pub fn is_valid(&self, i: u8) -> bool {
        self.valid & (1 << i) != 0
    }

    /// Marks logical slot `i` valid/invalid.
    #[inline]
    pub fn set_valid(&mut self, i: u8, v: bool) {
        if v {
            self.valid |= 1 << i;
        } else {
            self.valid &= !(1 << i);
        }
    }

    /// Marks the first `n` logical slots valid and the rest invalid — a
    /// bucket's state right after a rebuild.
    #[inline]
    pub fn set_all_valid(&mut self, n: u8) {
        self.valid = low_mask(n);
    }

    /// Number of valid logical slots.
    #[inline]
    pub fn valid_count(&self) -> u8 {
        self.valid.count_ones() as u8
    }

    /// Bitmap of valid logical slots.
    #[inline]
    pub fn valid_mask(&self) -> u64 {
        self.valid & low_mask(self.logical_slots)
    }

    /// Bitmap of valid logical slots that hold no real block — the dummy
    /// candidates a readPath picks from.
    #[inline]
    pub fn dummy_mask(&self) -> u64 {
        self.valid_mask() & !self.real
    }

    /// Bitmap of logical slots with no real block mapped (free for a new
    /// entry), regardless of validity.
    #[inline]
    pub fn unoccupied_mask(&self) -> u64 {
        !self.real & low_mask(self.logical_slots)
    }

    /// The status of own slot `j`.
    #[inline]
    pub fn status(&self, j: u8) -> SlotStatus {
        debug_assert!(j < self.own_slots);
        let bit = 1u64 << j;
        if self.dead & bit != 0 {
            SlotStatus::Dead
        } else if self.allocated & bit != 0 {
            SlotStatus::Allocated
        } else {
            SlotStatus::Refreshed
        }
    }

    /// Sets the status of own slot `j`.
    #[inline]
    pub fn set_status(&mut self, j: u8, st: SlotStatus) {
        debug_assert!(j < self.own_slots);
        let bit = 1u64 << j;
        self.dead &= !bit;
        self.allocated &= !bit;
        match st {
            SlotStatus::Dead => self.dead |= bit,
            SlotStatus::Allocated => self.allocated |= bit,
            SlotStatus::Refreshed => {}
        }
    }

    /// Bitmap of own slots currently `Dead` — gatherDEADs' scan.
    #[inline]
    pub fn dead_mask(&self) -> u64 {
        self.dead
    }

    /// Bitmap of own slots not `Refreshed` (dead or allocated) — the
    /// rebuild-time census scan.
    #[inline]
    pub fn not_refreshed_mask(&self) -> u64 {
        self.dead | self.allocated
    }

    /// Resets every own slot to `Refreshed` (a rebuild's rewrite).
    #[inline]
    pub fn reset_statuses(&mut self) {
        self.dead = 0;
        self.allocated = 0;
    }

    /// The real entries currently mapped here.
    #[inline]
    pub fn entries(&self) -> &[RealEntry] {
        &self.entries
    }

    /// Maps a new real entry into the bucket.
    pub fn push_entry(&mut self, e: RealEntry) {
        debug_assert!(self.real & (1 << e.ptr) == 0, "slot {} double-mapped", e.ptr);
        self.real |= 1 << e.ptr;
        self.entries.push(e);
    }

    /// Unmaps every real entry, keeping the entry buffer's capacity.
    #[inline]
    pub fn clear_entries(&mut self) {
        self.entries.clear();
        self.real = 0;
    }

    /// The real entry stored for `block`, if present here.
    pub fn entry_of(&self, block: BlockId) -> Option<&RealEntry> {
        self.entries.iter().find(|e| e.addr == block)
    }

    /// Removes and returns the entry for `block`.
    pub fn take_entry(&mut self, block: BlockId) -> Option<RealEntry> {
        let i = self.entries.iter().position(|e| e.addr == block)?;
        let e = self.entries.swap_remove(i);
        self.real &= !(1 << e.ptr);
        Some(e)
    }

    /// The real entry (if any) whose `ptr` is logical slot `i`.
    pub fn entry_at_slot(&self, i: u8) -> Option<&RealEntry> {
        if self.real & (1 << i) == 0 {
            return None;
        }
        self.entries.iter().find(|e| e.ptr == i)
    }

    /// Logical slots that are valid, optionally excluding real-block slots.
    pub fn valid_slots(&self, exclude_real: bool) -> Vec<u8> {
        let mask = if exclude_real { self.dummy_mask() } else { self.valid_mask() };
        (0..self.logical_slots).filter(|&i| mask & (1 << i) != 0).collect()
    }

    /// readPath budget left before an earlyReshuffle is due, under a
    /// sustained budget of `budget` accesses.
    #[inline]
    pub fn needs_reshuffle(&self, budget: u8) -> bool {
        self.count >= budget
    }

    /// Re-sizes the bucket's own physical slot count — the post-grow
    /// refresh, when the level's configuration changed because the
    /// bucket's offset from the leaves shifted. Callers rebuild the
    /// bucket immediately afterwards, so the occupancy bitmaps are
    /// reconstructed under the new width.
    pub fn set_own_slots(&mut self, own: u8) {
        debug_assert!(own <= 16, "the snapshot codec stores 16-bit masks");
        self.own_slots = own;
        self.logical_slots = own + self.borrowed.len() as u8;
    }

    /// Decomposes the bucket into its raw fields — snapshot serialization.
    pub(crate) fn to_raw(&self) -> BucketMetaRaw {
        BucketMetaRaw {
            count: self.count,
            dynamic_s: self.dynamic_s,
            entries: self.entries.clone(),
            // own_slots + borrowed ≤ 16, so the live bits fit the codec's
            // 16-bit words exactly.
            valid: self.valid as u16,
            real: self.real as u16,
            dead: self.dead as u16,
            allocated: self.allocated as u16,
            own_slots: self.own_slots,
            logical_slots: self.logical_slots,
            borrowed: self.borrowed.clone(),
        }
    }

    /// Rebuilds a bucket from raw fields captured by
    /// [`to_raw`](Self::to_raw) — snapshot restore.
    pub(crate) fn from_raw(raw: BucketMetaRaw) -> Self {
        debug_assert_eq!(
            raw.real,
            raw.entries.iter().fold(0u16, |m, e| m | (1 << e.ptr)),
            "occupancy bitmap inconsistent with entries"
        );
        BucketMeta {
            count: raw.count,
            dynamic_s: raw.dynamic_s,
            entries: raw.entries,
            valid: u64::from(raw.valid),
            real: u64::from(raw.real),
            dead: u64::from(raw.dead),
            allocated: u64::from(raw.allocated),
            own_slots: raw.own_slots,
            logical_slots: raw.logical_slots,
            borrowed: raw.borrowed,
        }
    }
}

/// The raw fields of one [`BucketMeta`], exposed crate-internally so the
/// snapshot codec can round-trip buckets bit-exactly without widening the
/// bucket's own API.
#[derive(Debug, Clone)]
pub(crate) struct BucketMetaRaw {
    pub count: u8,
    pub dynamic_s: u8,
    pub entries: Vec<RealEntry>,
    pub valid: u16,
    pub real: u16,
    pub dead: u16,
    pub allocated: u16,
    pub own_slots: u8,
    pub logical_slots: u8,
    pub borrowed: Vec<SlotId>,
}

/// All bucket metadata plus resolution of logical slots to physical slots.
///
/// Backed by a [`SegmentedVector`] so an auto-scaling tree can append the
/// new level's buckets without moving (or reallocating) any existing
/// bucket's metadata — bucket addresses stay stable across growth.
#[derive(Debug, Clone)]
pub struct MetadataStore {
    buckets: SegmentedVector<BucketMeta>,
}

impl MetadataStore {
    /// Initializes metadata for every bucket of `geometry`.
    pub fn new(geometry: &TreeGeometry) -> Self {
        let base = (geometry.bucket_count() as usize).next_power_of_two();
        let mut buckets = SegmentedVector::new(base.max(1));
        for raw in 0..geometry.bucket_count() {
            let level = aboram_tree::BucketId::new(raw).level();
            let own = geometry.level_config(level).z_total();
            buckets.push(BucketMeta::new(own));
        }
        MetadataStore { buckets }
    }

    /// Appends metadata for one new bucket (a grown level). Existing
    /// buckets never move.
    pub(crate) fn push(&mut self, meta: BucketMeta) {
        self.buckets.push(meta);
    }

    /// Borrow the metadata of `bucket`.
    #[inline]
    pub fn get(&self, bucket: aboram_tree::BucketId) -> &BucketMeta {
        &self.buckets[bucket.raw() as usize]
    }

    /// Mutably borrow the metadata of `bucket`.
    #[inline]
    pub fn get_mut(&mut self, bucket: aboram_tree::BucketId) -> &mut BucketMeta {
        &mut self.buckets[bucket.raw() as usize]
    }

    /// Resolves a bucket's logical slot to its physical location: the
    /// logical space is the bucket's own slots followed by its borrowed
    /// slots (the Fig. 5(b) mapping).
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range for the bucket (engine bug).
    #[inline]
    pub fn resolve(&self, bucket: aboram_tree::BucketId, logical: u8) -> SlotId {
        let meta = self.get(bucket);
        let own = meta.own_slots();
        if logical < own {
            SlotId::new(bucket, logical)
        } else {
            meta.borrowed[usize::from(logical - own)]
        }
    }

    /// All bucket metadata in heap order — snapshot serialization.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = &BucketMeta> {
        self.buckets.iter()
    }

    /// Rebuilds a store from buckets in heap order — snapshot restore.
    pub(crate) fn from_buckets(buckets: Vec<BucketMeta>) -> Self {
        let base = buckets.len().next_power_of_two().max(1);
        let mut sv = SegmentedVector::new(base);
        sv.extend(buckets);
        MetadataStore { buckets: sv }
    }

    /// Total buckets tracked.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the store is empty (never true for a valid geometry).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

/// Closed-form bit widths of the Table I metadata fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataLayout {
    /// `Z'` (real-capable slots).
    pub z_real: u8,
    /// `Z` (physical bucket size).
    pub z_total: u8,
    /// `S` (reserved dummies).
    pub s_dummies: u8,
    /// Tree levels `L`.
    pub levels: u8,
    /// Number of protected blocks.
    pub n_block: u64,
    /// Number of buckets.
    pub n_bucket: u64,
    /// `R`: max remote-allocated blocks per bucket.
    pub r_remote: u8,
}

impl MetadataLayout {
    /// Layout for the paper's configuration at tree level granularity.
    pub fn for_geometry(geometry: &TreeGeometry, level: Level, r_remote: u8) -> Self {
        let cfg = geometry.level_config(level);
        MetadataLayout {
            z_real: cfg.z_real,
            z_total: cfg.z_total(),
            s_dummies: cfg.s_dummies,
            levels: geometry.levels(),
            n_block: geometry.paper_real_block_count(cfg.z_real),
            n_bucket: geometry.bucket_count(),
            r_remote,
        }
    }

    /// Bits of the baseline Ring ORAM metadata
    /// (`count + addr + label + ptr + valid`, Table I).
    pub fn ring_bits(&self) -> u64 {
        let log_s = ceil_log2(u64::from(self.s_dummies.max(2)));
        let log_nblock = ceil_log2(self.n_block);
        let log_z = ceil_log2(u64::from(self.z_total.max(2)));
        let zr = u64::from(self.z_real);
        log_s
            + zr * log_nblock
            + zr * (u64::from(self.levels) + 1)
            + zr * log_z
            + u64::from(self.z_total)
    }

    /// Extra bits AB-ORAM adds
    /// (`remote + remoteAddr + remoteInd + dynamicS + status`, Table I).
    pub fn aboram_extra_bits(&self) -> u64 {
        let r = u64::from(self.r_remote);
        let log_nbucket = ceil_log2(self.n_bucket);
        let log_z = ceil_log2(u64::from(self.z_total.max(2)));
        let log_s = ceil_log2(u64::from(self.s_dummies.max(2)));
        r + r * log_nbucket + r * log_z + log_s + u64::from(self.z_total) * 2
    }

    /// Total AB-ORAM metadata bits per bucket.
    pub fn aboram_total_bits(&self) -> u64 {
        self.ring_bits() + self.aboram_extra_bits()
    }
}

fn ceil_log2(v: u64) -> u64 {
    u64::from(64 - (v.max(2) - 1).leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_tree::{BucketId, LevelConfig};

    #[test]
    fn validity_bitmap_roundtrip() {
        let mut m = BucketMeta::new(8);
        assert_eq!(m.valid_count(), 0);
        m.set_valid(0, true);
        m.set_valid(7, true);
        assert!(m.is_valid(0) && m.is_valid(7) && !m.is_valid(3));
        assert_eq!(m.valid_count(), 2);
        m.set_valid(0, false);
        assert_eq!(m.valid_count(), 1);
    }

    #[test]
    fn entries_and_slots() {
        let mut m = BucketMeta::new(8);
        m.logical_slots = 8;
        m.push_entry(RealEntry { addr: 42, label: PathId::new(3), ptr: 2 });
        for i in 0..4 {
            m.set_valid(i, true);
        }
        assert_eq!(m.entry_of(42).unwrap().ptr, 2);
        assert!(m.entry_at_slot(2).is_some());
        assert!(m.entry_at_slot(3).is_none());
        // Dummy candidates exclude the real slot.
        assert_eq!(m.valid_slots(true), vec![0, 1, 3]);
        assert_eq!(m.valid_slots(false), vec![0, 1, 2, 3]);
        assert_eq!(m.dummy_mask(), 0b1011);
        assert_eq!(m.valid_mask(), 0b1111);
        assert_eq!(m.take_entry(42).unwrap().addr, 42);
        assert!(m.entry_of(42).is_none());
        assert_eq!(m.dummy_mask(), 0b1111, "freed slot rejoins the dummy pool");
    }

    #[test]
    fn nth_set_bit_matches_ascending_enumeration() {
        let mask: u64 = 0b1011_0100_1010_0010;
        let ascending: Vec<u8> = (0..16).filter(|&i| mask & (1 << i) != 0).collect();
        for (n, &want) in ascending.iter().enumerate() {
            assert_eq!(nth_set_bit(mask, n), want);
        }
        assert_eq!(nth_set_bit(1, 0), 0);
        assert_eq!(nth_set_bit(0x8000, 0), 15);
        assert_eq!(nth_set_bit(1u64 << 40, 0), 40, "beyond the old u16 width");
    }

    #[test]
    fn low_mask_widths() {
        assert_eq!(low_mask(0), 0);
        assert_eq!(low_mask(3), 0b111);
        assert_eq!(low_mask(16), u64::from(u16::MAX));
        assert_eq!(low_mask(40), (1u64 << 40) - 1);
    }

    #[test]
    fn status_masks_track_lifecycle() {
        let mut m = BucketMeta::new(6);
        assert_eq!(m.status(0), SlotStatus::Refreshed);
        assert_eq!(m.not_refreshed_mask(), 0);
        m.set_status(2, SlotStatus::Dead);
        m.set_status(4, SlotStatus::Dead);
        assert_eq!(m.dead_mask(), 0b10100);
        m.set_status(2, SlotStatus::Allocated);
        assert_eq!(m.status(2), SlotStatus::Allocated);
        assert_eq!(m.dead_mask(), 0b10000);
        assert_eq!(m.not_refreshed_mask(), 0b10100);
        m.reset_statuses();
        assert_eq!(m.not_refreshed_mask(), 0);
        assert_eq!(m.status(4), SlotStatus::Refreshed);
    }

    #[test]
    fn unoccupied_mask_complements_entries() {
        let mut m = BucketMeta::new(4);
        assert_eq!(m.unoccupied_mask(), 0b1111);
        m.push_entry(RealEntry { addr: 1, label: PathId::new(0), ptr: 0 });
        m.push_entry(RealEntry { addr: 2, label: PathId::new(0), ptr: 3 });
        assert_eq!(m.unoccupied_mask(), 0b0110);
        m.clear_entries();
        assert_eq!(m.unoccupied_mask(), 0b1111);
        assert!(m.entries().is_empty());
    }

    #[test]
    fn store_resolves_borrowed_slots() {
        let geo = TreeGeometry::uniform(4, LevelConfig::new(2, 1)).unwrap();
        let mut store = MetadataStore::new(&geo);
        assert_eq!(store.len(), 15);
        let b = BucketId::from_level_index(Level(3), 2);
        let foreign = SlotId::new(BucketId::from_level_index(Level(3), 5), 1);
        {
            let m = store.get_mut(b);
            m.borrowed.push(foreign);
            m.logical_slots = m.own_slots() + 1;
        }
        assert_eq!(store.resolve(b, 0), SlotId::new(b, 0));
        assert_eq!(store.resolve(b, 3), foreign);
    }

    #[test]
    fn remote_boundary_is_own_slot_count() {
        let mut m = BucketMeta::new(6);
        m.borrowed.push(SlotId::new(BucketId::new(3), 1));
        m.logical_slots = 7;
        assert!(!m.is_remote(5));
        assert!(m.is_remote(6));
    }

    /// §VIII-H: Ring metadata ≈ 33 B, AB-ORAM extra ≤ 28 B with R = 6, both
    /// fitting one 64 B block.
    #[test]
    fn paper_metadata_fits_one_block() {
        let geo = TreeGeometry::uniform(24, LevelConfig::new(5, 7)).unwrap();
        let layout = MetadataLayout::for_geometry(&geo, Level(23), 6);
        let ring_bytes = layout.ring_bits() as f64 / 8.0;
        let extra_bytes = layout.aboram_extra_bits() as f64 / 8.0;
        assert!(
            (30.0..=37.0).contains(&ring_bytes),
            "ring metadata {ring_bytes:.1} B vs paper's 33 B"
        );
        assert!(extra_bytes <= 28.0, "AB extra {extra_bytes:.1} B vs paper's 28 B budget");
        assert!(layout.aboram_total_bits() <= 64 * 8);
    }

    #[test]
    fn ceil_log2_basics() {
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(1 << 24), 24);
    }
}

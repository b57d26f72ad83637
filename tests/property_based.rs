//! Property-based tests over the core data structures and the whole
//! protocol: arbitrary workloads and geometries must preserve the DESIGN.md
//! §5 invariants.

use aboram::core::{AccessKind, CountingSink, OramConfig, RingOram, Scheme};
use aboram::crypto::{BlockCipher, BLOCK_BYTES};
use aboram::tree::{
    reverse_lex_path, BucketId, LevelConfig, PathId, PhysicalLayout, SlotId, TreeGeometry,
};
use proptest::prelude::*;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::PlainRing),
        Just(Scheme::Baseline),
        Just(Scheme::Ir),
        Just(Scheme::DR),
        Just(Scheme::NS),
        Just(Scheme::Ab),
        (1u8..=6).prop_map(|b| Scheme::Dr { bottom_levels: b }),
        (1u8..=4, 1u8..=3).prop_map(|(y, x)| Scheme::Ns { bottom_levels: y, shrink: x }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any scheme, any seed, any workload: blocks remain reachable and the
    /// access sequence completes without protocol failure.
    #[test]
    fn random_workloads_preserve_reachability(
        scheme in arb_scheme(),
        seed in 0u64..1_000,
        accesses in 200usize..800,
    ) {
        let cfg = OramConfig::builder(9, scheme).seed(seed).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        let blocks = cfg.real_block_count();
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        for _ in 0..accesses {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let b = (state >> 16) % blocks;
            oram.access(AccessKind::Read, b, None, &mut sink).unwrap();
        }
        // Spot-check reachability on a sample (full scan is O(N * L)).
        for b in (0..blocks).step_by(97) {
            prop_assert!(oram.check_block_reachable(b));
        }
    }

    /// Data integrity holds under arbitrary interleavings of reads and
    /// writes.
    #[test]
    fn random_rw_sequences_are_linearizable(
        seed in 0u64..1_000,
        ops in proptest::collection::vec((0u64..200, any::<bool>(), any::<u8>()), 50..200),
    ) {
        let cfg = OramConfig::builder(8, Scheme::Ab).store_data(true).seed(seed).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        let blocks = cfg.real_block_count();
        let mut reference = std::collections::HashMap::new();
        for (raw, is_write, byte) in ops {
            let b = raw % blocks;
            if is_write {
                let data = [byte; 64];
                oram.write(b, data, &mut sink).unwrap();
                reference.insert(b, data);
            } else {
                let got = oram.read(b, &mut sink).unwrap();
                let expect = reference.get(&b).copied().unwrap_or([0u8; 64]);
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// Tree geometry: every slot address is unique and in bounds for
    /// arbitrary non-uniform configurations.
    #[test]
    fn layout_addresses_unique(
        levels in 3u8..9,
        z_real in 1u8..5,
        s_top in 0u8..4,
        s_bottom in 0u8..4,
        bottom in 1u8..3,
    ) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(z_real, s_top))
            .unwrap()
            .override_bottom_levels(bottom.min(levels), LevelConfig::new(z_real, s_bottom))
            .unwrap();
        let layout = PhysicalLayout::new(&geo);
        let mut seen = std::collections::HashSet::new();
        for raw in 0..geo.bucket_count() {
            let bucket = aboram::tree::BucketId::new(raw);
            let z = geo.level_config(bucket.level()).z_total();
            for s in 0..z {
                let addr = layout.slot_addr(aboram::tree::SlotId::new(bucket, s)).unwrap();
                prop_assert!(addr.byte() < layout.data_bytes());
                prop_assert!(seen.insert(addr.byte()));
            }
        }
    }

    /// Reverse-lexicographic order visits every leaf exactly once per period
    /// from any starting counter.
    #[test]
    fn reverse_lex_period_property(levels in 2u8..12, start in 0u64..10_000) {
        let leaves = 1u64 << (levels - 1);
        let mut seen = std::collections::HashSet::new();
        for g in start..start + leaves {
            prop_assert!(seen.insert(reverse_lex_path(g, levels).leaf()));
        }
    }

    /// The cipher round-trips arbitrary blocks and rejects any single-bit
    /// corruption of the ciphertext.
    #[test]
    fn cipher_roundtrip_and_tamper(
        key in any::<[u8; 32]>(),
        data in any::<[u8; 32]>(),
        addr in any::<u64>(),
        ctr in any::<u64>(),
        flip_byte in 0usize..BLOCK_BYTES,
        flip_bit in 0u8..8,
    ) {
        let cipher = BlockCipher::new(key);
        let mut block = [0u8; BLOCK_BYTES];
        block[..32].copy_from_slice(&data);
        let sealed = cipher.seal(&block, addr, ctr);
        prop_assert_eq!(cipher.open(&sealed, addr, ctr).unwrap(), block);
        let mut bad = sealed;
        bad.ciphertext[flip_byte] ^= 1 << flip_bit;
        prop_assert!(cipher.open(&bad, addr, ctr).is_err());
    }

    /// Path/bucket addressing: a bucket is on a path iff the path routes
    /// through it.
    #[test]
    fn bucket_path_consistency(levels in 2u8..14, leaf_seed in any::<u64>()) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(2, 1)).unwrap();
        let path = PathId::new(leaf_seed % geo.leaf_count());
        let on_path: Vec<_> = geo.path_buckets(path).collect();
        for (l, bucket) in on_path.iter().enumerate() {
            prop_assert_eq!(bucket.level().index(), l as u8);
            prop_assert!(geo.bucket_is_on_path(*bucket, path));
        }
        // The sibling of the leaf bucket is never on the path (heap order:
        // children of p are 2p+1 and 2p+2, so odd nodes pair with raw + 1).
        let leaf = on_path.last().unwrap();
        let sibling_raw = if leaf.raw() % 2 == 1 { leaf.raw() + 1 } else { leaf.raw() - 1 };
        let sibling = aboram::tree::BucketId::new(sibling_raw);
        prop_assert!(!geo.bucket_is_on_path(sibling, path));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batched address computation: `slot_addrs` (which caches the level
    /// tables across a run of same-level slots) over an arbitrary slot
    /// sequence — same-bucket runs, bucket switches, level switches,
    /// repeats — equals one `slot_addr` call per slot on arbitrary
    /// non-uniform geometries.
    #[test]
    fn batched_slot_addrs_match_scalar(
        levels in 3u8..9,
        z_real in 1u8..5,
        s_top in 0u8..4,
        s_bottom in 0u8..4,
        bottom in 1u8..3,
        picks in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..200),
    ) {
        let geo = TreeGeometry::uniform(levels, LevelConfig::new(z_real, s_top))
            .unwrap()
            .override_bottom_levels(bottom.min(levels), LevelConfig::new(z_real, s_bottom))
            .unwrap();
        let layout = PhysicalLayout::new(&geo);
        let slots: Vec<SlotId> = picks
            .into_iter()
            .map(|(braw, s)| {
                let bucket = BucketId::new(braw % geo.bucket_count());
                let z = geo.level_config(bucket.level()).z_total();
                SlotId::new(bucket, s % z)
            })
            .collect();

        let mut batched = Vec::new();
        layout.slot_addrs(&slots, &mut batched).unwrap();
        let scalar: Vec<_> = slots.iter().map(|&s| layout.slot_addr(s).unwrap()).collect();
        prop_assert_eq!(batched, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The stash bound and the full metadata/DeadQ consistency rules
    /// (DESIGN.md §5) hold at every operation boundary, for every scheme,
    /// under arbitrary read/write workloads. `validate_invariants` checks:
    /// stash occupancy ≤ capacity; real blocks only in distinct own slots;
    /// no slot simultaneously valid and dead/reclaimed; borrowed slots are
    /// same-level, non-self, in the lender's range; DeadQ entries are
    /// level-consistent, in-bounds and within capacity.
    #[test]
    fn stash_and_metadata_invariants_hold_under_churn(
        scheme in arb_scheme(),
        seed in 0u64..1_000,
        accesses in 100usize..500,
    ) {
        let cfg = OramConfig::builder(9, scheme).seed(seed).build().unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        let blocks = cfg.real_block_count();
        oram.validate_invariants().map_err(TestCaseError::fail)?;
        let mut state = seed.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
        for i in 0..accesses {
            state = state.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
            oram.access(AccessKind::Read, (state >> 16) % blocks, None, &mut sink).unwrap();
            prop_assert!(oram.stash_len() <= cfg.stash_capacity,
                "stash bound violated after access {}", i);
            // Full metadata walk is O(N): sample it, then check at the end.
            if i % 97 == 0 {
                oram.validate_invariants().map_err(TestCaseError::fail)?;
            }
        }
        oram.validate_invariants().map_err(TestCaseError::fail)?;
    }

    /// Remote allocation specifically (DR/AB): after heavy churn drives
    /// DeadQ traffic and borrowing on the extension levels, lender/borrower
    /// metadata still agrees and reclaimed slots never resurface as live.
    #[test]
    fn remote_allocation_metadata_stays_consistent(
        bottom in 1u8..4,
        seed in 0u64..500,
    ) {
        let cfg = OramConfig::builder(9, Scheme::Dr { bottom_levels: bottom })
            .seed(seed)
            .build()
            .unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        let mut sink = CountingSink::new();
        let blocks = cfg.real_block_count();
        let mut state = seed.wrapping_add(1);
        for _ in 0..600 {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            oram.access(AccessKind::Read, (state >> 16) % blocks, None, &mut sink).unwrap();
        }
        oram.validate_invariants().map_err(TestCaseError::fail)?;
        // The workload must actually have exercised the remote machinery.
        prop_assert!(oram.deadqs().total_enqueued() > 0, "DeadQ never used — weak test");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// DESIGN.md §6: a FaultPlan is a pure function of its seed — the same
    /// seed replays the identical fault schedule, and a chaos run driven by
    /// it lands on identical recovery statistics.
    #[test]
    fn same_seed_fault_plan_replays_identically(
        fault_seed in any::<u64>(),
        oram_seed in 0u64..1_000,
        accesses in 100usize..400,
        flip_rate in 0u32..30,
        drop_rate in 0u32..30,
    ) {
        use aboram::core::{FaultConfig, FaultInjectingSink, FaultPlan, FaultSite};

        let fc = FaultConfig {
            data_bit_flip: f64::from(flip_rate) / 1_000.0,
            metadata_corruption: f64::from(flip_rate) / 2_000.0,
            dropped_write: f64::from(drop_rate) / 1_000.0,
            ..FaultConfig::default()
        };

        // The raw schedule replays: same seed, same draw sequence.
        let mut plan_a = FaultPlan::with_config(fault_seed, fc);
        let mut plan_b = FaultPlan::with_config(fault_seed, fc);
        for i in 0..500 {
            let site = match i % 3 {
                0 => FaultSite::Data,
                1 => FaultSite::Metadata,
                _ => FaultSite::WriteAck,
            };
            prop_assert_eq!(plan_a.draw(site), plan_b.draw(site), "draw {} diverged", i);
        }
        prop_assert_eq!(plan_a.stall_schedule(4), plan_b.stall_schedule(4));

        // And so does a whole engine run driven by the plan.
        let run = || {
            let cfg = OramConfig::builder(8, Scheme::Ab)
                .store_data(true)
                .seed(oram_seed)
                .build()
                .unwrap();
            let mut oram = RingOram::new(&cfg).unwrap();
            let mut sink = FaultInjectingSink::with_plan(
                CountingSink::new(),
                FaultPlan::with_config(fault_seed, fc),
            );
            let blocks = cfg.real_block_count();
            let mut state = oram_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for _ in 0..accesses {
                state = state.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
                oram.read((state >> 16) % blocks, &mut sink).unwrap();
            }
            (oram.stats().recovery, sink.injected(), sink.inner().clone())
        };
        let (rec_a, inj_a, traffic_a) = run();
        let (rec_b, inj_b, traffic_b) = run();
        prop_assert_eq!(rec_a, rec_b);
        prop_assert_eq!(inj_a, inj_b);
        prop_assert_eq!(traffic_a, traffic_b);
    }

    /// No false positives: with zero faults injected, arming the integrity
    /// verifier changes nothing observable — traffic, recovery stats and
    /// stash state are bit-identical to an unverified run, and the run ends
    /// healthy with an untainted digest chain.
    #[test]
    fn integrity_has_no_false_positives(
        oram_seed in 0u64..1_000,
        accesses in 100usize..400,
    ) {
        let cfg = OramConfig::builder(8, Scheme::Ab)
            .store_data(true)
            .seed(oram_seed)
            .build()
            .unwrap();
        let blocks = cfg.real_block_count();
        let run = |verify: bool| {
            let mut oram = RingOram::new(&cfg).unwrap();
            if verify {
                oram.enable_integrity();
            }
            let mut sink = CountingSink::new();
            let mut state = oram_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut digest = 0u64;
            for step in 0..accesses {
                state = state.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
                let b = (state >> 16) % blocks;
                if step % 4 == 0 {
                    oram.write(b, [state as u8; 64], &mut sink).unwrap();
                } else {
                    let data = oram.read(b, &mut sink).unwrap();
                    digest = digest.rotate_left(1) ^ u64::from(data[0]);
                }
            }
            (sink, oram.stats().recovery, oram.stash_len(), oram.health(), digest)
        };
        let (sink_off, rec_off, stash_off, _, digest_off) = run(false);
        let (sink_on, rec_on, stash_on, health_on, digest_on) = run(true);
        prop_assert_eq!(sink_off, sink_on, "verification must not touch traffic");
        prop_assert_eq!(rec_off, rec_on);
        prop_assert_eq!(stash_off, stash_on);
        prop_assert_eq!(digest_off, digest_on, "verification must not change data");
        prop_assert!(health_on.is_healthy(), "fault-free run must stay healthy");
        prop_assert!(rec_on.is_clean());
    }

    /// No false negatives, and every fault accounted: under an arbitrary
    /// nonzero fault schedule with the verifier armed, the run never aborts,
    /// every detection resolves as either a recovery or a reported
    /// unrecovered fault, and health is degraded exactly when recovery was
    /// incomplete (with the poisoned-subtree map agreeing).
    #[test]
    fn integrity_accounts_for_every_injected_fault(
        fault_seed in any::<u64>(),
        oram_seed in 0u64..1_000,
        accesses in 100usize..300,
        flip_rate in 1u32..800,
        drop_rate in 1u32..800,
    ) {
        use aboram::core::{FaultConfig, FaultInjectingSink, FaultPlan};

        let fc = FaultConfig {
            data_bit_flip: f64::from(flip_rate) / 1_000.0,
            metadata_corruption: f64::from(flip_rate) / 2_000.0,
            dropped_write: f64::from(drop_rate) / 1_000.0,
            ..FaultConfig::default()
        };
        let cfg = OramConfig::builder(8, Scheme::Ab)
            .store_data(true)
            .seed(oram_seed)
            .build()
            .unwrap();
        let mut oram = RingOram::new(&cfg).unwrap();
        oram.enable_integrity();
        let mut sink = FaultInjectingSink::with_plan(
            CountingSink::new(),
            FaultPlan::with_config(fault_seed, fc),
        );
        let blocks = cfg.real_block_count();
        let mut state = oram_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for step in 0..accesses {
            state = state.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
            let b = (state >> 16) % blocks;
            // The ladder must absorb everything: no access may error.
            if step % 4 == 0 {
                oram.write(b, [state as u8; 64], &mut sink).unwrap();
            } else {
                oram.read(b, &mut sink).unwrap();
            }
        }
        let rec = oram.stats().recovery;
        let injected = sink.injected().total();
        prop_assert!(injected > 0, "nonzero rates injected nothing — weak case");
        prop_assert!(rec.faults_detected() > 0, "injected faults went undetected");
        prop_assert!(injected >= rec.faults_detected(), "detected more than injected");
        prop_assert_eq!(
            rec.faults_detected(),
            rec.faults_recovered() + rec.unrecovered_faults,
            "every detection must resolve as recovered or reported"
        );
        let poisoned = oram.integrity().unwrap().poisoned_subtrees().len();
        prop_assert_eq!(
            oram.health().is_healthy(),
            rec.unrecovered_faults == 0,
            "health must flag exactly the incomplete recoveries"
        );
        prop_assert_eq!(
            poisoned > 0,
            rec.unrecovered_faults > 0,
            "poisoned subtrees must track unrecovered faults"
        );
    }
}

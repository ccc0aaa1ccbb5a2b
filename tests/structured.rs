//! Integration suite for the structured (BMMC) fast paths, plan fusion,
//! and the plan-validation sweep — the engine-level counterpart of
//! `crates/plan/tests/structured.rs`.
//!
//! Pins four things end to end:
//!
//! * **Byte identity** — for every affine paper family × {1K, 64K, 256K}
//!   × both forced backends, engine output equals both the naive
//!   reference and an engine whose planner is forced through the general
//!   König colorer.
//! * **The stats seam** — structured families plan with `builds == 0`
//!   and `plans_structured ≥ 1` on a store-less engine; random still
//!   König-colors (`builds ≥ 1`, `plans_structured == 0`).
//! * **Fusion** — a fused 2-chain of affine links executes as ONE
//!   structured plan, which the native backend runs as one tiled sweep
//!   (observed via `run_sweeps_timed`: sweep slots 2 and 3 stay zero)
//!   where the unfused pair pays two, with identical bytes.
//! * **Corruption rejection** — a bit-flipped gather map is refused with
//!   a typed error at every front door: `decode`, `PlanStore::load`, and
//!   `NativeScheduled::from_plan`.

use hmm_native::{as_native_scheduled, NativeScheduled, Route, SharedEngine};
use hmm_perm::{families, Permutation};
use hmm_plan::{PlanError, PlanIr, PlanStore, StoreKey};
use std::time::Duration;

const W: usize = 32;
const SIZES: [usize; 3] = [1 << 10, 1 << 16, 1 << 18];

/// The affine paper families — everything the recognizer must catch.
fn affine_families(n: usize) -> Vec<(&'static str, Permutation)> {
    vec![
        ("identity", families::identical(n)),
        ("shuffle", families::shuffle(n).unwrap()),
        ("transpose", families::transpose_square(n).unwrap()),
        ("bit-reversal", families::bit_reversal(n).unwrap()),
    ]
}

fn naive_reference(p: &Permutation, a: &[u32]) -> Vec<u32> {
    let mut b = vec![0u32; a.len()];
    for (i, &pi) in p.as_slice().iter().enumerate() {
        b[pi] = a[i];
    }
    b
}

fn input(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|v| v.wrapping_mul(0x9e37_79b9) ^ 0x5eed)
        .collect()
}

/// Route-forcing through the shared registry seam ([`hmm_native::forced_engine`]).
fn forced_engine(route: Route) -> SharedEngine<u32> {
    hmm_native::forced_engine::<u32>(W, route)
}

/// Structured families × sizes × both forced routes: the fast-path
/// engine output is byte-identical to the naive reference (and therefore
/// to the König-planned engines the conformance suite already pins).
#[test]
fn structured_output_is_byte_identical_on_both_routes() {
    for route in [Route::Scatter, Route::Scheduled] {
        for n in SIZES {
            let engine = forced_engine(route);
            for (name, p) in affine_families(n) {
                let src = input(n);
                let want = naive_reference(&p, &src);
                let plan = engine.plan(&p).unwrap();
                assert_eq!(plan.route(), route, "{name} n={n}");
                let mut dst = vec![0u32; n];
                engine.permute(&p, &src, &mut dst).unwrap();
                assert_eq!(dst, want, "{name} n={n} route={route:?}");
            }
        }
    }
}

/// The acceptance seam: on a store-less scheduled engine, every affine
/// family plans without a König coloring, and random without detection.
#[test]
fn structured_families_plan_without_koenig() {
    let n = 1 << 14;
    let engine = forced_engine(Route::Scheduled);
    let families = affine_families(n);
    for (_, p) in &families {
        engine.plan(p).unwrap();
    }
    let s = engine.stats();
    assert_eq!(s.builds, 0, "affine families must never König-color");
    assert_eq!(s.plans_structured, families.len() as u64);

    let engine = forced_engine(Route::Scheduled);
    engine.plan(&families::random(n, 99)).unwrap();
    let s = engine.stats();
    assert_eq!(s.builds, 1, "random permutations still König-color");
    assert_eq!(s.plans_structured, 0);
}

/// Fused 2-chain: one structured plan, run as one tiled sweep, same bytes
/// as running the two links separately (one sweep each, plus an extra
/// round trip through memory).
#[test]
fn fused_chain_runs_as_one_tiled_sweep() {
    let n = 1 << 14;
    let p1 = families::bit_reversal(n).unwrap();
    let p2 = families::transpose_square(n).unwrap();
    let engine = forced_engine(Route::Scheduled);
    // Pin the computed-index form (the default) whatever the process env.
    engine.set_kernel_config(hmm_native::KernelConfig::default());

    let src = input(n);
    let mut fused_out = vec![0u32; n];
    engine
        .permute_fused(&[&p1, &p2], &src, &mut fused_out)
        .unwrap();

    // Reference: the two links applied separately (two scheduled plans,
    // one sweep each).
    let mut mid = vec![0u32; n];
    let mut chained_out = vec![0u32; n];
    engine.permute(&p1, &src, &mut mid).unwrap();
    engine.permute(&p2, &mid, &mut chained_out).unwrap();
    assert_eq!(fused_out, chained_out);

    // The fused plan is ONE structured program: a single
    // `run_sweeps_timed` call reproduces the result, all of it in the
    // first slot (the one tiled sweep) — the second and third sweep
    // slots stay zero. The unfused pipeline needs two such calls.
    let fused_plan = engine.plan_fused(&[&p1, &p2]).unwrap();
    let sched = as_native_scheduled(&fused_plan)
        .expect("fused affine chain takes the native scheduled route");
    assert!(sched.computed_index(), "fused affine chain runs tiled");
    let mut dst = vec![0u32; n];
    let mut scratch = vec![0u32; n];
    let sweeps = sched.run_sweeps_timed(&src, &mut dst, &mut scratch);
    assert_eq!(sweeps[1..], [Duration::ZERO; 2], "one tiled sweep");
    assert_eq!(dst, fused_out);

    // Both links are affine, so the fusion itself stayed structured.
    let s = engine.stats();
    assert_eq!(s.builds, 0);
    assert!(s.plans_structured >= 3);
}

/// A fused chain of non-affine links still fuses (general ∘ general
/// composes pointwise, then plans once) and stays correct.
#[test]
fn fused_chain_of_general_permutations_is_correct() {
    let n = 1 << 12;
    let p1 = families::random(n, 7);
    let p2 = families::random(n, 8);
    let engine = forced_engine(Route::Scheduled);
    let src = input(n);
    let mut fused_out = vec![0u32; n];
    engine
        .permute_fused(&[&p1, &p2], &src, &mut fused_out)
        .unwrap();
    let mut mid = vec![0u32; n];
    let mut chained_out = vec![0u32; n];
    engine.permute(&p1, &src, &mut mid).unwrap();
    engine.permute(&p2, &mid, &mut chained_out).unwrap();
    assert_eq!(fused_out, chained_out);
    assert!(engine.permute_fused(&[], &src, &mut fused_out).is_err());
}

/// Computed-index acceptance, engine level: structured plans surface
/// `plans_affine`, the config snapshot reports the kernel form, and the
/// computed output is byte-identical to a map-load engine's.
#[test]
fn computed_index_engine_matches_map_load_engine() {
    let n = 1 << 16;
    assert!(
        hmm_native::KernelConfig::default().computed_index,
        "computed-index kernels are the default"
    );
    let computed = forced_engine(Route::Scheduled);
    // Pin the computed-index form (the default) whatever the process env.
    computed.set_kernel_config(hmm_native::KernelConfig::default());
    assert!(computed.stats().kernel_computed_index);
    let map_load = forced_engine(Route::Scheduled);
    map_load.set_kernel_config(hmm_native::KernelConfig {
        computed_index: false,
        ..hmm_native::KernelConfig::default()
    });
    for (name, p) in affine_families(n) {
        let src = input(n);
        let want = naive_reference(&p, &src);
        let mut a = vec![0u32; n];
        computed.permute(&p, &src, &mut a).unwrap();
        let mut b = vec![0u32; n];
        map_load.permute(&p, &src, &mut b).unwrap();
        assert_eq!(a, want, "{name}: computed vs naive");
        assert_eq!(a, b, "{name}: computed vs map-load");
    }
    let s = computed.stats();
    assert_eq!(s.plans_affine, affine_families(n).len() as u64);
    assert!(!map_load.stats().kernel_computed_index);

    // Random permutations carry no descriptors.
    let engine = forced_engine(Route::Scheduled);
    engine.plan(&families::random(1 << 12, 5)).unwrap();
    assert_eq!(engine.stats().plans_affine, 0);
}

/// Store-shrink acceptance: a structured plan persists descriptor-form
/// (O(log² n) bytes, not the 12n+ of three flat maps), and a cold
/// process loads it back with zero König colorings — the descriptors
/// rebuild the maps — with byte-identical output and `plans_affine`
/// still counted.
#[test]
fn structured_store_entries_are_descriptor_sized_and_cold_load_clean() {
    let n = 1 << 16;
    let dir = std::env::temp_dir().join(format!("hmm-structured-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = families::bit_reversal(n).unwrap();
    let src = input(n);
    let want = naive_reference(&p, &src);

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let mut dst = vec![0u32; n];
    warm.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, want);
    let entries = warm.store().unwrap().entries().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].bytes as usize,
        hmm_plan::compact_encoded_len(n),
        "structured plans persist compact"
    );
    assert!(
        entries[0].bytes < 1024,
        "a 64K-element structured plan is a few hundred bytes, got {}",
        entries[0].bytes
    );

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    cold.permute(&p, &src, &mut dst).unwrap();
    assert_eq!(dst, want, "store-served computed output must verify");
    let s = cold.stats();
    assert_eq!(s.builds, 0, "cold load never colors");
    assert_eq!(s.store_hits, 1);
    assert_eq!(s.plans_affine, 1, "loaded plan still carries descriptors");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite-1 regression: a bit-flipped gather map entry must be
/// rejected with a typed error on every front door, never mis-gathered
/// silently by the clamped SIMD tiers.
#[test]
fn corrupted_plans_are_rejected_at_every_front_door() {
    let n = 1 << 10;
    let p = families::random(n, 2024);
    let ir = PlanIr::build(&p, W).unwrap();

    // Front door 1: `NativeScheduled::from_plan` — in-memory corruption
    // of each pass's gather map yields `PlanError::Invalid`.
    for pass in 1..=3 {
        let mut bad = ir.clone();
        bad.corrupt_gather_entry_for_tests(pass, 17);
        let err = NativeScheduled::from_plan(&bad).unwrap_err();
        assert!(
            matches!(err, PlanError::Invalid { .. }),
            "pass {pass}: {err}"
        );
        assert!(!err.to_string().is_empty());
    }

    // Front door 2: `decode` — wire corruption (even a single flipped
    // bit) is caught before a plan object exists.
    let bytes = hmm_plan::encode(&ir);
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x04;
    assert!(matches!(
        hmm_plan::decode(&corrupt),
        Err(PlanError::Codec { .. })
    ));

    // Front door 3: `PlanStore::load` — the same corruption on disk.
    let dir = std::env::temp_dir().join(format!("hmm-structured-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    store.save(&ir).unwrap();
    let key = StoreKey::of(&ir);
    let path = store.path_for(&key);
    let mut on_disk = std::fs::read(&path).unwrap();
    let mid = on_disk.len() / 2;
    on_disk[mid] ^= 0x04;
    std::fs::write(&path, &on_disk).unwrap();
    let err = store.load(&key).unwrap_err();
    assert!(matches!(err, PlanError::Codec { .. }), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Differential suite for the structured (BMMC) fast paths: every plan
//! the closed-form emitter produces must be interchangeable with the
//! general König plan for the same permutation — same shape, width,
//! γ_w bits, fingerprint, and (the part that matters to executors) the
//! same realised permutation — across all five paper families and three
//! sizes. The coloring itself may differ: the fast path picks its own
//! conflict-free color assignment (`G·row ⊕ col`), so the proof of
//! equivalence is effect-level, checked here entry by entry.
//!
//! Also pins the composition algebra with a property test:
//! `compose(P2, P1)` applied once equals applying P1 then P2, for random
//! mixes of structured and general permutations.

use hmm_graph::Strategy as ColoringStrategy;
use hmm_perm::families::{self, Family};
use hmm_perm::scheduled_shape;
use hmm_perm::Permutation;
use hmm_plan::{PlanIr, PlanStore, StoreKey};
use proptest::prelude::*;

const W: usize = 32;
const SIZES: [usize; 3] = [1 << 10, 1 << 16, 1 << 18];

/// The five families of the paper's Table 1, sized to `n`.
fn paper_families(n: usize) -> Vec<(&'static str, Permutation)> {
    Family::ALL
        .iter()
        .map(|fam| (fam.name(), fam.build(n, 0xc0ffee ^ n as u64).unwrap()))
        .collect()
}

#[test]
fn structured_plans_interchangeable_with_koenig_for_all_families() {
    for n in SIZES {
        for (name, p) in paper_families(n) {
            let auto = PlanIr::build(&p, W).unwrap();
            let shape = scheduled_shape(n, W).unwrap();
            // Forcing an explicit strategy bypasses detection: this is
            // the genuine König reference even for structured families.
            let koenig = PlanIr::build_for_shape(&p, shape, W, ColoringStrategy::Hybrid).unwrap();
            assert_eq!(auto.shape(), koenig.shape(), "{name} n={n}");
            assert_eq!(auto.width(), koenig.width(), "{name} n={n}");
            assert_eq!(
                auto.gamma().to_bits(),
                koenig.gamma().to_bits(),
                "{name} n={n}"
            );
            assert_eq!(auto.fingerprint(), koenig.fingerprint(), "{name} n={n}");
            assert!(auto.matches(&p), "{name} n={n}");
            assert!(koenig.matches(&p), "{name} n={n}");
            assert_eq!(auto.recompose(), koenig.recompose(), "{name} n={n}");
            auto.validate().unwrap();
        }
    }
}

#[test]
fn structured_families_are_detected_random_is_not() {
    let n = 1 << 12;
    for (name, p) in paper_families(n) {
        let detected = PlanIr::build_structured(&p, W).is_some();
        let expected = name != "random";
        assert_eq!(detected, expected, "{name}");
    }
    // The omega-network stage (shuffle) and hypercube exchange are the
    // ISSUE's named extra families.
    assert!(PlanIr::build_structured(&families::shuffle(n).unwrap(), W).is_some());
    assert!(PlanIr::build_structured(&families::butterfly(n, 4).unwrap(), W).is_some());
    assert!(PlanIr::build_structured(&families::bit_reversal(n).unwrap(), W).is_some());
}

#[test]
fn structured_plans_round_trip_codec_and_store() {
    // The closed-form plans must survive the same persistence pipeline
    // as König plans: encode/decode plus a store save/load cycle.
    let n = 1 << 12;
    let p = families::bit_reversal(n).unwrap();
    let ir = PlanIr::build_structured(&p, W).unwrap().unwrap();
    let decoded = hmm_plan::decode(&hmm_plan::encode(&ir)).unwrap();
    assert_eq!(decoded, ir);
    let dir =
        std::env::temp_dir().join(format!("hmm-structured-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    store.save(&ir).unwrap();
    let loaded = store.load(&StoreKey::of(&ir)).unwrap().unwrap();
    assert_eq!(loaded, ir);
    assert!(loaded.matches(&p));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The derived whole-plan source map (`PlanIr::source_bmmc`) is the
/// inverse of the permutation's own affine map — for built plans, for
/// plans after a compact (descriptor-only) codec round trip, and for
/// fused plans — and König plans have none.
#[test]
fn source_bmmc_is_the_inverse_affine_map() {
    for n in [1 << 10, 1 << 12, 1 << 16] {
        let mut structured: Vec<(&str, Permutation)> = Family::ALL
            .iter()
            .filter(|fam| **fam != Family::Random)
            .map(|fam| (fam.name(), fam.build(n, 0).unwrap()))
            .collect();
        structured.push(("random_bmmc", families::random_bmmc(n, n as u64).unwrap()));
        let plans: Vec<PlanIr> = structured
            .iter()
            .map(|(_, p)| PlanIr::build(p, W).unwrap())
            .collect();
        for ((name, p), ir) in structured.iter().zip(&plans) {
            let want = p.as_bmmc().unwrap().inverse();
            assert_eq!(ir.source_bmmc(), Some(want.clone()), "{name} n={n}");
            let bytes = hmm_plan::encode(ir);
            assert_eq!(bytes.len(), hmm_plan::compact_encoded_len(n), "{name}");
            let decoded = hmm_plan::decode(&bytes).unwrap();
            assert_eq!(decoded.source_bmmc(), Some(want), "{name} n={n} decoded");
        }
        // Every fused pair of structured plans ("first, then second").
        for ((n1, p1), ir1) in structured.iter().zip(&plans) {
            for ((n2, p2), ir2) in structured.iter().zip(&plans) {
                let fused = ir2.compose(ir1).unwrap();
                let want = p2.compose(p1).as_bmmc().unwrap().inverse();
                assert_eq!(fused.source_bmmc(), Some(want), "{n2} ∘ {n1} n={n}");
            }
        }
        let shape = scheduled_shape(n, W).unwrap();
        let random = families::random(n, 3);
        let koenig = PlanIr::build(&random, W).unwrap();
        assert_eq!(koenig.source_bmmc(), None, "random n={n}");
        let forced = &structured[1].1;
        let forced = PlanIr::build_for_shape(forced, shape, W, ColoringStrategy::Hybrid).unwrap();
        assert_eq!(forced.source_bmmc(), None, "forced König n={n}");
    }
}

/// One permutation drawn from the full mix: structured families and
/// general (random) permutations, so composition exercises the
/// matrix-product path, the plan-once path, and the mixed path.
fn any_perm(n: usize) -> impl Strategy<Value = Permutation> {
    (0u8..6, any::<u64>()).prop_map(move |(kind, seed)| match kind {
        0 => Permutation::identity(n),
        1 => families::shuffle(n).unwrap(),
        2 => families::bit_reversal(n).unwrap(),
        3 => families::transpose_square(n).unwrap(),
        4 => families::butterfly(n, (seed % 10) as u32).unwrap(),
        _ => families::random(n, seed),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compose_once_equals_applying_p1_then_p2(
        (p1, p2, payload_seed) in (any_perm(1 << 10), any_perm(1 << 10), any::<u64>())
    ) {
        let n = 1 << 10;
        let plan1 = PlanIr::build(&p1, W).unwrap();
        let plan2 = PlanIr::build(&p2, W).unwrap();
        let fused = plan2.compose(&plan1).unwrap();
        fused.validate().unwrap();
        prop_assert!(fused.matches(&p2.compose(&p1)));
        let src: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ payload_seed)
            .collect();
        let mut mid = vec![0u64; n];
        let mut two_step = vec![0u64; n];
        p1.permute(&src, &mut mid).unwrap();
        p2.permute(&mid, &mut two_step).unwrap();
        let mut one_step = vec![0u64; n];
        fused.recompose().permute(&src, &mut one_step).unwrap();
        prop_assert_eq!(one_step, two_step);
    }
}

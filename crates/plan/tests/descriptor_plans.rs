//! Pins the descriptor-only representation of structured (BMMC) plans:
//! the closed-form build emits exactly the descriptors, γ_w and wire
//! bytes that fitting the materialized maps gives; the six maps stay
//! unmaterialized through build, codec and store until a consumer asks
//! for one; and fusing two descriptor plans equals planning the
//! composed permutation from scratch.

use hmm_perm::families::{self, Family};
use hmm_perm::Permutation;
use hmm_plan::{decode, encode, xxh64, AffineStep, PlanIr, PlanStore, StoreKey};

const W: usize = 32;

/// Every structured paper family plus two random affine permutations.
fn structured(n: usize) -> Vec<(String, Permutation)> {
    let mut out: Vec<(String, Permutation)> = Family::ALL
        .iter()
        .filter(|fam| **fam != Family::Random)
        .map(|fam| (fam.name().to_string(), fam.build(n, 0).unwrap()))
        .collect();
    for seed in [3u64, 7] {
        let p = families::random_bmmc(n, seed).unwrap();
        out.push((format!("random_bmmc/{seed}"), p));
    }
    out
}

fn le_bytes(map: &[u32]) -> Vec<u8> {
    map.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// `xxh64` of the encoded plan and of its six maps (step1..3, g1..g3),
/// captured from the map-filling builder that preceded the closed form.
/// The wire format and every materialized map are unchanged.
#[test]
fn encoded_bytes_and_maps_match_golden_hashes() {
    let cases: [(&str, Permutation, u64, Option<[u64; 6]>); 4] = [
        (
            "bit_reversal",
            families::bit_reversal(1 << 10).unwrap(),
            0xd282_2a36_7f68_c767,
            Some([
                0xca6e_de10_655e_6de2,
                0xff1e_461d_a79e_fa3d,
                0x8649_ef39_07d0_06ff,
                0xca6e_de10_655e_6de2,
                0x8649_ef39_07d0_06ff,
                0xff1e_461d_a79e_fa3d,
            ]),
        ),
        (
            "shuffle",
            families::shuffle(1 << 11).unwrap(),
            0xf31a_6b97_1d5a_8cd5,
            Some([
                0x043e_7f72_4b4e_2300,
                0xeba6_d1dc_f7a2_a5ad,
                0x58fa_f481_5b3e_f2fc,
                0x043e_7f72_4b4e_2300,
                0xe3ee_e608_3a99_e407,
                0x880d_0acd_5de9_e483,
            ]),
        ),
        (
            "random_bmmc",
            families::random_bmmc(1 << 12, 7).unwrap(),
            0x0c92_fa08_5740_2d1a,
            Some([
                0xf228_df61_8deb_483b,
                0x39a5_ff34_c9a4_37dd,
                0x8520_6645_6d38_bdd1,
                0xf228_df61_8deb_483b,
                0x3b6d_5cdd_824c_5f7d,
                0xc410_d907_59f3_3f11,
            ]),
        ),
        (
            "konig",
            families::random(1 << 10, 3),
            0x9718_010b_b53d_e092,
            None,
        ),
    ];
    for (name, p, encoded, maps) in cases {
        let ir = PlanIr::build(&p, W).unwrap();
        assert_eq!(xxh64(&encode(&ir)), encoded, "{name} encode()");
        assert_eq!(ir.affine().is_some(), maps.is_some(), "{name}");
        if let Some(maps) = maps {
            assert!(!ir.maps_materialized(), "{name}: encode materialized");
            let got = [
                ir.step1(),
                ir.step2(),
                ir.step3(),
                ir.gather1(),
                ir.gather2(),
                ir.gather3(),
            ]
            .map(|m| xxh64(&le_bytes(m)));
            assert_eq!(got, maps, "{name} maps");
        }
    }
}

#[test]
fn closed_form_descriptors_equal_fit_over_materialized_maps() {
    for n in [1usize << 10, 1 << 11, 1 << 16] {
        for (name, p) in structured(n) {
            let ir = PlanIr::build(&p, W).unwrap();
            let (r, c) = (ir.shape().rows, ir.shape().cols);
            let closed = ir.affine().expect("structured plan").clone();
            let fitted = [
                AffineStep::fit(ir.gather1(), c),
                AffineStep::fit(ir.gather2(), r),
                AffineStep::fit(ir.gather3(), c),
            ];
            assert_eq!(fitted.map(Option::unwrap), closed, "{name} n={n}");
            // The materialized plan still realises `p` through its maps,
            // and passes the full map-level contract.
            ir.validate().unwrap();
            assert_eq!(ir.recompose(), p, "{name} n={n}");
        }
    }
}

#[test]
fn descriptor_plans_stay_unmaterialized_through_build_codec_and_store() {
    let dir = std::env::temp_dir().join(format!("hmm-descriptor-plans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open(&dir).unwrap();
    for (name, p) in structured(1 << 12) {
        let ir = PlanIr::build_structured_par(&p, W, 4).unwrap().unwrap();
        assert!(!ir.maps_materialized(), "{name}: build");
        ir.validate().unwrap();
        assert!(ir.matches(&p), "{name}");
        assert!(!ir.maps_materialized(), "{name}: validate/matches");

        let decoded = decode(&encode(&ir)).unwrap();
        assert!(!decoded.maps_materialized(), "{name}: decode");
        assert_eq!(decoded, ir, "{name}");

        store.save(&ir).unwrap();
        let loaded = store.load(&StoreKey::of(&ir)).unwrap().unwrap();
        assert!(!loaded.maps_materialized(), "{name}: store load");
        assert_eq!(loaded.recompose(), p, "{name}");
        assert!(!loaded.maps_materialized(), "{name}: recompose");

        // A map request materializes; the plan still equals its
        // unmaterialized self and validates against its descriptors.
        assert_eq!(loaded.gather1().len(), p.len());
        assert!(loaded.maps_materialized(), "{name}: gather1");
        assert_eq!(loaded, ir, "{name}");
        loaded.validate().unwrap();
    }
    // König plans hold their maps from the start.
    let konig = PlanIr::build(&families::random(1 << 10, 5), W).unwrap();
    assert!(konig.maps_materialized());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fusing two descriptor plans composes their matrices; the result is
/// the plan `build_par` makes for the composed permutation, down to its
/// encoded bytes.
#[test]
fn fused_descriptor_plans_equal_planning_the_composite() {
    for n in [1usize << 10, 1 << 16] {
        let cases: Vec<(String, Permutation, PlanIr)> = structured(n)
            .into_iter()
            .filter(|(name, _)| !name.starts_with("random_bmmc"))
            .map(|(name, p)| {
                let ir = PlanIr::build(&p, W).unwrap();
                (name, p, ir)
            })
            .collect();
        for (n1, p1, ir1) in &cases {
            for (n2, p2, ir2) in &cases {
                let fused = ir2.compose_par(ir1, 2).unwrap();
                assert!(!fused.maps_materialized(), "{n2} ∘ {n1} n={n}");
                let want = PlanIr::build_par(&p2.compose(p1), W, 2).unwrap();
                let at = format!("{n2} ∘ {n1} n={n}");
                assert_eq!(fused.fingerprint(), want.fingerprint(), "{at}");
                assert_eq!(fused.affine(), want.affine(), "{at}");
                assert_eq!(fused.gamma().to_bits(), want.gamma().to_bits(), "{at}");
                assert_eq!(encode(&fused), encode(&want), "{at}");
            }
        }
    }
}

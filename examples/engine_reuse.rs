//! Reusing one machine across many permutations with the simulator's
//! `hmm_offperm::driver::Engine` API —
//! and permuting arrays whose sizes the paper's algorithm doesn't natively
//! support (any `n`, via identity-tail padding).
//!
//! This is the shape a downstream user wants: build once, permute many.
//!
//! ```text
//! cargo run --release -p hmm-bench --example engine_reuse
//! ```

use hmm_machine::{ElemWidth, MachineConfig};
use hmm_offperm::driver::{Algorithm, Engine};
use hmm_perm::families;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: one engine, many permutations, no per-run machine rebuild.
    let n = 1 << 14;
    let mut engine = Engine::new(MachineConfig::gtx680(ElemWidth::F32), n)?;
    let input: Vec<u64> = (0..n as u64).collect();

    println!("one engine, five permutations of n = {n}:");
    for fam in families::Family::ALL {
        let p = fam.build(n, 7)?;
        let report = engine.run(Algorithm::Scheduled, &p, &input, true)?;
        assert!(engine.verify(&p, &input)?);
        println!(
            "  {:<14} {:>8} time units, global footprint {:>8} words",
            fam.name(),
            report.time,
            engine.machine().global_len(),
        );
    }
    println!("(footprint is constant: per-run staging is reclaimed between runs)\n");

    // Part 2: arbitrary sizes — the paper assumes n = r·c with both
    // factors multiples of w; the padded form handles anything.
    println!("arbitrary sizes via identity-tail padding:");
    for n in [100usize, 1000, 5000, 100_000] {
        let p = families::random(n, n as u64);
        let input: Vec<u64> = (0..n as u64).collect();
        let mut engine = Engine::new(MachineConfig::pure(32, 512), n)?;
        let report = engine.run(Algorithm::Scheduled, &p, &input, true)?;
        assert!(engine.verify(&p, &input)?);
        let padded = hmm_offperm::PaddedScheduled::padded_len(n, 32);
        println!(
            "  n = {n:>7} -> padded to {padded:>7} ({:>4.0}% overhead), {} time units",
            (padded as f64 / n as f64 - 1.0) * 100.0,
            report.time
        );
    }
    Ok(())
}

//! An iterative radix-2 FFT whose data reordering is done by the library's
//! bit-reversal permutation — the application the paper cites for
//! bit-reversal (Section IV: "Bit-reversal is used for data reordering in
//! the FFT algorithms").
//!
//! The example computes an FFT two ways — (a) reordering with the
//! wall-clock scheduled permutation backend, (b) reordering with a plain
//! scatter — checks both against a naive O(n²) DFT on a small prefix, and
//! times the reordering step for both strategies.
//!
//! ```text
//! cargo run --release -p hmm-bench --example fft_bit_reversal
//! ```

use hmm_native::{scatter_permute, NativeScheduled};
use hmm_perm::families;
use std::time::Instant;

/// A complex number as a (re, im) pair — enough for a demo FFT.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct C(f64, f64);

impl C {
    fn mul(self, o: C) -> C {
        C(self.0 * o.0 - self.1 * o.1, self.0 * o.1 + self.1 * o.0)
    }
    fn add(self, o: C) -> C {
        C(self.0 + o.0, self.1 + o.1)
    }
    fn sub(self, o: C) -> C {
        C(self.0 - o.0, self.1 - o.1)
    }
}

/// In-place iterative Cooley-Tukey on bit-reversed input.
fn butterflies(data: &mut [C]) {
    let n = data.len();
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = C(ang.cos(), ang.sin());
        for base in (0..n).step_by(len) {
            let mut w = C(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[base + k];
                let v = data[base + k + len / 2].mul(w);
                data[base + k] = u.add(v);
                data[base + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// Naive DFT coefficient `k` (for verification).
fn dft_coeff(input: &[C], k: usize) -> C {
    let n = input.len();
    let mut acc = C(0.0, 0.0);
    for (t, &x) in input.iter().enumerate() {
        let ang = -2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
        acc = acc.add(x.mul(C(ang.cos(), ang.sin())));
    }
    acc
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 18;
    println!("FFT of n = {n} samples; reordering via the offline bit-reversal permutation\n");

    // A deterministic, structured test signal.
    let signal: Vec<C> = (0..n)
        .map(|t| {
            let x = t as f64 / n as f64;
            C(
                (2.0 * std::f64::consts::PI * 5.0 * x).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 50.0 * x).cos(),
                0.0,
            )
        })
        .collect();

    let p = families::bit_reversal(n)?;

    // (a) Reorder with the scheduled permutation on the native backend.
    let sched = NativeScheduled::build(&p, 32)?;
    let mut reordered_sched = vec![C::default(); n];
    let t = Instant::now();
    sched.run(&signal, &mut reordered_sched);
    let t_sched = t.elapsed();

    // (b) Reorder with a direct parallel scatter.
    let mut reordered_scatter = vec![C::default(); n];
    let t = Instant::now();
    scatter_permute(&signal, &p, &mut reordered_scatter);
    let t_scatter = t.elapsed();

    assert_eq!(reordered_sched, reordered_scatter);
    println!("reorder (scheduled):         {t_sched:.2?}");
    println!("reorder (direct scatter):   {t_scatter:.2?}");

    // Finish the FFT on the reordered data and verify a few bins against
    // the naive DFT.
    let mut spectrum = reordered_sched;
    butterflies(&mut spectrum);
    for k in [0usize, 1, 5, 50, 51] {
        let want = dft_coeff(&signal, k);
        let got = spectrum[k];
        let err = ((got.0 - want.0).powi(2) + (got.1 - want.1).powi(2)).sqrt();
        assert!(err < 1e-6 * n as f64, "bin {k}: {got:?} vs {want:?}");
    }
    println!("\nFFT verified against naive DFT on bins 0, 1, 5, 50, 51.");
    let mag5 = (spectrum[5].0.powi(2) + spectrum[5].1.powi(2)).sqrt() / (n as f64 / 2.0);
    let mag50 = (spectrum[50].0.powi(2) + spectrum[50].1.powi(2)).sqrt() / (n as f64 / 2.0);
    println!("peaks: |X[5]| = {mag5:.3} (expect 1.0), |X[50]| = {mag50:.3} (expect 0.5)");
    Ok(())
}

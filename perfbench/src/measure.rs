//! Shared measurement plumbing: seeded inputs, the naive reference,
//! quantiles, the operation ledger, the hardware/configuration record
//! and the metric report.

use hmm_perm::Permutation;
use std::fmt::Write as _;
use std::time::Instant;

/// Schedule width every engine and server in the benchmark uses (the
/// paper's warp width, as in the reproduction harness).
pub const WIDTH: usize = 32;

/// SplitMix64: the benchmark's one source of seeded values.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `k`-th seed derived from a workload seed.
pub fn derive(seed: u64, k: u64) -> u64 {
    mix(seed ^ mix(k))
}

/// Seeded payload of `n` elements.
pub fn payload<T: From<u32>>(n: usize, seed: u64) -> Vec<T> {
    (0..n as u64)
        .map(|i| T::from(mix(seed ^ i.wrapping_mul(0x9e37)) as u32))
        .collect()
}

/// The naive `b[P[i]] = a[i]` result every timed output is checked against.
pub fn reference<T: Copy + Default>(p: &Permutation, src: &[T]) -> Vec<T> {
    let mut out = vec![T::default(); src.len()];
    for (i, &d) in p.as_slice().iter().enumerate() {
        out[d] = src[i];
    }
    out
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q` in [0, 1] of unsorted samples; NaN
/// (reported as unmeasured) for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Operations attempted and failed. A failure is an `Err`, a typed
/// server error, a wrong output, or a broken ledger assertion.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: FAILED: {what}");
            }
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Size in bytes of the unified cache at `level` as sysfs reports it for
/// cpu0, or 0 when unknown.
fn cache_bytes(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .filter_map(|i| {
            let dir = format!("{base}/index{i}");
            let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let kind = std::fs::read_to_string(format!("{dir}/type")).ok()?;
            if lvl.trim().parse::<u32>().ok()? != level || kind.trim() == "Instruction" {
                return None;
            }
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (num, mult) = match size.strip_suffix('K') {
                Some(k) => (k, 1u64 << 10),
                None => match size.strip_suffix('M') {
                    Some(m) => (m, 1 << 20),
                    None => (size, 1),
                },
            };
            Some(num.parse::<u64>().ok()? * mult)
        })
        .next()
        .unwrap_or(0)
}

/// Environment variables that change what the library measures. The
/// benchmark refuses to run when any is set, so a parent and a change are
/// always measured under the same configuration.
pub const PINNED_ENV: [&str; 5] = [
    hmm_native::SIMD_ENV,
    hmm_native::COMPUTED_INDEX_ENV,
    hmm_native::BACKEND_ENV,
    hmm_native::THREADS_ENV,
    hmm_native::CALIBRATE_ENV,
];

/// The configuration and hardware the run measured, as one JSON object:
/// core count, the worker pool's thread count, AVX2 detection, the kernel
/// configuration in use, and the L2/L3 sizes next to the workload's
/// working-set bytes.
pub fn record_json(workload: &str, working_set_bytes: u64) -> String {
    let kernel = hmm_native::KernelConfig::global();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let l2 = cache_bytes(2);
    let l3 = cache_bytes(3);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"nproc\":{nproc},\"worker_threads\":{},\"avx2\":{avx2},\
         \"kernel\":{{\"simd\":{},\"prefetch\":{},\"computed_index\":{},\"stage_bytes\":{},\"tile\":{},\"depth\":{}}},\
         \"l2_bytes\":{l2},\"l3_bytes\":{l3},\"working_set_bytes\":{working_set_bytes},\
         \"exceeds_l2\":{},\"exceeds_l3\":{}}}",
        hmm_native::par::worker_threads(),
        kernel.simd,
        kernel.prefetch,
        kernel.computed_index,
        kernel.stage_bytes,
        kernel.tile,
        kernel.depth,
        l2 > 0 && working_set_bytes > l2,
        l3 > 0 && working_set_bytes > l3,
    );
    out
}

/// Metrics in the order they were pushed, each with its unit and the
/// number of samples behind it.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str, usize)>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// Human-readable table on stdout, then the result object as the last
    /// line, holding exactly the metrics named in `keep`. A metric the run
    /// could not measure (because an operation it needs failed) is
    /// reported as 0 and counted as one more failed operation.
    pub fn print(&self, mut ledger: Ledger, keep: &[&str]) {
        for (name, value, unit, samples) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit:<7} (n={samples})");
        }
        let mut fields = Vec::new();
        for name in keep {
            match self
                .metrics
                .iter()
                .find(|m| m.0 == *name && m.1.is_finite())
            {
                Some((_, value, unit, _)) => fields.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                )),
                None => {
                    ledger.check(false, &format!("metric {name} was not measured"));
                    fields.push(format!("\"{name}\": {{\"value\": 0, \"unit\": \"none\"}}"));
                }
            }
        }
        let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
        println!(
            "{:<34} {error_rate:>16.6} {:<7} (n={})",
            "error_rate", "ratio", ledger.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            ledger.failed == 0,
            ledger.attempted.max(1),
            ledger.failed,
            fields.join(", ")
        );
    }
}

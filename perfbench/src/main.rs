//! The repository benchmark. One command runs one named workload through
//! the library's public front doors, checks every timed output against the
//! naive `b[P[i]] = a[i]` reference, and prints every metric by name with
//! its unit. The last line of standard output is the result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_4m|tcp_64k|cold_64k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload with spans recorded around each layer call, plus standalone
//! per-layer probes, and reports the per-layer metrics; the spans are
//! written to `.perfbench/trace/<workload>-seed<n>.json`.

mod cold;
mod hot;
mod measure;
mod probes;
mod tcp;
mod trace;

use measure::{median, quantile, Ledger, Report};
use std::path::PathBuf;
use trace::{durations, self_times, Span};

/// End-to-end metrics, in the order the result object lists them.
const END_TO_END: [&str; 5] = [
    "throughput_elems_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics of the traced run, in the order the result object
/// lists them. Every workload reports every one.
const PER_LAYER: [&str; 63] = [
    "perm.fingerprint_ms",
    "perm.as_bmmc_ms",
    "plan.build_konig_ms",
    "plan.build_structured_ms",
    "plan.encode_ms",
    "plan.decode_ms",
    "plan.encode_structured_ms",
    "plan.decode_structured_ms",
    "store.save_ms",
    "store.load_ms",
    "store.save_structured_ms",
    "store.load_structured_ms",
    "store.entry_bytes",
    "store.entry_structured_bytes",
    "backend.prepare_ms",
    "backend.prepare_structured_ms",
    "engine.plan_ms",
    "engine.run_plan_ms",
    "engine.queue_overhead_ms",
    "sweep.gather1_ms",
    "sweep.gather2_ms",
    "sweep.row_ms",
    "sweep.gather1_structured_ms",
    "sweep.gather2_structured_ms",
    "sweep.row_structured_ms",
    "copy.ms",
    "sweep.gather1_x_copy",
    "sweep.gather2_x_copy",
    "sweep.row_x_copy",
    "sweep.gather1_structured_x_copy",
    "sweep.gather2_structured_x_copy",
    "sweep.row_structured_x_copy",
    "sweep.bytes_computed",
    "sweep.bytes_computed_structured",
    "baseline.scatter_ms",
    "baseline.gather_ms",
    "engine.hits",
    "engine.misses",
    "engine.builds",
    "engine.plans_structured",
    "engine.plans_affine",
    "engine.store_hits",
    "engine.store_rejects",
    "engine.collisions",
    "engine.scheduled_runs",
    "engine.scatter_runs",
    "engine.hit_ratio",
    "proto.encode_ms",
    "proto.decode_ms",
    "server.wire_tax_ms",
    "server.submitted",
    "server.completed",
    "server.cancelled",
    "server.admission_rejects",
    "server.conn_rejects",
    "server.idle_disconnects",
    "server.hits",
    "server.misses",
    "trace.untraced_p50_ms",
    "trace.traced_p50_ms",
    "trace.overhead_ratio",
    "trace.layer_share",
    "trace.request_self_ms",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory inside `.perfbench/`, removed at exit.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["hot_4m", "tcp_64k", "cold_64k"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let work_dir = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// Samples behind the end-to-end metrics of one run.
pub struct EndToEnd {
    /// One entry per set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each headline request, in ms.
    pub latency_ms: Vec<f64>,
    /// Latency of each store-hit request (`cold_64k` only), in ms.
    pub store_load_ms: Vec<f64>,
    /// Latency of every timed request, per caller, in the order sent.
    pub per_caller_ms: Vec<Vec<f64>>,
    /// Elements each request permutes.
    pub n: usize,
}

/// Slices each caller's requests are cut into for the throughput median.
const THROUGHPUT_SLICES: usize = 10;

impl EndToEnd {
    pub fn push(&self, rep: &mut Report) {
        // Elements per second of caller time inside requests, so the
        // benchmark's own input generation and output checks are excluded.
        // It is taken over consecutive slices of each caller's requests and
        // the median slice is reported, so one disturbed second of a
        // shared host does not decide the run.
        let callers = self.per_caller_ms.len() as f64;
        let mut rates = Vec::new();
        for lat in &self.per_caller_ms {
            let len = lat.len().div_ceil(THROUGHPUT_SLICES).max(1);
            for slice in lat.chunks(len) {
                let busy_s = slice.iter().sum::<f64>() / 1e3;
                rates.push((self.n * slice.len()) as f64 * callers / busy_s);
            }
        }
        let n = self.latency_ms.len();
        rep.push(
            "throughput_elems_per_s",
            median(&rates),
            "elem/s",
            rates.len(),
        );
        rep.push("latency_p50_ms", median(&self.latency_ms), "ms", n);
        rep.push("latency_p90_ms", quantile(&self.latency_ms, 0.9), "ms", n);
        if !self.store_load_ms.is_empty() {
            let m = self.store_load_ms.len();
            rep.push("store_load_p50_ms", median(&self.store_load_ms), "ms", m);
        }
        rep.push("setup_s", median(&self.setup_s), "s", self.setup_s.len());
    }
}

/// Per-layer figures derived from the traced requests: the engine layers'
/// medians, the tracing overhead against the untraced half of the run, the
/// share of the untraced p50 the engine layers account for, and the
/// request's self time outside the layer spans.
pub fn push_trace_summary(rep: &mut Report, spans: &[Span], untraced_p50: f64) {
    let requests = durations(spans, "request");
    let traced_p50 = median(&requests);
    let plan = durations(spans, "engine.plan");
    let run = durations(spans, "engine.run_plan");
    let (plan_ms, run_ms) = (median(&plan), median(&run));
    rep.push("engine.plan_ms", plan_ms, "ms", plan.len());
    rep.push("engine.run_plan_ms", run_ms, "ms", run.len());
    rep.push("trace.untraced_p50_ms", untraced_p50, "ms", 1);
    rep.push("trace.traced_p50_ms", traced_p50, "ms", requests.len());
    rep.push(
        "trace.overhead_ratio",
        traced_p50 / untraced_p50,
        "ratio",
        requests.len(),
    );
    rep.push(
        "trace.layer_share",
        (plan_ms + run_ms) / untraced_p50,
        "ratio",
        plan.len(),
    );
    let own = self_times(spans, "request");
    rep.push("trace.request_self_ms", median(&own), "ms", own.len());
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <hot_4m|tcp_64k|cold_64k> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let pinned: Vec<&str> = measure::PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: parent and change must be measured \
             under the same library configuration",
            pinned.join(", ")
        );
        std::process::exit(2);
    }
    std::fs::create_dir_all(&args.work_dir).expect("create the benchmark's scratch directory");

    let mut rep = Report::default();
    let mut ledger = Ledger::default();
    let mut spans = Vec::new();
    let working_set = match args.workload.as_str() {
        "hot_4m" => {
            hot::run(&args, &mut rep, &mut ledger, &mut spans);
            hot::WORKING_SET_BYTES
        }
        "tcp_64k" => {
            tcp::run(&args, &mut rep, &mut ledger, &mut spans);
            tcp::WORKING_SET_BYTES
        }
        _ => {
            cold::run(&args, &mut rep, &mut ledger, &mut spans);
            cold::WORKING_SET_BYTES
        }
    };
    rep.push("peak_rss_mib", measure::peak_rss_mib(), "MiB", 1);
    let _ = std::fs::remove_dir_all(&args.work_dir);

    let record = measure::record_json(&args.workload, working_set);
    eprintln!("perfbench: record {record}");
    if args.trace {
        let dir = PathBuf::from(".perfbench").join("trace");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let body = format!(
            "{{\"record\":{record},\n\"spans\":{}}}\n",
            trace::to_json(&spans)
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        rep.print(ledger, &PER_LAYER);
    } else {
        rep.print(ledger, &END_TO_END);
    }
}

//! `hot_4m`: in-process `SharedEngine::<u32>::permute` at n = 4M, one
//! blocking caller, round-robin over three plans resolved during set-up.

use crate::measure::{derive, median, ms_since, payload, reference, Ledger, Report, WIDTH};
use crate::probes::{self, ProbeInputs};
use crate::trace::{Span, Tracer};
use crate::{push_trace_summary, Args, EndToEnd};
use hmm_native::SharedEngine;
use hmm_perm::{families, Permutation};
use std::time::{Duration, Instant};

const N: usize = 1 << 22;
const SETUP_REPS: usize = 3;

/// Bytes the timed loop touches: the source, the output and the
/// engine's scratch array.
pub const WORKING_SET_BYTES: u64 = 3 * 4 * N as u64;

struct Inputs {
    /// `random` (König), `bit-reversal` and `random_bmmc` (structured).
    perms: [Permutation; 3],
    src: Vec<u32>,
    expect: [Vec<u32>; 3],
}

fn inputs(seed: u64) -> Inputs {
    let perms = [
        families::random(N, derive(seed, 1)),
        families::bit_reversal(N).expect("n is a power of two"),
        families::random_bmmc(N, derive(seed, 2)).expect("n is a power of two"),
    ];
    let src = payload(N, derive(seed, 3));
    let expect = [
        reference(&perms[0], &src),
        reference(&perms[1], &src),
        reference(&perms[2], &src),
    ];
    Inputs { perms, src, expect }
}

/// Construct an engine and resolve the three plans; the median of
/// `SETUP_REPS` set-ups is reported, the last engine is kept.
fn setup(inp: &Inputs, ledger: &mut Ledger) -> (SharedEngine<u32>, Vec<f64>) {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t = Instant::now();
        let e = SharedEngine::<u32>::new(WIDTH);
        for p in &inp.perms {
            ledger.check(e.plan(p).is_ok(), "hot_4m set-up plan");
        }
        times.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), times)
}

/// The untraced closed loop: `permute` round-robin until `window` ends.
fn untraced(
    engine: &SharedEngine<u32>,
    inp: &Inputs,
    window: Duration,
    ledger: &mut Ledger,
) -> Vec<f64> {
    let mut dst = vec![0u32; N];
    let mut lat = Vec::new();
    let end = Instant::now() + window;
    let mut i = 0;
    while Instant::now() < end {
        let k = i % 3;
        let t = Instant::now();
        let r = engine.permute(&inp.perms[k], &inp.src, &mut dst);
        lat.push(ms_since(t));
        ledger.check(r.is_ok() && dst == inp.expect[k], "hot_4m permute output");
        i += 1;
    }
    lat
}

pub fn run(args: &Args, rep: &mut Report, ledger: &mut Ledger, spans: &mut Vec<Span>) {
    let inp = inputs(args.seed);
    let (engine, setup_s) = setup(&inp, ledger);
    let window = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let lat = untraced(&engine, &inp, window, ledger);
        EndToEnd {
            setup_s,
            per_caller_ms: vec![lat.clone()],
            latency_ms: lat,
            store_load_ms: Vec::new(),
            n: N,
        }
        .push(rep);
        return;
    }

    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let base = untraced(&engine, &inp, window / 2, ledger);
    // The traced request calls `plan` then `run_plan`, which is exactly
    // what `permute` does.
    let before = engine.stats();
    let mut dst = vec![0u32; N];
    let end = Instant::now() + window / 2;
    let mut req = 0u64;
    while Instant::now() < end {
        let k = req as usize % 3;
        req += 1;
        let root = tr.enter("request", 0, req);
        let plan = tr.span("engine.plan", root, req, || engine.plan(&inp.perms[k]));
        if let Ok(plan) = &plan {
            tr.span("engine.run_plan", root, req, || {
                engine.run_plan(plan, &inp.src, &mut dst)
            });
        }
        tr.exit(root);
        ledger.check(plan.is_ok() && dst == inp.expect[k], "hot_4m traced output");
    }
    probes::push_engine_counts(rep, before, engine.stats());
    drop(engine);
    push_trace_summary(rep, tr.spans(), median(&base));

    probes::run(
        &ProbeInputs {
            konig: &inp.perms[0],
            structured: &inp.perms[2],
            src: &inp.src,
            reps: 3,
            konig_builds: 1,
            dir: &args.work_dir,
        },
        &mut tr,
        ledger,
        rep,
    );
    probes::wire_tax(
        &[&inp.perms[1], &inp.perms[2]],
        derive(args.seed, 4),
        3,
        &mut tr,
        ledger,
        rep,
    );
    spans.extend(tr.into_spans());
}

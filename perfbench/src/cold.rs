//! `cold_64k`: two store-backed engines on one fresh plan store, fed a
//! seeded stream of permutations at n = 64K. Engine A resolves and runs
//! permutations it has never seen (`random` König plans and `random_bmmc`
//! structured plans at 1:3), building and saving each; interleaved with
//! it, engine B resolves each permutation A just saved, so every B
//! request is a store load.

use crate::measure::{derive, median, ms_since, payload, reference, Ledger, Report, WIDTH};
use crate::probes::{self, ProbeInputs};
use crate::trace::{Span, Tracer};
use crate::{push_trace_summary, Args, EndToEnd};
use hmm_native::SharedEngine;
use hmm_perm::{families, Permutation};
use hmm_plan::StoreKey;
use std::path::Path;
use std::time::{Duration, Instant};

const N: usize = 1 << 16;
const SETUP_REPS: usize = 9;

/// Per request: the source, the output and the engine's scratch array.
pub const WORKING_SET_BYTES: u64 = 3 * 4 * N as u64;

/// Permutation `j` of the stream: every fourth is `random` (König), the
/// rest `random_bmmc` (structured).
fn stream(seed: u64, j: u64) -> Permutation {
    let s = derive(seed, 1000 + j);
    if j.is_multiple_of(4) {
        families::random(N, s)
    } else {
        families::random_bmmc(N, s).expect("n is a power of two")
    }
}

struct Engines {
    a: SharedEngine<u32>,
    b: SharedEngine<u32>,
}

/// Open a fresh store directory and both engines on it, then warm them
/// up: A resolves one König and one structured permutation from a stream
/// of its own, and B loads both from the store, so lazy start-up (the
/// worker pool, the scratch pool) finishes before timing. The median of
/// `SETUP_REPS` set-ups is reported, the last pair is kept.
fn setup(work: &Path, seed: u64, ledger: &mut Ledger) -> Option<(Engines, Vec<f64>)> {
    let warm = [
        families::random(N, derive(seed, 500)),
        families::random_bmmc(N, derive(seed, 501)).expect("n is a power of two"),
    ];
    let src: Vec<u32> = payload(N, derive(seed, 3));
    let expect: Vec<Vec<u32>> = warm.iter().map(|p| reference(p, &src)).collect();
    let mut dst = vec![0u32; N];
    let mut times = Vec::new();
    let mut kept = None;
    for r in 0..SETUP_REPS {
        drop(kept.take());
        let dir = work.join(format!("cold-store-{r}"));
        let t = Instant::now();
        let a = SharedEngine::<u32>::with_store(WIDTH, &dir);
        let b = SharedEngine::<u32>::with_store(WIDTH, &dir);
        let (Ok(a), Ok(b)) = (a, b) else {
            ledger.check(false, "cold_64k store open");
            return None;
        };
        let mut ok = Vec::new();
        for (p, e) in warm.iter().zip(&expect) {
            for engine in [&a, &b] {
                ok.push(engine.permute(p, &src, &mut dst).is_ok() && dst == *e);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        for good in ok {
            ledger.check(good, "cold_64k warm-up output");
        }
        kept = Some(Engines { a, b });
    }
    Some((kept?, times))
}

/// Latencies of engine A's first-sight requests and engine B's store
/// hits over one window, and of both in the order sent.
#[derive(Default)]
struct Window {
    first_sight: Vec<f64>,
    store_hit: Vec<f64>,
    all: Vec<f64>,
}

/// Run the interleaved stream from request `*next` until `window` ends.
/// With a tracer, A's requests record `engine.plan` and `engine.run_plan`
/// spans under `request` roots, B's the `_store_hit` variants under
/// `store.request` roots.
fn run_window(
    e: &Engines,
    seed: u64,
    next: &mut u64,
    window: Duration,
    mut tr: Option<&mut Tracer>,
    ledger: &mut Ledger,
) -> Window {
    let src: Vec<u32> = payload(N, derive(seed, 3));
    let mut dst = vec![0u32; N];
    let mut out = Window::default();
    let end = Instant::now() + window;
    while Instant::now() < end {
        let j = *next;
        *next += 1;
        let p = stream(seed, j);
        let expect = reference(&p, &src);
        for (engine, [root_name, plan_name, run_name], lat) in [
            (
                &e.a,
                ["request", "engine.plan", "engine.run_plan"],
                &mut out.first_sight,
            ),
            (
                &e.b,
                [
                    "store.request",
                    "engine.plan_store_hit",
                    "engine.run_plan_store_hit",
                ],
                &mut out.store_hit,
            ),
        ] {
            let req = j + 1;
            let t = Instant::now();
            let ok = match tr.as_mut() {
                None => engine.permute(&p, &src, &mut dst).is_ok(),
                Some(tr) => {
                    let root = tr.enter(root_name, 0, req);
                    let plan = tr.span(plan_name, root, req, || engine.plan(&p));
                    if let Ok(plan) = &plan {
                        tr.span(run_name, root, req, || {
                            engine.run_plan(plan, &src, &mut dst)
                        });
                    }
                    tr.exit(root);
                    plan.is_ok()
                }
            };
            let ms = ms_since(t);
            lat.push(ms);
            out.all.push(ms);
            ledger.check(ok && dst == expect, "cold_64k output");
        }
        // Housekeeping outside the timed requests: drop the entry B just
        // loaded, so the store's size stays flat over the run.
        if let Some(store) = e.a.store() {
            let key = StoreKey {
                fingerprint: p.fingerprint(),
                n: N,
                width: WIDTH,
            };
            let _ = store.remove(&key);
        }
    }
    out
}

/// Engine B has never seen any permutation it resolves, so it must
/// never build one: every resolve is a store load.
fn check_b(b: &SharedEngine<u32>, ledger: &mut Ledger) {
    let s = b.stats();
    ledger.check(
        s.builds == 0 && s.plans_structured == 0,
        "engine B built a plan: builds == 0 broken",
    );
}

pub fn run(args: &Args, rep: &mut Report, ledger: &mut Ledger, spans: &mut Vec<Span>) {
    let Some((engines, setup_s)) = setup(&args.work_dir, args.seed, ledger) else {
        ledger.check(false, "cold_64k set-up");
        return;
    };
    let window = Duration::from_secs_f64(args.seconds);
    let mut next = 0;
    if !args.trace {
        let w = run_window(&engines, args.seed, &mut next, window, None, ledger);
        check_b(&engines.b, ledger);
        EndToEnd {
            setup_s,
            latency_ms: w.first_sight,
            store_load_ms: w.store_hit,
            per_caller_ms: vec![w.all],
            n: N,
        }
        .push(rep);
        return;
    }

    let origin = Instant::now();
    let mut tr = Tracer::new(origin, 0);
    let base = run_window(&engines, args.seed, &mut next, window / 2, None, ledger);
    let before = probes::sum_stats(engines.a.stats(), engines.b.stats());
    run_window(
        &engines,
        args.seed,
        &mut next,
        window / 2,
        Some(&mut tr),
        ledger,
    );
    check_b(&engines.b, ledger);
    probes::push_engine_counts(
        rep,
        before,
        probes::sum_stats(engines.a.stats(), engines.b.stats()),
    );
    drop(engines);
    push_trace_summary(rep, tr.spans(), median(&base.first_sight));

    let konig = families::random(N, derive(args.seed, 7));
    let structured = families::random_bmmc(N, derive(args.seed, 8)).expect("n is a power of two");
    let src: Vec<u32> = payload(N, derive(args.seed, 3));
    probes::run(
        &ProbeInputs {
            konig: &konig,
            structured: &structured,
            src: &src,
            reps: 9,
            konig_builds: 3,
            dir: &args.work_dir,
        },
        &mut tr,
        ledger,
        rep,
    );
    probes::wire_tax(
        &[&structured],
        derive(args.seed, 4),
        9,
        &mut tr,
        ledger,
        rep,
    );
    spans.extend(tr.into_spans());
}

//! `tcp_64k`: an in-process `hmm_server::Server` on 127.0.0.1 with two
//! blocking client threads, one connection each. Both sessions register
//! the same two permutations at u32 and u64, then send `PERMUTE` frames
//! that alternate width.

use crate::measure::{derive, median, ms_since, payload, reference, Ledger, Report, WIDTH};
use crate::probes::{self, ProbeInputs};
use crate::trace::{durations, Span, Tracer};
use crate::{push_trace_summary, Args, EndToEnd};
use hmm_native::SharedEngine;
use hmm_perm::{families, Permutation};
use hmm_server::{Client, PlanHandle, Server, ServerConfig};
use std::time::{Duration, Instant};

const N: usize = 1 << 16;
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 5;
/// In-process requests the wire tax is measured against.
const INPROC_REQUESTS: usize = 400;

/// Per request: the u32 or u64 payload, the reply, and the server's
/// scratch array, for the wider of the two element types.
pub const WORKING_SET_BYTES: u64 = 3 * 8 * N as u64;

/// Request `i` of client `c`: which permutation and which width. The
/// cycle alternates width on every frame; the second client starts half
/// a cycle later.
fn request_kind(c: usize, i: usize) -> (usize, bool) {
    const CYCLE: [(usize, bool); 4] = [(0, false), (1, true), (1, false), (0, true)];
    CYCLE[(i + 2 * c) % 4]
}

/// One client's payloads and expected outputs, per permutation.
struct Caller {
    src32: Vec<u32>,
    src64: Vec<u64>,
    expect32: [Vec<u32>; 2],
    expect64: [Vec<u64>; 2],
}

struct Inputs {
    /// `random` (König) and `bit-reversal` (structured).
    perms: [Permutation; 2],
    callers: Vec<Caller>,
}

fn inputs(seed: u64) -> Inputs {
    let perms = [
        families::random(N, derive(seed, 1)),
        families::bit_reversal(N).expect("n is a power of two"),
    ];
    let callers = (0..CLIENTS as u64)
        .map(|c| {
            let src32: Vec<u32> = payload(N, derive(seed, 10 + c));
            // Fill the high half too, so a u64 path that drops it fails.
            let src64: Vec<u64> = payload::<u64>(N, derive(seed, 20 + c))
                .into_iter()
                .map(|v| (v << 32) | (v ^ 0x5555_5555))
                .collect();
            Caller {
                expect32: [reference(&perms[0], &src32), reference(&perms[1], &src32)],
                expect64: [reference(&perms[0], &src64), reference(&perms[1], &src64)],
                src32,
                src64,
            }
        })
        .collect();
    Inputs { perms, callers }
}

/// A connected session with its four registered handles.
struct Session {
    client: Client,
    h32: Vec<PlanHandle<u32>>,
    h64: Vec<PlanHandle<u64>>,
}

fn connect(server: &Server, perms: &[Permutation; 2], ledger: &mut Ledger) -> Option<Session> {
    let mut client = Client::connect(server.local_addr()).ok()?;
    let mut h32 = Vec::new();
    let mut h64 = Vec::new();
    for p in perms {
        let a = client.register::<u32>(p);
        let b = client.register::<u64>(p);
        ledger.check(a.is_ok() && b.is_ok(), "tcp_64k REGISTER");
        h32.push(a.ok()?);
        h64.push(b.ok()?);
    }
    Some(Session { client, h32, h64 })
}

/// Bind a server, connect both clients and register every handle; the
/// median of `SETUP_REPS` set-ups is reported, the last one is kept.
fn setup(inp: &Inputs, ledger: &mut Ledger) -> Option<(Server, Vec<Session>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, sessions)) = kept.take() {
            drop(sessions);
            shut_down(&server, ledger);
        }
        let t = Instant::now();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).ok()?;
        let sessions: Option<Vec<Session>> = (0..CLIENTS)
            .map(|_| connect(&server, &inp.perms, ledger))
            .collect();
        times.push(t.elapsed().as_secs_f64());
        kept = Some((server, sessions?));
    }
    let (server, sessions) = kept?;
    Some((server, sessions, times))
}

/// Drain the server and check its job ledger.
fn shut_down(server: &Server, ledger: &mut Ledger) {
    server.drain();
    let s = server.stats();
    ledger.check(
        s.submitted == s.completed + s.cancelled,
        "server ledger: submitted == completed + cancelled",
    );
}

/// One `PERMUTE` round trip, checked. Returns its latency in ms.
fn permute(s: &mut Session, caller: &Caller, k: usize, wide: bool, ledger: &mut Ledger) -> f64 {
    let t = Instant::now();
    if wide {
        let out = s.client.permute(&s.h64[k], &caller.src64);
        let ms = ms_since(t);
        ledger.check(
            out.is_ok_and(|o| o == caller.expect64[k]),
            "tcp_64k u64 output",
        );
        ms
    } else {
        let out = s.client.permute(&s.h32[k], &caller.src32);
        let ms = ms_since(t);
        ledger.check(
            out.is_ok_and(|o| o == caller.expect32[k]),
            "tcp_64k u32 output",
        );
        ms
    }
}

/// Both clients in a closed loop until `window` ends; spans go to the
/// tracers when given. Returns each client's latencies and the merged
/// ledger.
fn closed_loop(
    sessions: &mut [Session],
    inp: &Inputs,
    window: Duration,
    tracers: Option<&mut [Tracer]>,
) -> (Vec<Vec<f64>>, Ledger) {
    let end = Instant::now() + window;
    let results: Vec<(Vec<f64>, Ledger)> = std::thread::scope(|scope| {
        let mut tracers = tracers.map(|t| t.iter_mut());
        let workers: Vec<_> = sessions
            .iter_mut()
            .zip(&inp.callers)
            .enumerate()
            .map(|(c, (s, caller))| {
                let mut tr = tracers.as_mut().and_then(Iterator::next);
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut ledger = Ledger::default();
                    let mut i = 0;
                    while Instant::now() < end {
                        let (k, wide) = request_kind(c, i);
                        let req = ((c as u64) << 32) | (i as u64 + 1);
                        let root = tr.as_mut().map(|t| t.enter("request", 0, req));
                        lat.push(permute(s, caller, k, wide, &mut ledger));
                        if let (Some(t), Some(root)) = (tr.as_mut(), root) {
                            t.exit(root);
                        }
                        i += 1;
                    }
                    (lat, ledger)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut ledger = Ledger::default();
    let mut lat = Vec::new();
    for (l, led) in results {
        lat.push(l);
        ledger.absorb(led);
    }
    (lat, ledger)
}

pub fn run(args: &Args, rep: &mut Report, ledger: &mut Ledger, spans: &mut Vec<Span>) {
    let inp = inputs(args.seed);
    let Some((server, mut sessions, setup_s)) = setup(&inp, ledger) else {
        ledger.check(false, "tcp_64k set-up");
        return;
    };
    let window = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (lat, led) = closed_loop(&mut sessions, &inp, window, None);
        ledger.absorb(led);
        drop(sessions);
        shut_down(&server, ledger);
        EndToEnd {
            setup_s,
            latency_ms: lat.concat(),
            per_caller_ms: lat,
            store_load_ms: Vec::new(),
            n: N,
        }
        .push(rep);
        return;
    }

    let origin = Instant::now();
    let (base, led) = closed_loop(&mut sessions, &inp, window / 2, None);
    let base = base.concat();
    ledger.absorb(led);
    let before = server.stats();
    let mut tracers: Vec<Tracer> = (0..CLIENTS as u64)
        .map(|c| Tracer::new(origin, (c + 1) << 40))
        .collect();
    let (_, led) = closed_loop(&mut sessions, &inp, window / 2, Some(&mut tracers));
    ledger.absorb(led);
    drop(sessions);
    shut_down(&server, ledger);
    probes::push_server_counts(rep, before, server.stats());
    drop(server);

    // The same plans and the same width alternation, in process: the
    // engine layers the server runs behind the wire.
    let mut tr = Tracer::new(origin, 0);
    let e32 = SharedEngine::<u32>::new(WIDTH);
    let e64 = SharedEngine::<u64>::new(WIDTH);
    for p in &inp.perms {
        ledger.check(
            e32.plan(p).is_ok() && e64.plan(p).is_ok(),
            "in-process plan",
        );
    }
    let engine_before = probes::sum_stats(e32.stats(), e64.stats());
    let caller = &inp.callers[0];
    let mut d32 = vec![0u32; N];
    let mut d64 = vec![0u64; N];
    for i in 0..INPROC_REQUESTS {
        let (k, wide) = request_kind(0, i);
        let req = i as u64 + 1;
        let root = tr.enter("inproc.request", 0, req);
        let ok = if wide {
            let plan = tr.span("engine.plan", root, req, || e64.plan(&inp.perms[k]));
            if let Ok(plan) = &plan {
                tr.span("engine.run_plan", root, req, || {
                    e64.run_plan(plan, &caller.src64, &mut d64)
                });
            }
            plan.is_ok() && d64 == caller.expect64[k]
        } else {
            let plan = tr.span("engine.plan", root, req, || e32.plan(&inp.perms[k]));
            if let Ok(plan) = &plan {
                tr.span("engine.run_plan", root, req, || {
                    e32.run_plan(plan, &caller.src32, &mut d32)
                });
            }
            plan.is_ok() && d32 == caller.expect32[k]
        };
        tr.exit(root);
        ledger.check(ok, "in-process output");
    }
    probes::push_engine_counts(
        rep,
        engine_before,
        probes::sum_stats(e32.stats(), e64.stats()),
    );
    drop((e32, e64));

    for t in tracers {
        spans.extend(t.into_spans());
    }
    spans.extend(tr.into_spans());
    let untraced_p50 = median(&base);
    let inproc = durations(spans, "inproc.request");
    rep.push(
        "server.wire_tax_ms",
        untraced_p50 - median(&inproc),
        "ms",
        base.len(),
    );
    push_trace_summary(rep, spans, untraced_p50);

    let mut tr = Tracer::new(origin, (CLIENTS as u64 + 1) << 40);
    probes::run(
        &ProbeInputs {
            konig: &inp.perms[0],
            structured: &inp.perms[1],
            src: &caller.src32,
            reps: 9,
            konig_builds: 3,
            dir: &args.work_dir,
        },
        &mut tr,
        ledger,
        rep,
    );
    spans.extend(tr.into_spans());
}

//! Standalone per-layer probes of the traced run. Each probe calls one
//! layer's public function on the workload's own inputs, at the workload's
//! size, inside a span of its own, off any request's blocking path.

use crate::measure::{median, payload, reference, Ledger, Report, WIDTH};
use crate::trace::{durations, Span, Tracer};
use hmm_native::{
    as_native_scheduled, copy_baseline, gather_permute, scatter_permute, EngineStats, PermutePlan,
    SharedEngine,
};
use hmm_perm::Permutation;
use hmm_plan::{PlanIr, PlanStore, StoreKey};
use hmm_server::{elems_to_bytes, Client, Frame, Server, ServerConfig, ServerStats};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// What the probes run on: one König-planned (unstructured) and one
/// structured (BMMC) permutation of the workload, with its payload.
pub struct ProbeInputs<'a> {
    pub konig: &'a Permutation,
    pub structured: &'a Permutation,
    pub src: &'a [u32],
    /// Repetitions of each cheap probe.
    pub reps: usize,
    /// Repetitions of the König build (seconds each at 4M).
    pub konig_builds: usize,
    /// Scratch directory for the probe's plan store; created and removed
    /// here.
    pub dir: &'a Path,
}

/// Run every layer probe, then push the derived per-layer metrics.
pub fn run(inp: &ProbeInputs, tr: &mut Tracer, ledger: &mut Ledger, rep: &mut Report) {
    let n = inp.src.len();
    let threads = hmm_native::par::worker_threads();
    let root = tr.enter("probes", 0, 0);

    // hmm-perm
    for _ in 0..inp.reps {
        for p in [inp.konig, inp.structured] {
            black_box(tr.span("perm.fingerprint", root, 0, || p.fingerprint()));
        }
        let bmmc = tr.span("perm.as_bmmc", root, 0, || inp.structured.as_bmmc());
        ledger.check(
            bmmc.is_some(),
            "as_bmmc recognizes the structured permutation",
        );
    }

    // hmm-plan: builds (hmm-graph colouring runs inside the König build)
    let mut konig_ir = None;
    for _ in 0..inp.konig_builds {
        konig_ir = Some(tr.span("plan.build_konig", root, 0, || {
            PlanIr::build_par(inp.konig, WIDTH, threads)
        }));
    }
    let mut structured_ir = None;
    for _ in 0..inp.reps {
        structured_ir = Some(tr.span("plan.build_structured", root, 0, || {
            PlanIr::build_structured_par(inp.structured, WIDTH, threads)
        }));
    }
    let konig_ir = match konig_ir {
        Some(Ok(ir)) if ir.matches(inp.konig) => ir,
        _ => {
            ledger.check(false, "König build");
            tr.exit(root);
            return;
        }
    };
    let structured_ir = match structured_ir {
        Some(Some(Ok(ir))) if ir.matches(inp.structured) => ir,
        _ => {
            ledger.check(false, "structured build");
            tr.exit(root);
            return;
        }
    };

    // hmm-plan: codec and store, per plan kind
    let store_dir = inp.dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = PlanStore::open(&store_dir).expect("open the probe plan store");
    let mut entry_bytes = [0u64; 2];
    for (k, (ir, p)) in [(&konig_ir, inp.konig), (&structured_ir, inp.structured)]
        .into_iter()
        .enumerate()
    {
        let [enc, dec, save, load] = if k == 0 {
            ["plan.encode", "plan.decode", "store.save", "store.load"]
        } else {
            [
                "plan.encode_structured",
                "plan.decode_structured",
                "store.save_structured",
                "store.load_structured",
            ]
        };
        for _ in 0..inp.reps {
            let bytes = tr.span(enc, root, 0, || hmm_plan::encode(ir));
            let decoded = tr.span(dec, root, 0, || hmm_plan::decode(&bytes));
            ledger.check(decoded.is_ok_and(|d| d.matches(p)), "codec round trip");
            let saved = tr.span(save, root, 0, || store.save(ir));
            entry_bytes[k] = saved
                .as_ref()
                .ok()
                .and_then(|path| std::fs::metadata(path).ok())
                .map_or(0, |m| m.len());
            let loaded = tr.span(load, root, 0, || store.load(&StoreKey::of(ir)));
            ledger.check(
                saved.is_ok() && matches!(&loaded, Ok(Some(l)) if l.matches(p)),
                "store save/load round trip",
            );
        }
    }

    // hmm-backend: lowering to the sweep IR and preparing the executable
    let mut plans: Vec<PermutePlan<u32>> = Vec::new();
    for (ir, name) in [
        (&konig_ir, "backend.prepare"),
        (&structured_ir, "backend.prepare_structured"),
    ] {
        let mut last = None;
        for _ in 0..inp.reps {
            last = Some(tr.span(name, root, 0, || PermutePlan::<u32>::from_ir(ir)));
        }
        match last {
            Some(Ok(plan)) => plans.push(plan),
            _ => {
                ledger.check(false, "PermutePlan::from_ir");
                tr.exit(root);
                return;
            }
        }
    }

    // hmm-native: timed sweeps against the copy roofline
    let mut dst = vec![0u32; n];
    let mut scratch = vec![0u32; n];
    let mut sweeps = [
        [Vec::new(), Vec::new(), Vec::new()],
        [Vec::new(), Vec::new(), Vec::new()],
    ];
    let mut computed = [false; 2];
    for (k, (plan, p)) in plans.iter().zip([inp.konig, inp.structured]).enumerate() {
        let Some(sched) = as_native_scheduled(plan) else {
            ledger.check(false, "plan is a native scheduled plan");
            continue;
        };
        computed[k] = sched.computed_index();
        let expect = reference(p, inp.src);
        for _ in 0..inp.reps {
            let t = tr.span("sweep.run_sweeps_timed", root, 0, || {
                sched.run_sweeps_timed(inp.src, &mut dst, &mut scratch)
            });
            for (s, d) in t.iter().enumerate() {
                sweeps[k][s].push(d.as_secs_f64() * 1e3);
            }
            ledger.check(dst == expect, "timed sweeps output");
        }
    }
    for _ in 0..inp.reps {
        tr.span("copy", root, 0, || copy_baseline(inp.src, &mut dst));
    }
    ledger.check(dst.as_slice() == inp.src, "copy output");

    // hmm-native: the paper's D- and S-designated baselines
    let expect = reference(inp.konig, inp.src);
    let inverse = inp.konig.inverse();
    for _ in 0..inp.reps {
        tr.span("baseline.scatter", root, 0, || {
            scatter_permute(inp.src, inp.konig, &mut dst)
        });
        ledger.check(dst == expect, "scatter baseline output");
        tr.span("baseline.gather", root, 0, || {
            gather_permute(inp.src, &inverse, &mut dst)
        });
        ledger.check(dst == expect, "gather baseline output");
    }

    // hmm-native: queue handoff, submit(..).wait() against run_plan. The
    // engine resolves the König plan from the probe store, so no second
    // colouring runs.
    let engine =
        SharedEngine::<u32>::with_store(WIDTH, &store_dir).expect("open the probe plan store");
    match engine.plan(inp.konig) {
        Ok(plan) => {
            for _ in 0..inp.reps {
                let shared: Arc<[u32]> = Arc::from(inp.src);
                let out = vec![0u32; n];
                let report = tr.span("engine.submit_wait", root, 0, || {
                    engine.submit(inp.konig, shared, out).wait()
                });
                ledger.check(report.is_ok_and(|r| r.dst == expect), "submit output");
                tr.span("engine.run_plan_direct", root, 0, || {
                    engine.run_plan(&plan, inp.src, &mut dst)
                });
                ledger.check(dst == expect, "run_plan output");
            }
        }
        Err(_) => ledger.check(false, "queue probe plan"),
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&store_dir);

    // hmm-server: frame codec on this workload's payload
    let frame = Frame::Permute {
        handle: 1,
        payload: elems_to_bytes(inp.src),
    };
    for _ in 0..inp.reps {
        let bytes = tr.span("proto.encode", root, 0, || frame.encode());
        let decoded = tr.span("proto.decode", root, 0, || Frame::decode(&bytes));
        ledger.check(decoded.is_ok_and(|f| f == frame), "frame round trip");
    }
    tr.exit(root);

    let sweep_names = [
        ["sweep.gather1_ms", "sweep.gather2_ms", "sweep.row_ms"],
        [
            "sweep.gather1_structured_ms",
            "sweep.gather2_structured_ms",
            "sweep.row_structured_ms",
        ],
    ];
    let ratio_names = [
        [
            "sweep.gather1_x_copy",
            "sweep.gather2_x_copy",
            "sweep.row_x_copy",
        ],
        [
            "sweep.gather1_structured_x_copy",
            "sweep.gather2_structured_x_copy",
            "sweep.row_structured_x_copy",
        ],
    ];
    let spans = tr.spans();
    let copy_ms = push_median(rep, spans, "copy", "copy.ms");
    for k in 0..2 {
        for s in 0..3 {
            let v = &sweeps[k][s];
            let m = if v.is_empty() { 0.0 } else { median(v) };
            rep.push(sweep_names[k][s], m, "ms", v.len());
            rep.push(ratio_names[k][s], m / copy_ms, "ratio", v.len());
        }
    }
    // Computed bytes moved by the three sweeps of a u32 plan: each reads
    // and writes the array once, and a map-loaded sweep also reads one
    // u32 index per element.
    let per_sweep = |computed: bool| if computed { 8 } else { 12 };
    rep.push(
        "sweep.bytes_computed",
        (3 * per_sweep(computed[0]) * n) as f64,
        "bytes",
        1,
    );
    rep.push(
        "sweep.bytes_computed_structured",
        (3 * per_sweep(computed[1]) * n) as f64,
        "bytes",
        1,
    );
    for (span, metric) in [
        ("perm.fingerprint", "perm.fingerprint_ms"),
        ("perm.as_bmmc", "perm.as_bmmc_ms"),
        ("plan.build_konig", "plan.build_konig_ms"),
        ("plan.build_structured", "plan.build_structured_ms"),
        ("plan.encode", "plan.encode_ms"),
        ("plan.decode", "plan.decode_ms"),
        ("plan.encode_structured", "plan.encode_structured_ms"),
        ("plan.decode_structured", "plan.decode_structured_ms"),
        ("store.save", "store.save_ms"),
        ("store.load", "store.load_ms"),
        ("store.save_structured", "store.save_structured_ms"),
        ("store.load_structured", "store.load_structured_ms"),
        ("backend.prepare", "backend.prepare_ms"),
        (
            "backend.prepare_structured",
            "backend.prepare_structured_ms",
        ),
        ("baseline.scatter", "baseline.scatter_ms"),
        ("baseline.gather", "baseline.gather_ms"),
        ("proto.encode", "proto.encode_ms"),
        ("proto.decode", "proto.decode_ms"),
    ] {
        push_median(rep, spans, span, metric);
    }
    rep.push("store.entry_bytes", entry_bytes[0] as f64, "bytes", 1);
    rep.push(
        "store.entry_structured_bytes",
        entry_bytes[1] as f64,
        "bytes",
        1,
    );
    let submit = durations(spans, "engine.submit_wait");
    let direct = durations(spans, "engine.run_plan_direct");
    let overhead = if submit.is_empty() || direct.is_empty() {
        0.0
    } else {
        median(&submit) - median(&direct)
    };
    rep.push("engine.queue_overhead_ms", overhead, "ms", submit.len());
}

/// Push the median duration of the spans named `span` as `metric`;
/// returns it.
pub fn push_median(rep: &mut Report, spans: &[Span], span: &str, metric: &str) -> f64 {
    let d = durations(spans, span);
    let m = if d.is_empty() { 0.0 } else { median(&d) };
    rep.push(metric, m, "ms", d.len());
    m
}

/// Per-layer engine counters: the delta between two snapshots.
pub fn push_engine_counts(rep: &mut Report, before: EngineStats, after: EngineStats) {
    let d = |f: fn(&EngineStats) -> u64| (f(&after) - f(&before)) as f64;
    let hits = d(|s| s.hits);
    let misses = d(|s| s.misses);
    for (name, v) in [
        ("engine.hits", hits),
        ("engine.misses", misses),
        ("engine.builds", d(|s| s.builds)),
        ("engine.plans_structured", d(|s| s.plans_structured)),
        ("engine.plans_affine", d(|s| s.plans_affine)),
        ("engine.store_hits", d(|s| s.store_hits)),
        ("engine.store_rejects", d(|s| s.store_rejects)),
        ("engine.collisions", d(|s| s.collisions)),
        ("engine.scheduled_runs", d(|s| s.scheduled_runs)),
        ("engine.scatter_runs", d(|s| s.scatter_runs)),
    ] {
        rep.push(name, v, "count", 1);
    }
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    rep.push("engine.hit_ratio", ratio, "ratio", (hits + misses) as usize);
}

/// Sum of two engine snapshots' counters (engines A and B, or the u32 and
/// u64 engines of one front door).
pub fn sum_stats(a: EngineStats, b: EngineStats) -> EngineStats {
    EngineStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        builds: a.builds + b.builds,
        plans_structured: a.plans_structured + b.plans_structured,
        plans_affine: a.plans_affine + b.plans_affine,
        store_hits: a.store_hits + b.store_hits,
        store_rejects: a.store_rejects + b.store_rejects,
        collisions: a.collisions + b.collisions,
        scheduled_runs: a.scheduled_runs + b.scheduled_runs,
        scatter_runs: a.scatter_runs + b.scatter_runs,
        ..EngineStats::default()
    }
}

/// Per-layer server counters: the delta between two snapshots.
pub fn push_server_counts(rep: &mut Report, before: ServerStats, after: ServerStats) {
    let d = |f: fn(&ServerStats) -> u64| (f(&after) - f(&before)) as f64;
    for (name, v) in [
        ("server.submitted", d(|s| s.submitted)),
        ("server.completed", d(|s| s.completed)),
        ("server.cancelled", d(|s| s.cancelled)),
        ("server.admission_rejects", d(|s| s.admission_rejects)),
        ("server.conn_rejects", d(|s| s.conn_rejects)),
        ("server.idle_disconnects", d(|s| s.idle_disconnects)),
        ("server.hits", d(|s| s.hits)),
        ("server.misses", d(|s| s.misses)),
    ] {
        rep.push(name, v, "count", 1);
    }
}

/// Wire tax outside the TCP workload: round trips of `Client::permute`
/// against in-process `SharedEngine::permute` on the same structured
/// plans at the same n, one client. Structured permutations register by
/// their bit matrix, so no König build is repeated. Pushes
/// `server.wire_tax_ms` and the server counters.
pub fn wire_tax(
    perms: &[&Permutation],
    seed: u64,
    reps: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    rep: &mut Report,
) {
    let n = perms[0].len();
    let src: Vec<u32> = payload(n, seed);
    let expect: Vec<Vec<u32>> = perms.iter().map(|p| reference(p, &src)).collect();
    let root = tr.enter("probe.wire", 0, 0);
    let engine = SharedEngine::<u32>::new(WIDTH);
    let mut dst = vec![0u32; n];
    for _ in 0..reps {
        for (p, e) in perms.iter().zip(&expect) {
            let r = tr.span("wire.inprocess_permute", root, 0, || {
                engine.permute(p, &src, &mut dst)
            });
            ledger.check(r.is_ok() && dst == *e, "in-process permute output");
        }
    }
    drop(engine);
    let mut before = ServerStats::default();
    let mut after = ServerStats::default();
    match Server::bind("127.0.0.1:0", ServerConfig::default()) {
        Ok(server) => {
            let addr = server.local_addr();
            match Client::connect(addr) {
                Ok(mut client) => {
                    let handles: Vec<_> = perms
                        .iter()
                        .map(|p| {
                            let m = p
                                .as_bmmc()
                                .expect("wire probe takes structured permutations");
                            client.register_bmmc::<u32>(&m)
                        })
                        .collect();
                    before = server.stats();
                    for _ in 0..reps {
                        for (h, e) in handles.iter().zip(&expect) {
                            let Ok(h) = h else {
                                ledger.check(false, "wire probe registration");
                                continue;
                            };
                            let out =
                                tr.span("wire.tcp_permute", root, 0, || client.permute(h, &src));
                            ledger.check(out.is_ok_and(|o| o == *e), "TCP permute output");
                        }
                    }
                }
                Err(_) => ledger.check(false, "wire probe connect"),
            }
            server.drain();
            after = server.stats();
            ledger.check(
                after.submitted == after.completed + after.cancelled,
                "server ledger: submitted == completed + cancelled",
            );
        }
        Err(_) => ledger.check(false, "wire probe bind"),
    }
    tr.exit(root);
    let tcp = durations(tr.spans(), "wire.tcp_permute");
    let inproc = durations(tr.spans(), "wire.inprocess_permute");
    let tax = if tcp.is_empty() || inproc.is_empty() {
        0.0
    } else {
        median(&tcp) - median(&inproc)
    };
    rep.push("server.wire_tax_ms", tax, "ms", tcp.len());
    push_server_counts(rep, before, after);
}

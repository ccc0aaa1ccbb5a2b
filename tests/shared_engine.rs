//! Concurrency stress tests for the shared plan service: one
//! `SharedEngine` hammered from many threads over mixed permutation
//! families, single-flight build dedup proven by the stats, fingerprint
//! collisions injected through the test seam, batch dispatch through
//! the worker pool under external contention, the on-disk tier-2
//! plan store (cold-process reuse, corruption and collision rejection),
//! and the queued submission layer (backpressure without deadlock,
//! worker-side failures resolving handles instead of hanging them,
//! cancellation, and batch/single interleaving).

use hmm_native::pool::WorkerPool;
use hmm_native::{JobError, SharedEngine};
use hmm_perm::families;
use hmm_perm::Permutation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

const W: usize = 32;

fn reference(p: &Permutation, src: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; src.len()];
    p.permute(src, &mut out).unwrap();
    out
}

/// The acceptance stress test: one engine, 8 threads, 5 distinct
/// permutations across both backends, reference-equal output on every
/// thread and every round, and stats that prove single-flight dedup.
#[test]
fn shared_engine_stress_eight_threads_mixed_families() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let n = 1 << 12;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let perms: Vec<Permutation> = vec![
        families::identical(n),             // γ = 1  -> scatter
        families::shuffle(n).unwrap(),      // low γ  -> scatter
        families::random(n, 1),             // high γ -> scheduled
        families::random(n, 2),             // high γ -> scheduled
        families::bit_reversal(n).unwrap(), // γ = w  -> scheduled
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let refs: Vec<Vec<u32>> = perms.iter().map(|p| reference(p, &src)).collect();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let perms = &perms;
            let refs = &refs;
            let src = &src;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait(); // maximise racing on the cold cache
                for r in 0..ROUNDS {
                    let k = (t + r) % perms.len();
                    engine.permute(&perms[k], src, &mut dst).unwrap();
                    assert_eq!(dst, refs[k], "thread {t} round {r} perm {k}");
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (THREADS * ROUNDS) as u64;
    let distinct = perms.len() as u64;
    // Every call is accounted for exactly once.
    assert_eq!(
        stats.hits + stats.misses + stats.builds_deduped + stats.collisions,
        total
    );
    assert_eq!(stats.scatter_runs + stats.scheduled_runs, total);
    // Real fingerprints: no collisions among these permutations.
    assert_eq!(stats.collisions, 0);
    // Single-flight: each distinct permutation is built exactly once, no
    // matter how many threads raced for it (the acceptance inequality).
    assert_eq!(stats.misses, distinct);
    assert!(stats.misses + stats.collisions <= distinct + stats.builds_deduped);
    assert_eq!(stats.evictions, 0);
    assert_eq!(engine.cached_plans(), perms.len());
}

/// All 8 threads request the *same* uncached permutation simultaneously:
/// exactly one build may happen; everyone else hits or waits (dedups).
#[test]
fn shared_engine_single_flight_under_max_contention() {
    const THREADS: usize = 8;
    let n = 1 << 13;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let p = families::random(n, 99);
    let src: Vec<u32> = (0..n as u32).collect();
    let want = reference(&p, &src);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = &engine;
            let p = &p;
            let src = &src;
            let want = &want;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait();
                engine.permute(p, src, &mut dst).unwrap();
                assert_eq!(&dst, want);
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "one König coloring for eight threads");
    assert_eq!(stats.hits + stats.builds_deduped, (THREADS - 1) as u64);
    assert_eq!(stats.collisions, 0);
}

/// Eight threads resolve clones of one fresh permutation at once: the
/// first-call fingerprint races are benign (every thread sees the same
/// value), everyone gets the one plan, and that plan shares the callers'
/// storage.
#[test]
fn shared_engine_clones_of_one_fresh_permutation_resolve_one_plan() {
    const THREADS: usize = 8;
    let n = 1 << 13;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let p = families::random(n, 101);
    let expect_fp = families::random(n, 101).fingerprint();
    let barrier = Barrier::new(THREADS);
    let plans: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (engine, barrier, mine) = (&engine, &barrier, p.clone());
                s.spawn(move || {
                    barrier.wait();
                    let plan = engine.plan(&mine).unwrap();
                    assert_eq!(mine.fingerprint(), expect_fp);
                    plan
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(plans.iter().all(|plan| Arc::ptr_eq(plan, &plans[0])));
    assert_eq!(
        plans[0].permutation().as_slice().as_ptr(),
        p.as_slice().as_ptr()
    );
    assert_eq!(p.fingerprint(), expect_fp);
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits + stats.builds_deduped, (THREADS - 1) as u64);
    assert_eq!(stats.collisions, 0);
}

/// A forced fingerprint collision through the public test seam: the cache
/// must detect the full-image mismatch, rebuild, return the *correct*
/// output, and count exactly one collision.
#[test]
fn shared_engine_detects_injected_fingerprint_collision() {
    let n = 1 << 11;
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];
    let mut engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_fingerprint_fn(|_| 0x5eed); // every permutation collides
    let p1 = families::random(n, 7);
    let p2 = families::random(n, 8);

    engine.permute(&p1, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p1, &src));
    engine.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(&p2, &src),
        "collision must be detected, not silently applied"
    );
    let stats = engine.stats();
    assert_eq!(stats.collisions, 1);
    assert_eq!(stats.misses, 2);
}

/// `permute_batch` dispatches its jobs across the worker pool; outputs
/// must be reference-equal even when several batches run from different
/// threads against one engine.
#[test]
fn shared_engine_concurrent_batches_are_correct() {
    const THREADS: usize = 4;
    const JOBS: usize = 6;
    let n = 1 << 11;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    let p = families::random(n, 13);
    let srcs: Vec<Vec<u32>> = (0..JOBS)
        .map(|k| (0..n as u32).map(|v| v.wrapping_add(k as u32)).collect())
        .collect();
    let refs: Vec<Vec<u32>> = srcs.iter().map(|s| reference(&p, s)).collect();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = &engine;
            let p = &p;
            let srcs = &srcs;
            let refs = &refs;
            s.spawn(move || {
                let mut dsts: Vec<Vec<u32>> = vec![vec![0u32; n]; JOBS];
                engine
                    .permute_batch(
                        p,
                        srcs.iter()
                            .map(Vec::as_slice)
                            .zip(dsts.iter_mut().map(Vec::as_mut_slice)),
                    )
                    .unwrap();
                for (dst, want) in dsts.iter().zip(refs) {
                    assert_eq!(dst, want);
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.scatter_runs + stats.scheduled_runs,
        (THREADS * JOBS) as u64
    );
}

/// Fresh, empty temp directory for one store test.
fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hmm-shared-engine-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The cross-process acceptance path through the public API: an engine
/// with a store builds and persists plans; a *second* engine (standing in
/// for a cold process) serves the same permutations with **zero** König
/// builds, and every output still verifies. Scatter-backed permutations
/// never involve the store.
#[test]
fn cold_engine_with_warm_store_builds_nothing_and_verifies() {
    let n = 1 << 12;
    let dir = temp_store_dir("cold-start");
    let perms = [
        families::random(n, 1),             // scheduled
        families::bit_reversal(n).unwrap(), // scheduled
        families::identical(n),             // scatter: store not involved
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let mut dst = vec![0u32; n];

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    for p in &perms {
        warm.permute(p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(p, &src));
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.builds, 1, "random is the only König coloring");
    assert_eq!(
        warm_stats.plans_structured, 1,
        "bit-reversal takes the closed-form BMMC path"
    );
    // Both scheduled plans — colored and structured — are persisted.
    assert_eq!(warm.store().unwrap().entries().unwrap().len(), 2);

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    for p in &perms {
        dst.fill(0);
        cold.permute(p, &src, &mut dst).unwrap();
        assert_eq!(dst, reference(p, &src), "store-served output must verify");
    }
    let stats = cold.stats();
    assert_eq!(stats.builds, 0, "warm store: the cold process never colors");
    assert_eq!(stats.store_hits, 2);
    assert_eq!(stats.store_rejects, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store file renamed onto another permutation's key — the on-disk
/// equivalent of a fingerprint collision. The decoded identity check must
/// reject it, delete the file, and rebuild; output stays correct.
#[test]
fn renamed_store_file_is_rejected_not_trusted() {
    let n = 1 << 12;
    let dir = temp_store_dir("renamed");
    let p1 = families::random(n, 21);
    let p2 = families::random(n, 22);
    let src: Vec<u32> = (0..n as u32).collect();
    let mut dst = vec![0u32; n];

    let first: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    first.permute(&p1, &src, &mut dst).unwrap();

    // Graft p1's plan file onto p2's store key.
    let p1_file = dir.join(format!("plan-{:016x}-n{n}-w{W}.hmmplan", p1.fingerprint()));
    let p2_file = dir.join(format!("plan-{:016x}-n{n}-w{W}.hmmplan", p2.fingerprint()));
    std::fs::rename(&p1_file, &p2_file).unwrap();

    let second: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    second.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(
        dst,
        reference(&p2, &src),
        "wrong plan must never be applied"
    );
    let stats = second.stats();
    assert_eq!(stats.store_rejects, 1, "the grafted file is rejected");
    assert_eq!(stats.builds, 1, "and p2's plan rebuilt from scratch");
    // The reject deleted the graft and the rebuild re-saved p2's real
    // plan, so a third engine is a clean hit.
    let third: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    dst.fill(0);
    third.permute(&p2, &src, &mut dst).unwrap();
    assert_eq!(dst, reference(&p2, &src));
    assert_eq!(third.stats().store_hits, 1);
    assert_eq!(third.stats().builds, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent cold start against a warm store: many threads race the
/// single-flight slot, exactly one of them performs the disk load, and
/// nobody colors.
#[test]
fn concurrent_cold_start_loads_from_store_once() {
    const THREADS: usize = 8;
    let n = 1 << 12;
    let dir = temp_store_dir("concurrent");
    let p = families::random(n, 31);
    let src: Vec<u32> = (0..n as u32).collect();
    let want = reference(&p, &src);

    let warm: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let mut dst = vec![0u32; n];
    warm.permute(&p, &src, &mut dst).unwrap();

    let cold: SharedEngine<u32> = SharedEngine::with_store(W, &dir).unwrap();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let cold = &cold;
            let p = &p;
            let src = &src;
            let want = &want;
            let barrier = &barrier;
            s.spawn(move || {
                let mut dst = vec![0u32; n];
                barrier.wait();
                cold.permute(p, src, &mut dst).unwrap();
                assert_eq!(&dst, want);
            });
        }
    });
    let stats = cold.stats();
    assert_eq!(stats.builds, 0);
    assert_eq!(
        stats.store_hits, 1,
        "single-flight covers the disk load too"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// WorkerPool under dispatch contention from multiple non-pool threads
/// (the integration-level cousin of the pool's unit test): permutation
/// work dispatched concurrently from several OS threads stays correct.
#[test]
fn worker_pool_serves_concurrent_external_dispatchers() {
    const DISPATCHERS: usize = 5;
    const ROUNDS: usize = 10;
    const TASKS: usize = 128;
    let pool = WorkerPool::new(4);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..DISPATCHERS {
            let pool = &pool;
            let total = &total;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    pool.run(TASKS, |_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    assert_eq!(total.load(Ordering::Relaxed), DISPATCHERS * ROUNDS * TASKS);
}

// ---------------------------------------------------------------------------
// Queued submission layer
// ---------------------------------------------------------------------------

/// The queued acceptance stress test: 8 submitter threads hammer one
/// engine through a bounded queue of capacity **4**, so `submit` spends
/// most of its life blocked on backpressure while only 2 drainers make
/// room. The test proves the backpressure path cannot deadlock, every
/// handle resolves, every output is reference-equal, and the queue
/// counters balance exactly.
#[test]
fn queued_stress_eight_submitters_bounded_queue_of_four() {
    const THREADS: usize = 8;
    const JOBS_PER_THREAD: usize = 16;
    let n = 1 << 11;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    assert!(
        engine.set_queue_config(4, 2),
        "config must land before the queue spins up"
    );
    let perms: Vec<Permutation> = vec![
        families::identical(n),             // scatter
        families::random(n, 41),            // scheduled
        families::bit_reversal(n).unwrap(), // scheduled
    ];
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let shared: Arc<[u32]> = src.clone().into();
    let refs: Vec<Vec<u32>> = perms.iter().map(|p| reference(p, &src)).collect();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let perms = &perms;
            let refs = &refs;
            let shared = &shared;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait(); // all 8 hit the 4-slot queue at once
                let handles: Vec<_> = (0..JOBS_PER_THREAD)
                    .map(|j| {
                        let k = (t + j) % perms.len();
                        (
                            k,
                            engine.submit(&perms[k], Arc::clone(shared), vec![0u32; n]),
                        )
                    })
                    .collect();
                for (k, h) in handles {
                    let report = h.wait().expect("no job may fail or hang");
                    assert_eq!(report.dst, refs[k], "thread {t} perm {k}");
                }
            });
        }
    });

    let stats = engine.stats();
    let total = (THREADS * JOBS_PER_THREAD) as u64;
    assert_eq!(engine.queue_capacity(), 4);
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.submitted, stats.completed + stats.cancelled);
    assert_eq!(stats.queue_depth, 0, "every job was drained");
}

/// A worker-side **panic** during plan resolution (injected through the
/// fingerprint seam) must resolve the handle with
/// [`JobError::Panicked`] — never hang the waiter, never kill the
/// drainer: a job submitted afterwards still fails cleanly too.
#[test]
fn queued_build_panic_resolves_handle_with_error() {
    let n = 1 << 10;
    let mut engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_fingerprint_fn(|_| panic!("injected fingerprint panic"));
    let p = families::random(n, 51);
    let src: Vec<u32> = (0..n as u32).collect();

    for round in 0..2 {
        let handle = engine.submit(&p, src.clone(), vec![0u32; n]);
        match handle.wait() {
            Err(JobError::Panicked(msg)) => {
                assert!(
                    msg.contains("injected fingerprint panic"),
                    "round {round}: panic message must survive: {msg}"
                )
            }
            other => panic!("round {round}: expected Panicked, got {other:?}"),
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2, "failed jobs still count as completed");
}

/// A worker-side plan **build error** (scheduled backend forced onto an
/// unschedulable n) must resolve the handle with [`JobError::Plan`],
/// not hang — the queued twin of `plan()` returning `Err`.
#[test]
fn queued_build_error_resolves_handle_with_plan_error() {
    let n = 100; // no r·c = 100 with both multiples of W = 32
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_gamma_threshold(0.0); // force the scheduled backend
    let p = families::random(n, 61);
    let src: Vec<u32> = (0..n as u32).collect();

    let handle = engine.submit(&p, src, vec![0u32; n]);
    let queued_err = match handle.wait() {
        Err(JobError::Plan(e)) => e,
        other => panic!("expected Plan(_), got {other:?}"),
    };
    // The blocking path fails with the *same* error: the queue adds no
    // new failure mode and hides no existing one.
    let blocking_err = engine.plan(&p).expect_err("n = 100 is unschedulable");
    assert_eq!(queued_err, blocking_err);
}

/// Deterministic cancellation: a slow fingerprint stalls the single
/// drainer on job A, so job B is still queued when we cancel it. B's
/// handle must resolve `Err(Cancelled)` immediately (before A finishes),
/// A must complete normally, and the counters must balance.
#[test]
fn queued_cancel_before_start_resolves_cancelled() {
    let n = 1 << 10;
    let mut engine: SharedEngine<u32> = SharedEngine::new(W);
    engine.set_fingerprint_fn(|p| {
        std::thread::sleep(std::time::Duration::from_millis(200));
        p.as_slice()[0] as u64 ^ p.len() as u64
    });
    assert!(engine.set_queue_config(4, 1), "one drainer, so A blocks B");
    let p = families::random(n, 71);
    let src: Vec<u32> = (0..n as u32).collect();
    let want = reference(&p, &src);

    let a = engine.submit(&p, src.clone(), vec![0u32; n]);
    let b = engine.submit(&p, src.clone(), vec![0u32; n]);
    assert!(b.cancel(), "B has not started: cancellation must win");
    assert!(!b.cancel(), "second cancel reports it lost");
    assert_eq!(b.wait(), Err(JobError::Cancelled));

    assert_eq!(
        a.wait().expect("A unaffected by B's cancellation").dst,
        want
    );
    let stats = engine.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
}

/// `submit_batch` members ride the same queue as everyone else's jobs:
/// two batch submitters and one single-job submitter interleave on one
/// engine, and every handle on both sides resolves reference-equal.
#[test]
fn queued_batches_interleave_with_single_submitters() {
    const BATCHERS: usize = 2;
    const BATCH: usize = 8;
    const SINGLES: usize = 24;
    let n = 1 << 11;
    let engine: SharedEngine<u32> = SharedEngine::new(W);
    assert!(engine.set_queue_config(4, 2));
    let p = families::random(n, 81);
    let src: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
    let shared: Arc<[u32]> = src.clone().into();
    let want = reference(&p, &src);

    let barrier = Barrier::new(BATCHERS + 1);
    std::thread::scope(|s| {
        for _ in 0..BATCHERS {
            let engine = &engine;
            let p = &p;
            let shared = &shared;
            let want = &want;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                let jobs = (0..BATCH).map(|_| (Arc::clone(shared), vec![0u32; n]));
                for outcome in engine.submit_batch(p, jobs).wait() {
                    assert_eq!(&outcome.expect("batch member failed").dst, want);
                }
            });
        }
        let engine = &engine;
        let p = &p;
        let shared = &shared;
        let want = &want;
        let barrier = &barrier;
        s.spawn(move || {
            barrier.wait();
            let handles: Vec<_> = (0..SINGLES)
                .map(|_| engine.submit(p, Arc::clone(shared), vec![0u32; n]))
                .collect();
            for h in handles {
                assert_eq!(&h.wait().expect("single job failed").dst, want);
            }
        });
    });

    let stats = engine.stats();
    let total = (BATCHERS * BATCH + SINGLES) as u64;
    assert_eq!(
        stats.submitted, total,
        "batch members route through the queue"
    );
    assert_eq!(stats.completed, total);
    assert_eq!(stats.misses, 1, "one König coloring serves all submitters");
}

//! # hmm-native — wall-clock CPU backend for offline permutation
//!
//! The paper's evaluation runs on a GTX-680; this crate is the substitution
//! for machines without one (see DESIGN.md §2): the same three algorithms
//! executed with real parallelism on the host CPU, where cache lines and
//! TLB entries play the role the paper's address groups play on the GPU.
//!
//! * [`scatter::scatter_permute`] / [`scatter::gather_permute`] — the
//!   conventional D-/S-designated kernels (one scattered pass);
//! * [`scheduled::NativeScheduled`] — the scheduled permutation executed
//!   as three fused memory sweeps (gather-transpose, gather-transpose,
//!   row gather), built from the backend-neutral [`hmm_plan::PlanIr`]
//!   shared with the simulator and the on-disk plan store; plans with
//!   affine descriptors run instead as one tiled sweep that reads and
//!   writes whole 256-byte runs (`tiled`);
//! * [`plan::SharedEngine`] — the crate's one engine: a thread-safe
//!   plan service (`&self` from any number of threads) with a sharded LRU
//!   cache, single-flight plan construction, verified (collision-proof)
//!   hits, a lock-free scratch pool, a distribution-based scatter
//!   fallback (optionally calibrated per host, `HMM_NATIVE_CALIBRATE=1`),
//!   and an optional tier-2 on-disk plan store
//!   ([`plan::SharedEngine::with_store`]) so a cold process skips the
//!   König coloring. Every blocking front door answers a buffer-length
//!   mistake with a typed `PlanError::SizeMismatch`;
//! * [`queue`] — asynchronous queued submission on top of the engine:
//!   [`plan::SharedEngine::submit`] / [`plan::SharedEngine::submit_batch`]
//!   enqueue jobs on a bounded MPMC queue and return [`queue::JobHandle`]s
//!   (`wait` / `try_wait` / `cancel`); plan resolution happens on the
//!   drainer side, and build failures or panics resolve handles with a
//!   [`queue::JobError`] instead of hanging waiters;
//! * [`backend`] — the process backend registry over `hmm-backend`'s
//!   [`Backend`] trait: [`backend::NativeBackend`] (this crate's kernels)
//!   and the `hmm-backend` sweep-IR interpreter are both registered, the
//!   engine dispatches every execution through the trait, and
//!   `HMM_BACKEND=interp` redirects a whole process without a recompile.
//!   The interpreter runs the paper's literal five steps (row,
//!   transpose, row, transpose, row) and is the unfused reference the
//!   fused sweeps are tested against;
//! * [`config::KernelConfig`] — the sweep-kernel tuning seam (staging
//!   block size, double-buffer depth, SIMD and prefetch switches,
//!   `HMM_NATIVE_SIMD=0` to force the scalar reference; re-exported from
//!   `hmm-backend`, where the strict warn-once env parsing lives) threaded
//!   through every front door: blocking calls and the queue drainers;
//! * [`pool`] / [`par`] — a persistent worker pool (created once per
//!   process) and the chunked parallel-for primitives built on it
//!   (`rayon` is not on this reproduction's offline dependency list).
//!
//! `unsafe` is confined to six audited sites: the disjointness arguments
//! of the scatter kernel and the tiled sweep (`scatter::ScatterTarget`,
//! `tiled::TileTarget`), the pool's type-erased task pointer
//! (`pool::RawTask`), the chunk splitter (`par::SliceParts`), the
//! seed-initialized per-thread staging arena (`stage`), and the
//! clamped-index vector kernels (`simd` — the one module allowed to
//! touch `core::arch`).
//!
//! The criterion benches in `hmm-bench` compare the approaches across the
//! paper's permutation families and sizes.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod config;
pub mod par;
pub mod plan;
pub mod pool;
pub mod queue;
pub mod scatter;
pub mod scheduled;
mod simd;
mod stage;
mod tiled;

pub use backend::{
    as_native_scheduled, backend_names, by_name, default_backend, forced_engine, forced_engine_on,
    NativeBackend, BACKEND_ENV, NATIVE_BACKEND_NAME,
};
pub use config::{KernelConfig, COMPUTED_INDEX_ENV, SIMD_ENV};
pub use hmm_backend::{Backend, Capabilities, ExecPlan, Executable, InterpBackend, Route};
pub use hmm_plan::{PlanIr, PlanStore, StoreKey};
pub use par::THREADS_ENV;
pub use plan::{EngineStats, PermutePlan, SharedEngine, CALIBRATE_ENV};
pub use queue::{BatchHandle, JobError, JobHandle, JobReport, DEFAULT_QUEUE_CAPACITY};
pub use scatter::{copy_baseline, gather_permute, scatter_permute};
pub use scheduled::NativeScheduled;

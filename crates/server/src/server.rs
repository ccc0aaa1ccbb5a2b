//! The server: a thread-per-connection accept loop draining into the
//! two `SharedEngine` queues (one per element width).
//!
//! Shape of the thing:
//!
//! * [`Server::bind`] binds a `TcpListener`, builds one
//!   `SharedEngine<u32>` and one `SharedEngine<u64>` (optionally
//!   sharing a single on-disk [`PlanStore`](hmm_plan::PlanStore)
//!   directory — `PlanIr` is element-agnostic, so both widths reuse
//!   the same plan files), and spawns the accept thread.
//! * Each accepted connection gets its own handler thread and its own
//!   *session*: a private handle namespace mapping `u64` handles to
//!   registered permutations. Handles never leak across connections,
//!   and a disconnect releases everything the session registered.
//! * `PERMUTE`/`PERMUTE_BATCH` route through
//!   [`SharedEngine::submit`]/[`submit_batch`] — the same bounded MPMC
//!   queue, backpressure, and panic isolation every in-process caller
//!   gets. A frame is read *completely* before anything is submitted,
//!   so a client dying mid-payload can never strand a queue slot: the
//!   partial frame surfaces as an I/O error and the handler just reaps
//!   the connection.
//! * `DRAIN` (or [`Server::drain`]) stops the accept loop, waits for
//!   `submitted == completed + cancelled` on both engines, then
//!   answers `DRAIN_OK` and closes.
//!
//! [`SharedEngine::submit`]: hmm_native::SharedEngine::submit
//! [`submit_batch`]: hmm_native::SharedEngine::submit_batch

use std::collections::HashMap;
use std::fmt;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hmm_native::{JobError, SharedEngine};
use hmm_perm::{Bmmc, Permutation};

use crate::admission::AdmissionConfig;
use crate::framing::{read_verified, write_frame, write_sealed};
use crate::proto::{
    Elem, ErrCode, Frame, PayloadBody, PermRepr, ProtoError, ServerStats, MAX_BMMC_BITS,
};

/// Server construction / runtime errors.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure binding or accepting.
    Io(std::io::Error),
    /// Engine construction failed (e.g. the plan-store directory).
    Plan(hmm_plan::PlanError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::Plan(e) => write!(f, "server engine error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Schedule width `w` for both engines (the paper's warp width).
    pub width: usize,
    /// Per-session quotas.
    pub admission: AdmissionConfig,
    /// Optional `PlanStore` directory shared by both engines; restarts
    /// against a warm store complete registrations with `builds == 0`.
    pub store_dir: Option<PathBuf>,
    /// Close connections that send no complete frame for this long
    /// (`None` disables the reap). A tripped timeout is answered with a
    /// typed `ERR idle-timeout` before the close and counted in
    /// [`ServerStats::idle_disconnects`]. A client trickling bytes
    /// mid-frame slower than this is reaped too — the timeout bounds
    /// how long a handler thread can be held by one silent peer.
    pub idle_timeout: Option<Duration>,
    /// Global cap on concurrently live connections. An accept past the
    /// cap is answered with a typed `ERR busy` and closed immediately,
    /// counted in [`ServerStats::conn_rejects`] — the thread-per-
    /// connection model is only safe with a bound on the thread count.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            width: 32,
            admission: AdmissionConfig::default(),
            store_dir: None,
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 256,
        }
    }
}

/// State shared by the accept loop, every connection handler, and the
/// owning [`Server`] handle.
struct Shared {
    addr: SocketAddr,
    engine_u32: SharedEngine<u32>,
    engine_u64: SharedEngine<u64>,
    admission: AdmissionConfig,
    idle_timeout: Option<Duration>,
    max_connections: usize,
    draining: AtomicBool,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    registered_plans: AtomicU64,
    active_clients: AtomicU64,
    idle_disconnects: AtomicU64,
    conn_rejects: AtomicU64,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let a = self.engine_u32.stats();
        let b = self.engine_u64.stats();
        ServerStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            builds: a.builds + b.builds,
            plans_structured: a.plans_structured + b.plans_structured,
            plans_affine: a.plans_affine + b.plans_affine,
            store_hits: a.store_hits + b.store_hits,
            store_rejects: a.store_rejects + b.store_rejects,
            submitted: a.submitted + b.submitted,
            completed: a.completed + b.completed,
            cancelled: a.cancelled + b.cancelled,
            admission_rejects: a.admission_rejects + b.admission_rejects,
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            conn_rejects: self.conn_rejects.load(Ordering::Relaxed),
            registered_plans: self.registered_plans.load(Ordering::Relaxed),
            active_clients: self.active_clients.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, then block until both engine queues have fully
    /// flushed (`submitted == completed + cancelled`). Idempotent; safe
    /// to call from a handler thread (it joins the *accept* thread, not
    /// itself). Does NOT signal [`Server::wait_drained`] — callers do
    /// that via [`Shared::mark_drained`] once any pending `DRAIN_OK`
    /// reply is on the wire, so a `serve` process cannot exit between
    /// the flush and the acknowledgement.
    fn flush_for_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // The accept thread is parked in `accept()`; a throwaway
        // connection to ourselves wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
        self.engine_u32.drain();
        self.engine_u64.drain();
    }

    /// Wake [`Server::wait_drained`] waiters. Only call after
    /// [`Shared::flush_for_drain`].
    fn mark_drained(&self) {
        let mut done = self
            .drained
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *done = true;
        self.drained_cv.notify_all();
    }
}

/// A running permutation server. Dropping the handle stops the accept
/// loop (without flushing); call [`Server::drain`] first for a graceful
/// shutdown.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `addr` (use port 0 for an OS-assigned port), build both
    /// engines, and start accepting.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (engine_u32, engine_u64) = match &config.store_dir {
            Some(dir) => (
                SharedEngine::with_store(config.width, dir.clone()).map_err(ServerError::Plan)?,
                SharedEngine::with_store(config.width, dir.clone()).map_err(ServerError::Plan)?,
            ),
            None => (
                SharedEngine::new(config.width),
                SharedEngine::new(config.width),
            ),
        };
        let shared = Arc::new(Shared {
            addr,
            engine_u32,
            engine_u64,
            admission: config.admission,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections.max(1),
            draining: AtomicBool::new(false),
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
            registered_plans: AtomicU64::new(0),
            active_clients: AtomicU64::new(0),
            idle_disconnects: AtomicU64::new(0),
            conn_rejects: AtomicU64::new(0),
            accept: Mutex::new(None),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hmm-server-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        *shared
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(accept);
        Ok(Server { shared })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Snapshot of the aggregated server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, flush both queues, then
    /// return. Equivalent to a client sending `DRAIN`.
    pub fn drain(&self) {
        self.shared.flush_for_drain();
        self.shared.mark_drained();
    }

    /// Block until a drain (from any source — [`Server::drain`] or a
    /// client's `DRAIN` frame) has completed.
    pub fn wait_drained(&self) {
        let mut done = self
            .shared
            .drained
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*done {
            done = self
                .shared
                .drained_cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Stop the accept loop so the listener port is released; no
        // flush — `drain()` is the graceful path.
        self.shared.draining.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(handle) = self
            .shared
            .accept
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            let _ = handle.join();
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Global connection cap: refuse with a typed ERR instead of
        // spawning an unbounded number of handler threads. The reply is
        // best-effort — a peer that already vanished just loses it.
        if shared.active_clients.load(Ordering::Relaxed) >= shared.max_connections as u64 {
            shared.conn_rejects.fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(stream);
            let _ = write_frame(
                &mut writer,
                &Frame::Err {
                    code: ErrCode::Busy,
                    message: format!("server at its connection cap ({})", shared.max_connections),
                },
            );
            continue;
        }
        shared.active_clients.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("hmm-server-conn".into())
            .spawn(move || session_loop(conn_shared, stream));
        if spawned.is_err() {
            shared.active_clients.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One registered plan in a session's private namespace.
struct Registered {
    perm: Permutation,
    elem_width: u8,
}

/// Per-connection state: the handle namespace. Handles are dense
/// session-scoped integers; nothing a client sends can reach another
/// session's plans.
struct Session {
    plans: HashMap<u64, Registered>,
    next_handle: u64,
}

/// What the dispatcher decided to do with the connection after a reply.
enum After {
    KeepOpen,
    /// The request was `DRAIN`: flush both queues before the reply goes
    /// out, then close.
    Drain,
}

fn session_loop(shared: Arc<Shared>, stream: TcpStream) {
    let mut session = Session {
        plans: HashMap::new(),
        next_handle: 1,
    };
    // The read timeout is a socket-level option, shared with the clone
    // below; a tripped timeout surfaces from `read_verified` as an I/O
    // error with `WouldBlock`/`TimedOut` (platform-dependent which).
    if let Some(t) = shared.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
    }
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            shared.active_clients.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    // Every request is read into this one buffer.
    let mut buf = Vec::new();

    loop {
        let (kind, body) = match read_verified(&mut reader, &mut buf) {
            Ok(frame) => frame,
            // The idle reap: no complete frame arrived within the
            // timeout. Diagnose with a typed ERR (best effort), count
            // it, and release the handler thread.
            Err(ProtoError::Io {
                kind: std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut,
                ..
            }) if shared.idle_timeout.is_some() => {
                shared.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut writer,
                    &Frame::Err {
                        code: ErrCode::IdleTimeout,
                        message: format!(
                            "connection idle past the {:?} read timeout",
                            shared.idle_timeout.unwrap_or_default()
                        ),
                    },
                );
                break;
            }
            // Clean close between frames, or the socket died (including
            // mid-payload). Nothing was submitted for a partial frame —
            // frames are fully read before dispatch — so there is no
            // queue slot to reap; just release the session.
            Err(ProtoError::Closed) | Err(ProtoError::Io { .. }) => break,
            // Stream-level corruption (bad magic, version, checksum or
            // length): the byte stream can no longer be trusted to be
            // frame-aligned. Diagnose, then close.
            Err(e) => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::Err {
                        code: ErrCode::BadFrame,
                        message: e.to_string(),
                    },
                );
                break;
            }
        };

        let (reply, after) = respond(&shared, &mut session, kind, body);
        if matches!(after, After::Drain) {
            // `DRAIN_OK` goes to the socket after the flush but *before*
            // `wait_drained` waiters (e.g. the `serve` binary's main
            // thread) can exit the process.
            shared.flush_for_drain();
            let _ = write_sealed(&mut writer, &reply);
            shared.mark_drained();
            break;
        }
        if write_sealed(&mut writer, &reply).is_err() {
            break;
        }
    }

    shared
        .registered_plans
        .fetch_sub(session.plans.len() as u64, Ordering::Relaxed);
    shared.active_clients.fetch_sub(1, Ordering::Relaxed);
}

fn err(code: ErrCode, message: impl Into<String>) -> (Vec<u8>, After) {
    (
        Frame::Err {
            code,
            message: message.into(),
        }
        .encode(),
        After::KeepOpen,
    )
}

/// Serve one verified request frame; returns the sealed reply. The
/// payload kinds run straight from their borrowed body slices; every
/// other kind dispatches through [`Frame`]. A body that violates the
/// grammar leaves the stream frame-aligned, so it is diagnosed and the
/// connection keeps serving.
fn respond(shared: &Shared, session: &mut Session, kind: u8, body: &[u8]) -> (Vec<u8>, After) {
    let frame = match PayloadBody::parse(kind, body) {
        Ok(Some(PayloadBody::Permute { handle, payload })) => {
            return permute(shared, session, handle, &[payload], false)
        }
        Ok(Some(PayloadBody::PermuteBatch { handle, payloads })) => {
            return permute(shared, session, handle, &payloads, true)
        }
        Ok(Some(_)) | Ok(None) => Frame::decode_body(kind, body),
        Err(e) => Err(e),
    };
    match frame {
        Ok(Frame::Register {
            fingerprint,
            n,
            elem_width,
            perm,
        }) => register(shared, session, fingerprint, n, elem_width, perm),
        Ok(Frame::Stats) => (Frame::StatsReport(shared.stats()).encode(), After::KeepOpen),
        Ok(Frame::Drain) => (Frame::DrainOk.encode(), After::Drain),
        Ok(other) => err(
            ErrCode::Malformed,
            format!("unexpected {} frame from client", other.kind_name()),
        ),
        Err(e) => err(ErrCode::Malformed, e.to_string()),
    }
}

fn register(
    shared: &Shared,
    session: &mut Session,
    fingerprint: u64,
    n: u64,
    elem_width: u8,
    perm: PermRepr,
) -> (Vec<u8>, After) {
    if shared.draining.load(Ordering::SeqCst) {
        return err(ErrCode::Draining, "server is draining");
    }
    if elem_width != 4 && elem_width != 8 {
        return err(
            ErrCode::Unsupported,
            format!("element width {elem_width} (serve 4 and 8)"),
        );
    }
    let note_reject = || {
        if elem_width == 4 {
            shared.engine_u32.note_admission_reject();
        } else {
            shared.engine_u64.note_admission_reject();
        }
    };
    if let Err(e) = shared.admission.admit_plan(session.plans.len()) {
        note_reject();
        return err(e.code(), e.to_string());
    }

    let p = match build_permutation(n, perm) {
        Ok(p) => p,
        Err((code, msg)) => return err(code, msg),
    };
    // Server-side integrity check: a nonzero claim must match what the
    // bytes actually decode to (the same fingerprint the engine keys
    // its verified cache on).
    let computed = p.fingerprint();
    if fingerprint != 0 && fingerprint != computed {
        return err(
            ErrCode::FingerprintMismatch,
            format!("claimed {fingerprint:#018x}, permutation hashes to {computed:#018x}"),
        );
    }

    // Warm the verified plan cache now, so the first PERMUTE is pure
    // execution and registration errors surface at registration time.
    // The session keeps the plan's own permutation handle (equal to `p`,
    // as the plan lookup just verified), so every later PERMUTE from any
    // session registering this permutation re-resolves by pointer.
    let planned = match elem_width {
        4 => shared
            .engine_u32
            .plan(&p)
            .map(|plan| plan.permutation().clone()),
        _ => shared
            .engine_u64
            .plan(&p)
            .map(|plan| plan.permutation().clone()),
    };
    let perm = match planned {
        Ok(perm) => perm,
        Err(e) => return err(ErrCode::Plan, e.to_string()),
    };

    let handle = session.next_handle;
    session.next_handle += 1;
    session
        .plans
        .insert(handle, Registered { perm, elem_width });
    shared.registered_plans.fetch_add(1, Ordering::Relaxed);
    (Frame::Registered { handle }.encode(), After::KeepOpen)
}

fn build_permutation(n: u64, perm: PermRepr) -> Result<Permutation, (ErrCode, String)> {
    match perm {
        PermRepr::Index(map) => {
            let map: Vec<usize> = map.into_iter().map(|v| v as usize).collect();
            debug_assert_eq!(map.len() as u64, n, "decoder enforces entries == n");
            Permutation::from_vec(map).map_err(|e| {
                (
                    ErrCode::Malformed,
                    format!("index map is not a permutation: {e}"),
                )
            })
        }
        PermRepr::Bmmc { bits, offset, cols } => {
            if bits > MAX_BMMC_BITS {
                return Err((
                    ErrCode::Unsupported,
                    format!("bmmc bits {bits} exceeds cap {MAX_BMMC_BITS}"),
                ));
            }
            let cols: Vec<usize> = cols.into_iter().map(|c| c as usize).collect();
            let m = Bmmc::from_cols(cols, offset as usize)
                .map_err(|e| (ErrCode::Malformed, format!("bmmc matrix rejected: {e}")))?;
            let p = m.to_permutation();
            if p.len() as u64 != n {
                return Err((
                    ErrCode::SizeMismatch,
                    format!("bmmc expands to n={}, header claims n={n}", p.len()),
                ));
            }
            Ok(p)
        }
    }
}

fn permute(
    shared: &Shared,
    session: &mut Session,
    handle: u64,
    payloads: &[&[u8]],
    batch: bool,
) -> (Vec<u8>, After) {
    if shared.draining.load(Ordering::SeqCst) {
        return err(ErrCode::Draining, "server is draining");
    }
    let registered = match session.plans.get(&handle) {
        Some(r) => r,
        None => {
            return err(
                ErrCode::UnknownHandle,
                format!("handle {handle} is not registered on this connection"),
            )
        }
    };
    if let Err(e) = shared.admission.admit_jobs(payloads.len()) {
        if registered.elem_width == 4 {
            shared.engine_u32.note_admission_reject();
        } else {
            shared.engine_u64.note_admission_reject();
        }
        return err(e.code(), e.to_string());
    }

    let outcome = if registered.elem_width == 4 {
        run_jobs::<u32>(&shared.engine_u32, &registered.perm, payloads, batch)
    } else {
        run_jobs::<u64>(&shared.engine_u64, &registered.perm, payloads, batch)
    };
    match outcome {
        Ok(reply) => (reply, After::KeepOpen),
        Err((code, msg)) => err(code, msg),
    }
}

fn job_err(e: JobError) -> (ErrCode, String) {
    (ErrCode::Plan, format!("job failed: {e}"))
}

/// Convert each payload once into the engine's shared input, route the
/// jobs through the engine's submission queue, and seal the reply
/// straight from the outputs. The queue path — not a direct `permute`
/// call — so network tenants share backpressure, stats, and panic
/// isolation with every in-process submitter.
fn run_jobs<T: Elem>(
    engine: &SharedEngine<T>,
    perm: &Permutation,
    payloads: &[&[u8]],
    batch: bool,
) -> Result<Vec<u8>, (ErrCode, String)> {
    let n = perm.len();
    for (i, bytes) in payloads.iter().enumerate() {
        if bytes.len() != n * T::WIDTH {
            return Err((
                ErrCode::SizeMismatch,
                format!(
                    "payload {i} is {} bytes, plan needs n×width = {}×{} = {}",
                    bytes.len(),
                    n,
                    T::WIDTH,
                    n * T::WIDTH
                ),
            ));
        }
    }
    let src = |bytes: &[u8]| -> Arc<[T]> { bytes.chunks_exact(T::WIDTH).map(T::read_le).collect() };

    if let [bytes] = payloads {
        let report = engine
            .submit(perm, src(bytes), vec![T::default(); n])
            .wait()
            .map_err(job_err)?;
        let payload = report.dst.as_slice();
        return Ok(if batch {
            PayloadBody::PermutedBatch {
                payloads: vec![payload],
            }
            .seal()
        } else {
            PayloadBody::Permuted { payload }.seal()
        });
    }

    let jobs: Vec<(Arc<[T]>, Vec<T>)> = payloads
        .iter()
        .map(|bytes| (src(bytes), vec![T::default(); n]))
        .collect();
    let outputs = engine
        .submit_batch(perm, jobs)
        .wait()
        .into_iter()
        .map(|report| report.map(|r| r.dst).map_err(job_err))
        .collect::<Result<Vec<Vec<T>>, _>>()?;
    Ok(PayloadBody::PermutedBatch {
        payloads: outputs.iter().map(Vec::as_slice).collect(),
    }
    .seal())
}

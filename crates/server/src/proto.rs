//! Protocol v2: frame grammar, typed errors, and the std-only codec.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +--------+---------+------+--------------+--------+------------+
//! | magic  | version | kind | body_len u32 | body   | xxh64 u64  |
//! | "HMMS" |   u8    |  u8  |  (LE)        | bytes  | (LE)       |
//! +--------+---------+------+--------------+--------+------------+
//! |<----------- checksummed region ----------->|
//! ```
//!
//! The checksum is XXH64 (seed 0) over everything before it (header +
//! body). Version 1 sealed frames with the byte-serial FNV-1a of the
//! plan files; XXH64 checks the same bytes at memory bandwidth, and each
//! of its steps is a bijection in its input word, so a single-word
//! corruption is still always caught. [`crate::framing`] seals and
//! verifies the envelope; this module owns the body grammar.
//!
//! Hostile-input posture, mirroring the plan codec:
//!
//! * `body_len` is validated against [`MAX_BODY`] *before* any body
//!   allocation — a length-prefix of 4 GiB costs the attacker a typed
//!   [`ProtoError::Oversized`], not an OOM.
//! * Every structural violation decodes to a distinct [`ProtoError`]
//!   variant; nothing in this module panics on arbitrary bytes.
//! * Collection counts inside bodies ([`MAX_BATCH`], [`MAX_ERR_MSG`],
//!   [`MAX_BMMC_BITS`]) are capped independently of `body_len`, so a
//!   valid-length frame cannot smuggle an absurd element count.

use std::fmt;

use crate::framing::{open, seal};

/// Leading magic of every frame.
pub const MAGIC: [u8; 4] = *b"HMMS";

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// Fixed header length: magic + version + kind + body length.
pub const HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// Trailing checksum length.
pub const CHECKSUM_LEN: usize = 8;

/// Hard cap on a frame body (64 MiB). Bounds every allocation the
/// decoder can be driven to; a `PERMUTE` of 2^24 u32 elements fits.
pub const MAX_BODY: usize = 1 << 26;

/// Hard cap on payload count in one `PERMUTE_BATCH`.
pub const MAX_BATCH: usize = 4096;

/// Hard cap on an `ERR` frame's message length in bytes.
pub const MAX_ERR_MSG: usize = 4096;

/// Largest BMMC matrix accepted over the wire (n = 2^26 elements).
pub const MAX_BMMC_BITS: u8 = 26;

/// Frame kind bytes (the `kind` header field).
pub mod kind {
    /// `REGISTER` request.
    pub const REGISTER: u8 = 1;
    /// `REGISTERED` response.
    pub const REGISTERED: u8 = 2;
    /// `PERMUTE` request.
    pub const PERMUTE: u8 = 3;
    /// `PERMUTED` response.
    pub const PERMUTED: u8 = 4;
    /// `PERMUTE_BATCH` request.
    pub const PERMUTE_BATCH: u8 = 5;
    /// `PERMUTED_BATCH` response.
    pub const PERMUTED_BATCH: u8 = 6;
    /// `STATS` request.
    pub const STATS: u8 = 7;
    /// `STATS_REPORT` response.
    pub const STATS_REPORT: u8 = 8;
    /// `DRAIN` request.
    pub const DRAIN: u8 = 9;
    /// `DRAIN_OK` response.
    pub const DRAIN_OK: u8 = 10;
    /// `ERR` response.
    pub const ERR: u8 = 15;

    /// Short name of a kind byte, for diagnostics.
    pub(crate) fn name(kind: u8) -> &'static str {
        match kind {
            REGISTER => "REGISTER",
            REGISTERED => "REGISTERED",
            PERMUTE => "PERMUTE",
            PERMUTED => "PERMUTED",
            PERMUTE_BATCH => "PERMUTE_BATCH",
            PERMUTED_BATCH => "PERMUTED_BATCH",
            STATS => "STATS",
            STATS_REPORT => "STATS_REPORT",
            DRAIN => "DRAIN",
            DRAIN_OK => "DRAIN_OK",
            ERR => "ERR",
            _ => "unknown",
        }
    }
}

/// Typed error codes carried by [`Frame::Err`]. The server never answers
/// a malformed or refused request with a silent disconnect — it answers
/// with one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrCode {
    /// Request body decoded but violated protocol semantics.
    Malformed = 1,
    /// `PERMUTE`/`PERMUTE_BATCH` named a handle this session never
    /// registered (or already saw rejected).
    UnknownHandle = 2,
    /// Admission control: the session is at its registered-plan quota.
    AdmissionPlans = 3,
    /// Admission control: the request would exceed the session's
    /// in-flight job quota.
    AdmissionInFlight = 4,
    /// The fingerprint the client claimed does not match the permutation
    /// it sent — the payload was corrupted or mis-built client-side.
    FingerprintMismatch = 5,
    /// Plan construction failed server-side (`PlanError`).
    Plan = 6,
    /// The server is draining: no new registrations or jobs.
    Draining = 7,
    /// A payload's byte length does not match `n × width` for the handle.
    SizeMismatch = 8,
    /// Valid frame, unsupported content (element width, BMMC size…).
    Unsupported = 9,
    /// A frame-level decode failure (bad magic/version/checksum/length):
    /// the byte stream can no longer be trusted, so the server sends
    /// this and closes.
    BadFrame = 10,
    /// The connection sat idle past the server's read timeout; the
    /// server sends this and closes.
    IdleTimeout = 11,
    /// The server is at its global connection cap; sent immediately
    /// after accept, then the connection closes.
    Busy = 12,
}

impl ErrCode {
    /// Decode a wire code; unknown codes collapse to [`ErrCode::Malformed`]
    /// rather than failing the whole frame (forward compatibility).
    pub fn from_u16(v: u16) -> ErrCode {
        match v {
            1 => ErrCode::Malformed,
            2 => ErrCode::UnknownHandle,
            3 => ErrCode::AdmissionPlans,
            4 => ErrCode::AdmissionInFlight,
            5 => ErrCode::FingerprintMismatch,
            6 => ErrCode::Plan,
            7 => ErrCode::Draining,
            8 => ErrCode::SizeMismatch,
            9 => ErrCode::Unsupported,
            10 => ErrCode::BadFrame,
            11 => ErrCode::IdleTimeout,
            12 => ErrCode::Busy,
            _ => ErrCode::Malformed,
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrCode::Malformed => "malformed",
            ErrCode::UnknownHandle => "unknown-handle",
            ErrCode::AdmissionPlans => "admission-plans",
            ErrCode::AdmissionInFlight => "admission-in-flight",
            ErrCode::FingerprintMismatch => "fingerprint-mismatch",
            ErrCode::Plan => "plan",
            ErrCode::Draining => "draining",
            ErrCode::SizeMismatch => "size-mismatch",
            ErrCode::Unsupported => "unsupported",
            ErrCode::BadFrame => "bad-frame",
            ErrCode::IdleTimeout => "idle-timeout",
            ErrCode::Busy => "busy",
        };
        f.write_str(name)
    }
}

/// Everything that can go wrong turning bytes into a [`Frame`] (or
/// moving them over a socket). Mirrors the plan codec's posture: typed,
/// never a panic, never an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// Input ended inside the named section.
    Truncated {
        /// Which part of the frame the input ran out in.
        what: &'static str,
    },
    /// The first four bytes were not `HMMS`.
    BadMagic,
    /// Unsupported protocol version byte.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Unknown frame kind byte.
    BadKind {
        /// The kind byte received.
        got: u8,
    },
    /// `body_len` (or an inner count) exceeded its cap; rejected before
    /// any allocation of that size.
    Oversized {
        /// The declared length/count.
        len: u64,
        /// The cap it violated.
        max: u64,
    },
    /// Stored checksum did not match the recomputed one.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// Structurally valid frame whose body violated the grammar.
    Malformed {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// Bytes left over after a complete buffer decode.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// Socket-level I/O failure (mid-frame EOF included).
    Io {
        /// The `std::io::ErrorKind` of the failure.
        kind: std::io::ErrorKind,
        /// Which frame section was being transferred.
        context: &'static str,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Truncated { what } => write!(f, "truncated frame: ran out in {what}"),
            ProtoError::BadMagic => write!(f, "bad magic (expected HMMS)"),
            ProtoError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (speak {PROTOCOL_VERSION})"
                )
            }
            ProtoError::BadKind { got } => write!(f, "unknown frame kind {got}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "declared length {len} exceeds cap {max}")
            }
            ProtoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProtoError::Malformed { reason } => write!(f, "malformed body: {reason}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
            ProtoError::Io { kind, context } => write!(f, "i/o error ({kind:?}) during {context}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Element type streamable through the protocol: fixed wire width,
/// little-endian. Implemented for `u32` and `u64` — the two widths the
/// engines serve.
pub trait Elem: Copy + Send + Sync + Default + PartialEq + fmt::Debug + 'static {
    /// Wire width in bytes.
    const WIDTH: usize;
    /// Append the little-endian bytes of every element of `src` to `out`
    /// in one bulk pass.
    fn extend_le(out: &mut Vec<u8>, src: &[Self]);
    /// Read one element from exactly `WIDTH` bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_elem {
    ($($t:ty),*) => {$(
        impl Elem for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn extend_le(out: &mut Vec<u8>, src: &[Self]) {
                let start = out.len();
                out.resize(start + src.len() * Self::WIDTH, 0);
                for (chunk, v) in out[start..].chunks_exact_mut(Self::WIDTH).zip(src) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::WIDTH].try_into().expect("WIDTH bytes"))
            }
        }
    )*};
}

impl_elem!(u32, u64);

/// Serialize a typed payload to its wire bytes (little-endian).
pub fn elems_to_bytes<T: Elem>(src: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() * T::WIDTH);
    T::extend_le(&mut out, src);
    out
}

/// Deserialize wire bytes into a typed payload; `None` if the byte
/// length is not a multiple of the element width.
pub fn bytes_to_elems<T: Elem>(bytes: &[u8]) -> Option<Vec<T>> {
    if !bytes.len().is_multiple_of(T::WIDTH) {
        return None;
    }
    Some(bytes.chunks_exact(T::WIDTH).map(T::read_le).collect())
}

/// How a `REGISTER` frame carries its permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermRepr {
    /// The explicit map: `n` destination indices, each a `u32`.
    Index(Vec<u32>),
    /// An affine GF(2) bit-matrix (BMMC): `bits` column masks plus an
    /// offset mask, expanded server-side. O(log² n) on the wire instead
    /// of O(n) — the cheap path for structured tenants.
    Bmmc {
        /// log2 of the permutation length.
        bits: u8,
        /// XOR offset mask (affine part).
        offset: u64,
        /// Column masks of the GF(2) matrix, length `bits`.
        cols: Vec<u64>,
    },
}

/// Server-wide counters reported by `STATS_REPORT`: both engines'
/// [`EngineStats`](hmm_native::EngineStats) summed, plus the front
/// door's own gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Plan-cache hits (both element widths).
    pub hits: u64,
    /// Plan-cache misses.
    pub misses: u64,
    /// König colorings actually performed by this process.
    pub builds: u64,
    /// Plans produced by the structured (BMMC) fast path.
    pub plans_structured: u64,
    /// Plans carrying affine descriptors (eligible for the map-free
    /// computed-index kernels).
    pub plans_affine: u64,
    /// Plans served (verified) from the on-disk store.
    pub store_hits: u64,
    /// Store files discarded as corrupt/colliding.
    pub store_rejects: u64,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that ran to completion (success or worker-side error).
    pub completed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Requests refused by admission control.
    pub admission_rejects: u64,
    /// Connections closed for sitting idle past the read timeout.
    pub idle_disconnects: u64,
    /// Connections refused at accept because the server was at its
    /// global connection cap.
    pub conn_rejects: u64,
    /// Plan handles currently registered across live sessions.
    pub registered_plans: u64,
    /// Live client connections.
    pub active_clients: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

/// Number of `u64` counter fields in a `STATS_REPORT` body.
const STATS_FIELDS: u8 = 16;

/// One protocol message. `encode` and `decode` are exact inverses for
/// every well-formed frame (pinned by the proptest suite).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Register a permutation and receive a session-scoped handle.
    Register {
        /// Client-computed
        /// [`Permutation::fingerprint`](hmm_perm::Permutation::fingerprint);
        /// `0` means "no claim"
        /// (used for BMMC registrations, where the client never
        /// materializes the index map). A nonzero claim is verified
        /// server-side.
        fingerprint: u64,
        /// Permutation length in elements.
        n: u64,
        /// Element width in bytes: 4 or 8.
        elem_width: u8,
        /// The permutation itself.
        perm: PermRepr,
    },
    /// Successful registration.
    Registered {
        /// Session-scoped plan handle.
        handle: u64,
    },
    /// Apply a registered plan to one payload.
    Permute {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// `n × width` little-endian element bytes.
        payload: Vec<u8>,
    },
    /// Successful single permute.
    Permuted {
        /// The permuted payload, same length as the request's.
        payload: Vec<u8>,
    },
    /// Apply a registered plan to many payloads in one queue batch.
    PermuteBatch {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// The payloads, each `n × width` bytes.
        payloads: Vec<Vec<u8>>,
    },
    /// Successful batch permute; outputs in request order.
    PermutedBatch {
        /// The permuted payloads.
        payloads: Vec<Vec<u8>>,
    },
    /// Request a [`ServerStats`] snapshot.
    Stats,
    /// Stats snapshot response.
    StatsReport(ServerStats),
    /// Graceful shutdown: stop accepting, flush the queue, then close.
    Drain,
    /// Drain completed; the connection closes after this frame.
    DrainOk,
    /// Typed refusal — the server's answer to anything it cannot serve.
    Err {
        /// Machine-readable error class.
        code: ErrCode,
        /// Human-readable diagnosis (≤ [`MAX_ERR_MSG`] bytes).
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Body codec helpers (cursor-style, mirroring the hmm-plan codec)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(ProtoError::Truncated { what })?;
        if end > self.buf.len() {
            return Err(ProtoError::Truncated { what });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn finish(self) -> Result<(), ProtoError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtoError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn malformed(reason: impl Into<String>) -> ProtoError {
    ProtoError::Malformed {
        reason: reason.into(),
    }
}

impl Frame {
    /// The frame's wire kind byte.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Register { .. } => kind::REGISTER,
            Frame::Registered { .. } => kind::REGISTERED,
            Frame::Permute { .. } => kind::PERMUTE,
            Frame::Permuted { .. } => kind::PERMUTED,
            Frame::PermuteBatch { .. } => kind::PERMUTE_BATCH,
            Frame::PermutedBatch { .. } => kind::PERMUTED_BATCH,
            Frame::Stats => kind::STATS,
            Frame::StatsReport(_) => kind::STATS_REPORT,
            Frame::Drain => kind::DRAIN,
            Frame::DrainOk => kind::DRAIN_OK,
            Frame::Err { .. } => kind::ERR,
        }
    }

    /// Short name for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        kind::name(self.kind())
    }

    /// Encode the complete frame: header, body, trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.kind();
        match self {
            Frame::Register {
                fingerprint,
                n,
                elem_width,
                perm,
            } => {
                let perm_len = match perm {
                    PermRepr::Index(map) => 4 * map.len(),
                    PermRepr::Bmmc { cols, .. } => 9 + 8 * cols.len(),
                };
                seal(k, 18 + perm_len, |out| {
                    put_u64(out, *fingerprint);
                    put_u64(out, *n);
                    out.push(*elem_width);
                    match perm {
                        PermRepr::Index(map) => {
                            out.push(0);
                            u32::extend_le(out, map);
                        }
                        PermRepr::Bmmc { bits, offset, cols } => {
                            out.push(1);
                            out.push(*bits);
                            put_u64(out, *offset);
                            u64::extend_le(out, cols);
                        }
                    }
                })
            }
            Frame::Registered { handle } => seal(k, 8, |out| put_u64(out, *handle)),
            Frame::Permute { handle, payload } => PayloadBody::Permute {
                handle: *handle,
                payload,
            }
            .seal_with(Vec::extend_from_slice),
            Frame::Permuted { payload } => {
                PayloadBody::Permuted { payload }.seal_with(Vec::extend_from_slice)
            }
            Frame::PermuteBatch { handle, payloads } => PayloadBody::PermuteBatch {
                handle: *handle,
                payloads: payloads.iter().map(Vec::as_slice).collect(),
            }
            .seal_with(Vec::extend_from_slice),
            Frame::PermutedBatch { payloads } => PayloadBody::PermutedBatch {
                payloads: payloads.iter().map(Vec::as_slice).collect(),
            }
            .seal_with(Vec::extend_from_slice),
            Frame::Stats | Frame::Drain | Frame::DrainOk => seal(k, 0, |_| {}),
            Frame::StatsReport(s) => seal(k, 1 + 8 * usize::from(STATS_FIELDS), |out| {
                out.push(STATS_FIELDS);
                u64::extend_le(
                    out,
                    &[
                        s.hits,
                        s.misses,
                        s.builds,
                        s.plans_structured,
                        s.plans_affine,
                        s.store_hits,
                        s.store_rejects,
                        s.submitted,
                        s.completed,
                        s.cancelled,
                        s.admission_rejects,
                        s.idle_disconnects,
                        s.conn_rejects,
                        s.registered_plans,
                        s.active_clients,
                        u64::from(s.draining),
                    ],
                );
            }),
            Frame::Err { code, message } => {
                let msg = &message.as_bytes()[..message.len().min(MAX_ERR_MSG)];
                seal(k, 6 + msg.len(), |out| {
                    out.extend_from_slice(&(*code as u16).to_le_bytes());
                    put_u32(out, msg.len() as u32);
                    out.extend_from_slice(msg);
                })
            }
        }
    }

    /// Decode a complete frame from a contiguous buffer (header, body,
    /// checksum). The streaming path ([`read_frame`]) makes the same
    /// checks; this entry exists for tests and in-memory use.
    ///
    /// [`read_frame`]: crate::framing::read_frame
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtoError> {
        let (kind, body) = open(bytes)?;
        Frame::decode_body(kind, body)
    }

    /// Decode a frame body whose header (and checksum) already passed.
    pub fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, ProtoError> {
        if let Some(payloads) = PayloadBody::parse(kind, body)? {
            return Ok(payloads.to_frame());
        }
        let mut r = Reader::new(body);
        let frame = match kind {
            kind::REGISTER => {
                let fingerprint = r.u64("register fingerprint")?;
                let n = r.u64("register n")?;
                let elem_width = r.u8("register width")?;
                let repr = r.u8("register repr tag")?;
                let perm = match repr {
                    0 => {
                        let entries = r.rest();
                        if !entries.len().is_multiple_of(4) {
                            return Err(malformed("index map bytes not a multiple of 4"));
                        }
                        let count = entries.len() / 4;
                        if count as u64 != n {
                            return Err(malformed(format!(
                                "index map has {count} entries, header claims n={n}"
                            )));
                        }
                        PermRepr::Index(entries.chunks_exact(4).map(u32::read_le).collect())
                    }
                    1 => {
                        let bits = r.u8("bmmc bits")?;
                        if bits > MAX_BMMC_BITS {
                            return Err(ProtoError::Oversized {
                                len: u64::from(bits),
                                max: u64::from(MAX_BMMC_BITS),
                            });
                        }
                        let offset = r.u64("bmmc offset")?;
                        let mut cols = Vec::with_capacity(usize::from(bits));
                        for _ in 0..bits {
                            cols.push(r.u64("bmmc column")?);
                        }
                        if n != 1u64 << bits {
                            return Err(malformed(format!(
                                "bmmc bits={bits} implies n={}, header claims n={n}",
                                1u64 << bits
                            )));
                        }
                        PermRepr::Bmmc { bits, offset, cols }
                    }
                    other => return Err(malformed(format!("unknown perm repr tag {other}"))),
                };
                Frame::Register {
                    fingerprint,
                    n,
                    elem_width,
                    perm,
                }
            }
            kind::REGISTERED => Frame::Registered {
                handle: r.u64("registered handle")?,
            },
            kind::STATS => Frame::Stats,
            kind::STATS_REPORT => {
                let fields = r.u8("stats field count")?;
                if fields != STATS_FIELDS {
                    return Err(malformed(format!(
                        "stats report carries {fields} fields, the protocol defines {STATS_FIELDS}"
                    )));
                }
                let mut v = [0u64; STATS_FIELDS as usize];
                for slot in v.iter_mut() {
                    *slot = r.u64("stats field")?;
                }
                Frame::StatsReport(ServerStats {
                    hits: v[0],
                    misses: v[1],
                    builds: v[2],
                    plans_structured: v[3],
                    plans_affine: v[4],
                    store_hits: v[5],
                    store_rejects: v[6],
                    submitted: v[7],
                    completed: v[8],
                    cancelled: v[9],
                    admission_rejects: v[10],
                    idle_disconnects: v[11],
                    conn_rejects: v[12],
                    registered_plans: v[13],
                    active_clients: v[14],
                    draining: v[15] != 0,
                })
            }
            kind::DRAIN => Frame::Drain,
            kind::DRAIN_OK => Frame::DrainOk,
            kind::ERR => {
                let code = ErrCode::from_u16(r.u16("err code")?);
                let len = r.u32("err message length")? as usize;
                if len > MAX_ERR_MSG {
                    return Err(ProtoError::Oversized {
                        len: len as u64,
                        max: MAX_ERR_MSG as u64,
                    });
                }
                let bytes = r.take(len, "err message")?;
                let message = std::str::from_utf8(bytes)
                    .map_err(|_| malformed("err message is not utf-8"))?
                    .to_string();
                Frame::Err { code, message }
            }
            other => return Err(ProtoError::BadKind { got: other }),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// The body of one of the four payload-carrying frames, its payloads
/// borrowed: from the verified frame buffer when parsed
/// ([`PayloadBody::parse`]), from the caller's typed slices when sealed
/// ([`PayloadBody::seal`]). The client and server hot paths use it in
/// place of [`Frame`], so each side converts a payload once instead of
/// copying it into and out of an owned frame.
#[derive(Debug, Clone, PartialEq)]
pub enum PayloadBody<'a, T = u8> {
    /// `PERMUTE`: `handle u64`, then the payload to the end of the body.
    Permute {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// `n` elements.
        payload: &'a [T],
    },
    /// `PERMUTED`: the payload is the whole body.
    Permuted {
        /// The permuted payload.
        payload: &'a [T],
    },
    /// `PERMUTE_BATCH`: `handle u64`, `count u32`, then
    /// `count × (len u32, bytes)`.
    PermuteBatch {
        /// Handle from [`Frame::Registered`].
        handle: u64,
        /// The payloads, each `n` elements.
        payloads: Vec<&'a [T]>,
    },
    /// `PERMUTED_BATCH`: `count u32`, then `count × (len u32, bytes)`.
    PermutedBatch {
        /// The permuted payloads, in request order.
        payloads: Vec<&'a [T]>,
    },
}

impl<T> PayloadBody<'_, T> {
    fn kind(&self) -> u8 {
        match self {
            PayloadBody::Permute { .. } => kind::PERMUTE,
            PayloadBody::Permuted { .. } => kind::PERMUTED,
            PayloadBody::PermuteBatch { .. } => kind::PERMUTE_BATCH,
            PayloadBody::PermutedBatch { .. } => kind::PERMUTED_BATCH,
        }
    }

    /// Seal this body, `put` appending one payload's bytes: the one
    /// writer of the four payload grammars, for raw and typed payloads.
    fn seal_with(&self, put: impl Fn(&mut Vec<u8>, &[T])) -> Vec<u8> {
        let (handle, payloads, batch) = match self {
            PayloadBody::Permute { handle, payload } => {
                (Some(*handle), std::slice::from_ref(payload), false)
            }
            PayloadBody::Permuted { payload } => (None, std::slice::from_ref(payload), false),
            PayloadBody::PermuteBatch { handle, payloads } => (Some(*handle), &payloads[..], true),
            PayloadBody::PermutedBatch { payloads } => (None, &payloads[..], true),
        };
        // A payload's wire length is its size in memory: raw bytes, or
        // `Elem::WIDTH` bytes per typed element.
        let handle_len = if handle.is_some() { 8 } else { 0 };
        let count_len = if batch { 4 + 4 * payloads.len() } else { 0 };
        let data_len: usize = payloads.iter().map(|p| std::mem::size_of_val(*p)).sum();
        seal(self.kind(), handle_len + count_len + data_len, |out| {
            if let Some(handle) = handle {
                put_u64(out, handle);
            }
            if batch {
                put_u32(out, payloads.len() as u32);
            }
            for p in payloads {
                if batch {
                    put_u32(out, std::mem::size_of_val(*p) as u32);
                }
                put(out, p);
            }
        })
    }
}

impl<T: Elem> PayloadBody<'_, T> {
    /// Seal the frame straight from typed slices, converting each element
    /// once, into the frame buffer. Byte-identical to [`Frame::encode`] of
    /// the equivalent owned frame.
    pub fn seal(&self) -> Vec<u8> {
        self.seal_with(T::extend_le)
    }
}

impl<'a> PayloadBody<'a> {
    /// Parse a verified body of kind `PERMUTE`, `PERMUTED`,
    /// `PERMUTE_BATCH` or `PERMUTED_BATCH` into slices of `body`; `None`
    /// for every other kind. The one parser of these grammars —
    /// [`Frame::decode_body`] goes through it too.
    pub fn parse(kind: u8, body: &'a [u8]) -> Result<Option<Self>, ProtoError> {
        let mut r = Reader::new(body);
        let parsed = match kind {
            kind::PERMUTE => PayloadBody::Permute {
                handle: r.u64("permute handle")?,
                payload: r.rest(),
            },
            kind::PERMUTED => PayloadBody::Permuted { payload: r.rest() },
            kind::PERMUTE_BATCH => PayloadBody::PermuteBatch {
                handle: r.u64("batch handle")?,
                payloads: payload_list(&mut r)?,
            },
            kind::PERMUTED_BATCH => PayloadBody::PermutedBatch {
                payloads: payload_list(&mut r)?,
            },
            _ => return Ok(None),
        };
        r.finish()?;
        Ok(Some(parsed))
    }

    /// The equivalent owned frame.
    fn to_frame(&self) -> Frame {
        let owned = |payloads: &[&[u8]]| payloads.iter().map(|p| p.to_vec()).collect();
        match self {
            PayloadBody::Permute { handle, payload } => Frame::Permute {
                handle: *handle,
                payload: payload.to_vec(),
            },
            PayloadBody::Permuted { payload } => Frame::Permuted {
                payload: payload.to_vec(),
            },
            PayloadBody::PermuteBatch { handle, payloads } => Frame::PermuteBatch {
                handle: *handle,
                payloads: owned(payloads),
            },
            PayloadBody::PermutedBatch { payloads } => Frame::PermutedBatch {
                payloads: owned(payloads),
            },
        }
    }
}

/// Shared grammar of `PERMUTE_BATCH` / `PERMUTED_BATCH` bodies:
/// `count u32`, then `count × (len u32, bytes)`. The count cap plus the
/// already-capped body length bound total allocation.
fn payload_list<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a [u8]>, ProtoError> {
    let count = r.u32("batch count")? as usize;
    if count > MAX_BATCH {
        return Err(ProtoError::Oversized {
            len: count as u64,
            max: MAX_BATCH as u64,
        });
    }
    let mut payloads = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32("batch payload length")? as usize;
        payloads.push(r.take(len, "batch payload")?);
    }
    Ok(payloads)
}

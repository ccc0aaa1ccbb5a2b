//! The client library: a blocking, typed façade over the wire protocol.
//!
//! One [`Client`] is one connection — and therefore one server-side
//! session/handle namespace. The client computes the permutation
//! fingerprint locally before a [`Client::register`], so the server can
//! verify the bytes survived the trip; BMMC registrations
//! ([`Client::register_bmmc`]) send the O(log² n) matrix instead of the
//! O(n) map and skip the claim (the server fingerprints the expansion).

use std::io::{BufReader, BufWriter};
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};

use hmm_perm::{Bmmc, Permutation};

use crate::framing::{read_verified, write_sealed};
use crate::proto::{
    bytes_to_elems, kind, Elem, ErrCode, Frame, PayloadBody, PermRepr, ProtoError, ServerStats,
};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Wire-level failure (codec or socket).
    Proto(ProtoError),
    /// The server answered with a typed `ERR` frame.
    Server {
        /// Machine-readable error class.
        code: ErrCode,
        /// The server's diagnosis.
        message: String,
    },
    /// The server answered with a well-formed frame of the wrong kind.
    Unexpected {
        /// Kind name of the frame received.
        got: &'static str,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
            ClientError::Unexpected { got } => write!(f, "unexpected {got} frame from server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A registered plan, typed by element width. Only valid on the
/// [`Client`] that registered it (handles are session-scoped).
#[derive(Debug, Clone, Copy)]
pub struct PlanHandle<T> {
    id: u64,
    n: usize,
    _elem: PhantomData<T>,
}

impl<T> PlanHandle<T> {
    /// The wire handle id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The plan's permutation length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the (degenerate) empty plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// One blocking connection to an `hmm-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Frame buffer every reply is read into, reused across requests.
    buf: Vec<u8>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            ClientError::Proto(ProtoError::Io {
                kind: e.kind(),
                context: "connect",
            })
        })?;
        let reader_stream = stream.try_clone().map_err(|e| {
            ClientError::Proto(ProtoError::Io {
                kind: e.kind(),
                context: "connect",
            })
        })?;
        Ok(Client {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            buf: Vec::new(),
        })
    }

    /// Send one sealed request and return the verified reply's kind and
    /// body; an `ERR` reply becomes [`ClientError::Server`].
    fn exchange(&mut self, request: &[u8]) -> Result<(u8, &[u8])> {
        write_sealed(&mut self.writer, request)?;
        let (kind, body) = read_verified(&mut self.reader, &mut self.buf)?;
        if kind == kind::ERR {
            if let Frame::Err { code, message } = Frame::decode_body(kind, body)? {
                return Err(ClientError::Server { code, message });
            }
        }
        Ok((kind, body))
    }

    /// One request/response round trip of owned frames.
    fn roundtrip(&mut self, request: &Frame) -> Result<Frame> {
        let (kind, body) = self.exchange(&request.encode())?;
        Ok(Frame::decode_body(kind, body)?)
    }

    /// Register an explicit permutation; the fingerprint claim is
    /// computed here and verified server-side.
    pub fn register<T: Elem>(&mut self, p: &Permutation) -> Result<PlanHandle<T>> {
        let map: Vec<u32> = p.as_slice().iter().map(|&v| v as u32).collect();
        let request = Frame::Register {
            fingerprint: p.fingerprint(),
            n: p.len() as u64,
            elem_width: T::WIDTH as u8,
            perm: PermRepr::Index(map),
        };
        self.finish_register(request, p.len())
    }

    /// Register an affine (BMMC) permutation by its GF(2) matrix —
    /// O(log² n) bytes on the wire; the server expands and fingerprints
    /// it.
    pub fn register_bmmc<T: Elem>(&mut self, m: &Bmmc) -> Result<PlanHandle<T>> {
        let bits = m.bits();
        let cols: Vec<u64> = (0..bits).map(|j| m.col(j) as u64).collect();
        let request = Frame::Register {
            fingerprint: 0,
            n: m.len() as u64,
            elem_width: T::WIDTH as u8,
            perm: PermRepr::Bmmc {
                bits: bits as u8,
                offset: m.offset() as u64,
                cols,
            },
        };
        self.finish_register(request, m.len())
    }

    fn finish_register<T: Elem>(&mut self, request: Frame, n: usize) -> Result<PlanHandle<T>> {
        match self.roundtrip(&request)? {
            Frame::Registered { handle } => Ok(PlanHandle {
                id: handle,
                n,
                _elem: PhantomData,
            }),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }

    /// Apply a registered plan to one payload.
    pub fn permute<T: Elem>(&mut self, handle: &PlanHandle<T>, src: &[T]) -> Result<Vec<T>> {
        let request = PayloadBody::Permute {
            handle: handle.id,
            payload: src,
        }
        .seal();
        let (kind, body) = self.exchange(&request)?;
        match PayloadBody::parse(kind, body)? {
            Some(PayloadBody::Permuted { payload }) => elems(payload),
            _ => Err(ClientError::Unexpected {
                got: kind::name(kind),
            }),
        }
    }

    /// Apply a registered plan to many payloads in one queue batch;
    /// outputs come back in request order.
    pub fn permute_batch<T: Elem>(
        &mut self,
        handle: &PlanHandle<T>,
        srcs: &[Vec<T>],
    ) -> Result<Vec<Vec<T>>> {
        let request = PayloadBody::PermuteBatch {
            handle: handle.id,
            payloads: srcs.iter().map(Vec::as_slice).collect(),
        }
        .seal();
        let (kind, body) = self.exchange(&request)?;
        match PayloadBody::parse(kind, body)? {
            Some(PayloadBody::PermutedBatch { payloads }) => {
                payloads.into_iter().map(elems).collect()
            }
            _ => Err(ClientError::Unexpected {
                got: kind::name(kind),
            }),
        }
    }

    /// Fetch the server's aggregated counters.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.roundtrip(&Frame::Stats)? {
            Frame::StatsReport(s) => Ok(s),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }

    /// Ask the server to drain: stop accepting, flush the queue, close.
    /// Returns once `DRAIN_OK` arrives (the connection is then dead).
    pub fn drain(&mut self) -> Result<()> {
        match self.roundtrip(&Frame::Drain)? {
            Frame::DrainOk => Ok(()),
            other => Err(ClientError::Unexpected {
                got: other.kind_name(),
            }),
        }
    }
}

/// Convert one reply payload to elements.
fn elems<T: Elem>(payload: &[u8]) -> Result<Vec<T>> {
    bytes_to_elems(payload).ok_or_else(|| {
        ClientError::Proto(ProtoError::Malformed {
            reason: "permuted payload length not a multiple of width".into(),
        })
    })
}

//! The frame envelope: sealing, verification, and streaming I/O over any
//! `Read`/`Write` pair.
//!
//! `seal` writes header, body and XXH64 trailer into one buffer, and
//! [`open`] verifies a complete frame in place; every encoder and decoder
//! in the crate goes through these two. The streaming reader validates
//! the header — magic, version, and the [`MAX_BODY`] cap — *before*
//! allocating or reading a single body byte, so a hostile peer claiming a
//! 4 GiB body costs one typed error, not an allocation. The checksum is
//! verified over exactly the bytes received, catching both corruption and
//! desynchronization.

use std::io::{self, ErrorKind, Read, Write};

use hmm_plan::xxh64;

use crate::proto::{
    Frame, ProtoError, CHECKSUM_LEN, HEADER_LEN, MAGIC, MAX_BODY, PROTOCOL_VERSION,
};

fn io_err(context: &'static str) -> impl FnOnce(io::Error) -> ProtoError {
    move |e| ProtoError::Io {
        kind: e.kind(),
        context,
    }
}

/// Seal one frame into a single buffer: the header, the body `put_body`
/// appends, then the XXH64 trailer over both. `body_capacity` sizes the
/// buffer up front; an exact value writes the frame with no reallocation.
pub(crate) fn seal(kind: u8, body_capacity: usize, put_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body_capacity + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0; 4]); // body_len, patched below
    put_body(&mut out);
    let body_len = out.len() - HEADER_LEN;
    debug_assert!(body_len <= MAX_BODY, "encoder produced an oversized body");
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
    let sum = xxh64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validate a header and return its `(kind, body_len)`.
fn parse_header(header: &[u8]) -> Result<(u8, usize), ProtoError> {
    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion { got: header[4] });
    }
    let body_len = u32::from_le_bytes(header[6..HEADER_LEN].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY {
        return Err(ProtoError::Oversized {
            len: body_len as u64,
            max: MAX_BODY as u64,
        });
    }
    Ok((header[5], body_len))
}

/// Verify one complete frame held in `bytes` — header, length, checksum,
/// nothing trailing — and return its kind and body, borrowed in place.
pub fn open(bytes: &[u8]) -> Result<(u8, &[u8]), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Truncated { what: "header" });
    }
    let (kind, body_len) = parse_header(&bytes[..HEADER_LEN])?;
    let sum_at = HEADER_LEN + body_len;
    let total = sum_at + CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(ProtoError::Truncated {
            what: if bytes.len() < sum_at {
                "body"
            } else {
                "checksum"
            },
        });
    }
    if bytes.len() > total {
        return Err(ProtoError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let stored = u64::from_le_bytes(bytes[sum_at..].try_into().expect("8 bytes"));
    let computed = xxh64(&bytes[..sum_at]);
    if stored != computed {
        return Err(ProtoError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, &bytes[HEADER_LEN..sum_at]))
}

/// Read one complete frame into `buf` (reused across calls) and return
/// its kind and verified body, borrowed from `buf`.
///
/// A clean close (EOF before the first header byte) returns
/// [`ProtoError::Closed`]; EOF anywhere inside a frame is an
/// [`ProtoError::Io`] with `UnexpectedEof` — the distinction lets a
/// server tell "client finished" from "client died mid-payload". A
/// signal interrupting the wait for a frame is retried, never reported.
pub(crate) fn read_verified<'b, R: Read>(
    r: &mut R,
    buf: &'b mut Vec<u8>,
) -> Result<(u8, &'b [u8]), ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte separately: 0 bytes here is a clean between-frames close.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(ProtoError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("read header")(e)),
        }
    }
    r.read_exact(&mut header[1..])
        .map_err(io_err("read header"))?;
    // Refused before any body allocation or read.
    let (_, body_len) = parse_header(&header)?;

    buf.clear();
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + body_len + CHECKSUM_LEN, 0);
    let (body, sum) = buf[HEADER_LEN..].split_at_mut(body_len);
    r.read_exact(body).map_err(io_err("read body"))?;
    r.read_exact(sum).map_err(io_err("read checksum"))?;
    open(buf)
}

/// Read one complete frame and decode it.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let mut buf = Vec::new();
    let (kind, body) = read_verified(r, &mut buf)?;
    Frame::decode_body(kind, body)
}

/// Write one sealed frame and flush.
pub(crate) fn write_sealed<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame).map_err(io_err("write frame"))?;
    w.flush().map_err(io_err("flush frame"))
}

/// Write one complete frame and flush.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    write_sealed(w, &frame.encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails its first read with `Interrupted`, as a read cut short by a
    /// signal does, then serves `bytes`.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        bytes: &'a [u8],
    }

    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::Error::from(ErrorKind::Interrupted));
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_signal_before_the_first_byte_is_retried() {
        let bytes = Frame::Registered { handle: 9 }.encode();
        let mut r = InterruptedOnce {
            interrupted: false,
            bytes: &bytes,
        };
        assert_eq!(read_frame(&mut r), Ok(Frame::Registered { handle: 9 }));
    }
}

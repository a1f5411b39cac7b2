//! The length-prefixed binary frame format, negotiated per connection
//! alongside newline-delimited JSON.
//!
//! A binary connection opens with the 4-byte magic [`MAGIC`] (`SPB1`);
//! the server echoes the same 4 bytes as an acknowledgement and both
//! sides then exchange frames:
//!
//! ```text
//! offset 0  u32 LE   payload length N (kind byte + body, 1 <= N <= MAX_FRAME)
//! offset 4  u8       kind (request: 0x01..0x07, response: 0x81)
//! offset 5  [u8; N-1] body
//! ```
//!
//! Every body is written by [`serde::Wire`], the binary form the
//! message types derive next to their JSON form (the byte rules are in
//! the serde shim's `wire` module): integers little-endian, `f64`s as
//! their [`f64::to_bits`] pattern, so a decoded feature vector or
//! predicted time is bit-identical to what was encoded, and strings and
//! sequences behind a `u16` length (`u32` for a batch and for a sync
//! reply's checkpoint and records, which can outgrow 64 KiB). Frames
//! decode to the exact same [`Request`]/[`Response`] types as the JSON
//! protocol, so the engine, journal, and contention counters cannot tell
//! the protocols apart.
//!
//! Two mappings stay written out here, because deriving them would
//! change bytes on one wire or the other: a [`Request`] variant to its
//! kind byte and fields (a select's `deadline_ms` follows its body on
//! the wire but sits inside it in the type, whose field order is the
//! JSON key order), and a [`Response`] to its one populated section
//! behind a tag, with batches nested at most two deep.
//!
//! Decoding is total: every malformed body comes back as a typed
//! [`ServeError`] (`malformed`) naming the field that failed, and a
//! declared length past [`MAX_FRAME`] is `frame_too_large` — the one
//! framing error after which the stream cannot be resynchronized, so the
//! server closes the connection after sending the envelope.
//! [`FrameBuffer`] accumulates torn reads incrementally; a frame split at
//! any byte boundary reassembles exactly.

use crate::error::ServeError;
use crate::protocol::{Request, Response, SelectBody};
use serde::wire::put_seq;
use serde::{Wire, WireReader};

/// Connection-opening magic for the binary protocol ("SPB1": SParse
/// Binary v1). Chosen so its first byte can never open a JSON request
/// line (`{`, `"`, or whitespace).
pub const MAGIC: [u8; 4] = *b"SPB1";

/// Largest payload (kind + body) a frame may declare. Large enough for
/// a 4096-item batch with full replies, small enough that a garbage
/// length prefix cannot make the server allocate unbounded memory.
pub const MAX_FRAME: u32 = 8 << 20;

/// Frame kind bytes. Requests are 0x01..0x07 (mirroring the JSON
/// request enum), every response is 0x81.
pub mod kind {
    /// `Request::Select`.
    pub const SELECT: u8 = 0x01;
    /// `Request::Batch`.
    pub const BATCH: u8 = 0x02;
    /// `Request::Feedback`.
    pub const FEEDBACK: u8 = 0x03;
    /// `Request::Stats`.
    pub const STATS: u8 = 0x04;
    /// `Request::Shutdown`.
    pub const SHUTDOWN: u8 = 0x05;
    /// `Request::Swap`.
    pub const SWAP: u8 = 0x06;
    /// `Request::Sync`.
    pub const SYNC: u8 = 0x07;
    /// Any response envelope.
    pub const RESPONSE: u8 = 0x81;
}

/// Response-section tags (exactly one per envelope).
mod section {
    pub const NONE: u8 = 0;
    pub const ERROR: u8 = 1;
    pub const SELECT: u8 = 2;
    pub const BATCH: u8 = 3;
    pub const FEEDBACK: u8 = 4;
    pub const STATS: u8 = 5;
    pub const SHUTDOWN: u8 = 6;
    pub const SWAP: u8 = 7;
    pub const SYNC: u8 = 8;
}

fn malformed(message: impl Into<String>) -> ServeError {
    ServeError::Malformed {
        message: message.into(),
    }
}

/// Read one field with its short lengths.
fn take<T: Wire>(r: &mut WireReader<'_>, field: &str) -> Result<T, serde::Error> {
    T::take(r, field, false)
}

/// Wrap an already-encoded `kind + body` payload in a length prefix. A
/// payload past `u32::MAX` bytes declares `u32::MAX`, which the peer
/// refuses as `frame_too_large`.
fn frame(kind_byte: u8, body: Vec<u8>) -> Vec<u8> {
    let payload_len = u32::try_from(1 + body.len()).unwrap_or(u32::MAX);
    let mut out = Vec::with_capacity(5 + body.len());
    payload_len.put(&mut out, false);
    out.push(kind_byte);
    out.extend_from_slice(&body);
    out
}

/// Incremental frame reassembly: push torn reads in, pull whole frames
/// out. The buffer never copies more than once and never allocates for
/// a declared length past [`MAX_FRAME`] — that comes back as a typed
/// error before any allocation.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long-lived pipelined connections don't grow
        // without bound.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extract the next complete frame as `(kind, body)`. `Ok(None)`
    /// means more bytes are needed; `Err` means the stream is broken at
    /// the framing layer (zero or oversized length) and cannot be
    /// resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if declared == 0 {
            return Err(malformed("frame declares a zero-length payload"));
        }
        if declared > MAX_FRAME {
            return Err(ServeError::FrameTooLarge {
                declared,
                max: MAX_FRAME,
            });
        }
        let total = 4 + declared as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let kind_byte = avail[4];
        let body = avail[5..total].to_vec();
        self.pos += total;
        Ok(Some((kind_byte, body)))
    }
}

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    let out = &mut body;
    let kind_byte = match request {
        Request::Select {
            matrix,
            features,
            gpu,
            iterations,
            deadline_ms,
            learn,
            workload,
        } => {
            Request::select_body(matrix, features, gpu, *iterations, *learn, workload)
                .put(out, false);
            deadline_ms.put(out, false);
            kind::SELECT
        }
        Request::Batch {
            requests,
            deadline_ms,
        } => {
            put_seq(out, requests, true, |out, b| b.put(out, false));
            deadline_ms.put(out, false);
            kind::BATCH
        }
        Request::Feedback { gpu, cluster, best } => {
            gpu.put(out, false);
            cluster.put(out, false);
            best.put(out, false);
            kind::FEEDBACK
        }
        Request::Stats => kind::STATS,
        Request::Swap {
            path,
            expected_digest,
        } => {
            path.put(out, false);
            expected_digest.put(out, false);
            kind::SWAP
        }
        Request::Sync { from_seq } => {
            from_seq.put(out, false);
            kind::SYNC
        }
        Request::Shutdown => kind::SHUTDOWN,
    };
    frame(kind_byte, body)
}

fn read_request(kind_byte: u8, r: &mut WireReader<'_>) -> Result<Request, serde::Error> {
    Ok(match kind_byte {
        kind::SELECT => {
            let b: SelectBody = take(r, "select")?;
            Request::Select {
                matrix: b.matrix,
                features: b.features,
                gpu: b.gpu,
                iterations: b.iterations,
                deadline_ms: take(r, "deadline_ms")?,
                learn: b.learn,
                workload: b.workload,
            }
        }
        kind::BATCH => Request::Batch {
            requests: r.take_seq("requests", true, |r| take(r, "requests"))?,
            deadline_ms: take(r, "deadline_ms")?,
        },
        kind::FEEDBACK => Request::Feedback {
            gpu: take(r, "gpu")?,
            cluster: take(r, "cluster")?,
            best: take(r, "best")?,
        },
        kind::STATS => Request::Stats,
        kind::SWAP => Request::Swap {
            path: take(r, "path")?,
            expected_digest: take(r, "expected_digest")?,
        },
        kind::SYNC => Request::Sync {
            from_seq: take(r, "from_seq")?,
        },
        kind::SHUTDOWN => Request::Shutdown,
        other => {
            return Err(serde::Error::msg(format!(
                "unknown request kind {other:#04x}"
            )))
        }
    })
}

/// Decode one request from a frame's `(kind, body)`.
pub fn decode_request(kind_byte: u8, body: &[u8]) -> Result<Request, ServeError> {
    let mut r = WireReader::new(body);
    read_request(kind_byte, &mut r)
        .and_then(|request| r.finish("request").map(|()| request))
        .map_err(|e| malformed(e.to_string()))
}

fn put_section(out: &mut Vec<u8>, tag: u8, section: &impl Wire) {
    out.push(tag);
    section.put(out, false);
}

fn put_response_body(out: &mut Vec<u8>, response: &Response) {
    response.ok.put(out, false);
    if let Some(e) = &response.error {
        put_section(out, section::ERROR, e);
    } else if let Some(s) = &response.select {
        put_section(out, section::SELECT, s);
    } else if let Some(batch) = &response.batch {
        out.push(section::BATCH);
        put_seq(out, batch, true, put_response_body);
    } else if let Some(fb) = &response.feedback {
        put_section(out, section::FEEDBACK, fb);
    } else if let Some(stats) = &response.stats {
        put_section(out, section::STATS, stats);
    } else if let Some(swap) = &response.swap {
        put_section(out, section::SWAP, swap);
    } else if let Some(sync) = &response.sync {
        put_section(out, section::SYNC, sync);
    } else if let Some(sd) = &response.shutdown {
        put_section(out, section::SHUTDOWN, sd);
    } else {
        out.push(section::NONE);
    }
}

fn read_response_body(r: &mut WireReader<'_>, depth: usize) -> Result<Response, serde::Error> {
    if depth > 2 {
        return Err(serde::Error::msg(
            "response nests batches deeper than the protocol",
        ));
    }
    let mut response = Response::empty(take(r, "ok")?);
    match take::<u8>(r, "section tag")? {
        section::NONE => {}
        section::ERROR => response.error = Some(take(r, "error")?),
        section::SELECT => response.select = Some(take(r, "select")?),
        section::BATCH => {
            response.batch = Some(r.take_seq("batch", true, |r| read_response_body(r, depth + 1))?)
        }
        section::FEEDBACK => response.feedback = Some(take(r, "feedback")?),
        section::STATS => response.stats = Some(take(r, "stats")?),
        section::SWAP => response.swap = Some(take(r, "swap")?),
        section::SYNC => response.sync = Some(take(r, "sync")?),
        section::SHUTDOWN => response.shutdown = Some(take(r, "shutdown")?),
        other => {
            return Err(serde::Error::msg(format!(
                "unknown response section {other}"
            )))
        }
    }
    Ok(response)
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut body = Vec::new();
    put_response_body(&mut body, response);
    frame(kind::RESPONSE, body)
}

/// Decode one response from a frame's `(kind, body)`.
pub fn decode_response(kind_byte: u8, body: &[u8]) -> Result<Response, ServeError> {
    if kind_byte != kind::RESPONSE {
        return Err(malformed(format!(
            "expected a response frame, got kind {kind_byte:#04x}"
        )));
    }
    let mut r = WireReader::new(body);
    read_response_body(&mut r, 0)
        .and_then(|response| r.finish("response").map(|()| response))
        .map_err(|e| malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: &Request) -> Request {
        let bytes = encode_request(r);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let (k, body) = fb.next_frame().unwrap().expect("one whole frame");
        assert!(fb.next_frame().unwrap().is_none(), "exactly one frame");
        decode_request(k, &body).unwrap()
    }

    #[test]
    fn unit_requests_round_trip() {
        assert_eq!(roundtrip_request(&Request::Stats), Request::Stats);
        assert_eq!(roundtrip_request(&Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn lifecycle_requests_round_trip() {
        for swap in [
            Request::Swap {
                path: "retrained.spsel".into(),
                expected_digest: Some("abc123".into()),
            },
            Request::Swap {
                path: "m.spsel".into(),
                expected_digest: None,
            },
        ] {
            assert_eq!(roundtrip_request(&swap), swap);
        }
        let sync = Request::Sync { from_seq: 42 };
        assert_eq!(roundtrip_request(&sync), sync);
    }

    #[test]
    fn frame_buffer_reassembles_any_split() {
        let bytes = encode_request(&Request::Feedback {
            gpu: "Volta".into(),
            cluster: 17,
            best: "HYB".into(),
        });
        for split in 0..=bytes.len() {
            let mut fb = FrameBuffer::new();
            fb.push(&bytes[..split]);
            if split < bytes.len() {
                assert!(fb.next_frame().unwrap().is_none(), "split {split}");
                fb.push(&bytes[split..]);
            }
            let (k, body) = fb.next_frame().unwrap().expect("reassembled");
            assert_eq!(k, kind::FEEDBACK);
            assert!(decode_request(k, &body).is_ok());
        }
    }

    #[test]
    fn frame_buffer_extracts_pipelined_frames_in_order() {
        let a = encode_request(&Request::Stats);
        let b = encode_request(&Request::Shutdown);
        let mut fb = FrameBuffer::new();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        fb.push(&joined);
        assert_eq!(fb.next_frame().unwrap().unwrap().0, kind::STATS);
        assert_eq!(fb.next_frame().unwrap().unwrap().0, kind::SHUTDOWN);
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_and_zero_lengths_are_typed_framing_errors() {
        let mut fb = FrameBuffer::new();
        fb.push(&(MAX_FRAME + 1).to_le_bytes());
        match fb.next_frame() {
            Err(ServeError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, MAX_FRAME + 1);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        let mut fb = FrameBuffer::new();
        fb.push(&0u32.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(ServeError::Malformed { .. })));
    }

    /// Decode a body of either direction and encode what it decoded to.
    fn reencode(kind_byte: u8, body: &[u8]) -> Result<Vec<u8>, ServeError> {
        if kind_byte == kind::RESPONSE {
            decode_response(kind_byte, body).map(|r| encode_response(&r))
        } else {
            decode_request(kind_byte, body).map(|r| encode_request(&r))
        }
    }

    /// Every message of the wire transcript, cut, extended and mutated.
    #[test]
    fn truncated_and_trailing_bodies_are_malformed() {
        let transcript = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/wire-transcript.txt"
        ));
        for line in transcript.lines() {
            let (label, hex) = line.split_once(' ').expect("a label and a frame");
            let frame: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect();
            let (kind_byte, body) = (frame[4], &frame[5..]);
            let refused = |bytes: &[u8], what: String| match reencode(kind_byte, bytes) {
                Err(e) => assert_eq!(e.code(), "malformed", "{label} {what}: {e}"),
                Ok(_) => panic!("{label} {what} decoded"),
            };
            // Every strict prefix of the body fails typed, never panics.
            for cut in 0..body.len() {
                refused(&body[..cut], format!("cut at {cut}"));
            }
            // Trailing garbage after a complete body is rejected too.
            refused(&[body, &[0xFF]].concat(), "with a trailing byte".into());
            // Any one byte changed either fails typed or decodes to a
            // value that encodes back to the changed body.
            let mut mutated = body.to_vec();
            for at in 0..body.len() {
                for value in [0, 1, 2, 0x7f, 0x80, 0xff] {
                    mutated[at] = value;
                    match reencode(kind_byte, &mutated) {
                        Ok(again) => {
                            assert_eq!(again[5..], mutated[..], "{label}: byte {at} = {value}")
                        }
                        Err(e) => assert_eq!(e.code(), "malformed", "{label}: {e}"),
                    }
                }
                mutated[at] = body[at];
            }
        }
    }

    #[test]
    fn unknown_kinds_and_sections_are_malformed() {
        assert!(decode_request(0x77, &[]).is_err());
        assert!(decode_response(kind::SELECT, &[]).is_err());
        assert!(decode_response(kind::RESPONSE, &[1, 99]).is_err());
    }
}

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
//! All integers are little-endian; `f64`s travel as the raw bit pattern
//! of [`f64::to_bits`] (the same trick `spsel_core::cache::KeyWriter`
//! uses for cache keys), so a decoded feature vector or predicted time
//! is bit-identical to what was encoded — never a victim of float
//! formatting. Strings are UTF-8 with a `u16` length (`u32` for the
//! checkpoint and journal-record payloads of a sync reply, which can
//! outgrow 64 KiB); options are a one-byte tag. Frames decode to the
//! exact same [`Request`]/[`Response`]
//! types as the JSON protocol, so the engine, journal, and contention
//! counters cannot tell the protocols apart.
//!
//! Decoding is total: every malformed body comes back as a typed
//! [`ServeError`] (`malformed`), and a declared length past
//! [`MAX_FRAME`] is `frame_too_large` — the one framing error after
//! which the stream cannot be resynchronized, so the server closes the
//! connection after sending the envelope. [`FrameBuffer`] accumulates
//! torn reads incrementally; a frame split at any byte boundary
//! reassembles exactly.

use crate::error::ServeError;
use crate::protocol::{
    FeedbackReply, FormatTime, GpuStats, LifecycleStats, Request, Response, SelectBody,
    SelectReply, ShutdownReply, StatsReply, SwapReply, SyncReply,
};
use crate::ErrorEnvelope;
use spsel_core::telemetry::{Counter, CounterMut, ServingReport};

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

fn malformed(message: impl Into<String>) -> ServeError {
    ServeError::Malformed {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// String with a `u16` length. Replies never need more: error messages,
/// the only strings that echo client input, are capped when the envelope
/// is built. A longer string is cut at the last char boundary that fits.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    put_u16(out, len as u16);
    out.extend_from_slice(&s.as_bytes()[..len]);
}

/// Long string: `u32` length. Only for payloads that can outgrow 64 KiB
/// (a sync reply's checkpoint and journal records).
fn put_lstr(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("long wire strings fit in u32");
    put_u32(out, len);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------

/// Cursor over one frame body; every `take_*` is bounds-checked and
/// returns a typed `malformed` error instead of panicking.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                malformed(format!(
                    "truncated frame: {what} needs {n} bytes, {} left",
                    self.buf.len() - self.pos
                ))
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, ServeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServeError> {
        let b = self.take(8, what)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn usize(&mut self, what: &str) -> Result<usize, ServeError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| malformed(format!("{what} {v} overflows usize")))
    }

    fn bool(&mut self, what: &str) -> Result<bool, ServeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("{what}: bool tag {other} is not 0/1"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| malformed(format!("{what} is not valid UTF-8")))
    }

    fn lstring(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| malformed(format!("{what} is not valid UTF-8")))
    }

    fn opt<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self) -> Result<T, ServeError>,
    ) -> Result<Option<T>, ServeError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            other => Err(malformed(format!("{what}: option tag {other} is not 0/1"))),
        }
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{what}: {} trailing bytes after the payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Frame envelope
// ---------------------------------------------------------------------

/// Wrap an already-encoded `kind + body` payload in a length prefix.
fn frame(kind_byte: u8, body: Vec<u8>) -> Vec<u8> {
    let payload_len = 1 + body.len();
    debug_assert!(payload_len <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + payload_len);
    put_u32(&mut out, payload_len as u32);
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

// ---------------------------------------------------------------------
// Request encoding
// ---------------------------------------------------------------------

fn put_select_body(out: &mut Vec<u8>, body: &SelectBody) {
    put_opt(out, &body.matrix, |o, s| put_str(o, s));
    put_opt(out, &body.features, |o, fs| {
        let len = u16::try_from(fs.len()).expect("feature vectors fit in u16");
        put_u16(o, len);
        for &f in fs {
            put_f64(o, f);
        }
    });
    put_str(out, &body.gpu);
    put_opt(out, &body.iterations, |o, &i| put_u64(o, i as u64));
    put_opt(out, &body.learn, |o, &l| put_bool(o, l));
    put_opt(out, &body.workload, |o, s| put_str(o, s));
}

fn read_select_body(r: &mut ByteReader) -> Result<SelectBody, ServeError> {
    let matrix = r.opt("matrix", |r| r.string("matrix path"))?;
    let features = r.opt("features", |r| {
        let n = r.u16("feature count")? as usize;
        let mut fs = Vec::with_capacity(n);
        for _ in 0..n {
            fs.push(r.f64("feature value")?);
        }
        Ok(fs)
    })?;
    let gpu = r.string("gpu")?;
    let iterations = r.opt("iterations", |r| r.usize("iterations"))?;
    let learn = r.opt("learn", |r| r.bool("learn"))?;
    let workload = r.opt("workload", |r| r.string("workload"))?;
    Ok(SelectBody {
        matrix,
        features,
        gpu,
        iterations,
        learn,
        workload,
    })
}

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut body = Vec::new();
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
            put_select_body(
                &mut body,
                &Request::select_body(matrix, features, gpu, *iterations, *learn, workload),
            );
            put_opt(&mut body, deadline_ms, |o, &d| put_u64(o, d));
            kind::SELECT
        }
        Request::Batch {
            requests,
            deadline_ms,
        } => {
            put_u32(&mut body, requests.len() as u32);
            for b in requests {
                put_select_body(&mut body, b);
            }
            put_opt(&mut body, deadline_ms, |o, &d| put_u64(o, d));
            kind::BATCH
        }
        Request::Feedback { gpu, cluster, best } => {
            put_str(&mut body, gpu);
            put_u64(&mut body, *cluster as u64);
            put_str(&mut body, best);
            kind::FEEDBACK
        }
        Request::Stats => kind::STATS,
        Request::Swap {
            path,
            expected_digest,
        } => {
            put_str(&mut body, path);
            put_opt(&mut body, expected_digest, |o, s| put_str(o, s));
            kind::SWAP
        }
        Request::Sync { from_seq } => {
            put_u64(&mut body, *from_seq);
            kind::SYNC
        }
        Request::Shutdown => kind::SHUTDOWN,
    };
    frame(kind_byte, body)
}

/// Decode one request from a frame's `(kind, body)`.
pub fn decode_request(kind_byte: u8, body: &[u8]) -> Result<Request, ServeError> {
    let mut r = ByteReader::new(body);
    let request = match kind_byte {
        kind::SELECT => {
            let b = read_select_body(&mut r)?;
            let deadline_ms = r.opt("deadline_ms", |r| r.u64("deadline_ms"))?;
            Request::Select {
                matrix: b.matrix,
                features: b.features,
                gpu: b.gpu,
                iterations: b.iterations,
                deadline_ms,
                learn: b.learn,
                workload: b.workload,
            }
        }
        kind::BATCH => {
            let n = r.u32("batch count")? as usize;
            // A body has at least 5 bytes per item (two option tags, an
            // empty gpu, two more tags); reject counts the body cannot
            // possibly hold before allocating for them.
            if n > body.len() {
                return Err(malformed(format!(
                    "batch declares {n} items in a {}-byte body",
                    body.len()
                )));
            }
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                requests.push(read_select_body(&mut r)?);
            }
            let deadline_ms = r.opt("deadline_ms", |r| r.u64("deadline_ms"))?;
            Request::Batch {
                requests,
                deadline_ms,
            }
        }
        kind::FEEDBACK => Request::Feedback {
            gpu: r.string("gpu")?,
            cluster: r.usize("cluster")?,
            best: r.string("best")?,
        },
        kind::STATS => Request::Stats,
        kind::SWAP => Request::Swap {
            path: r.string("path")?,
            expected_digest: r.opt("expected_digest", |r| r.string("expected_digest"))?,
        },
        kind::SYNC => Request::Sync {
            from_seq: r.u64("from_seq")?,
        },
        kind::SHUTDOWN => Request::Shutdown,
        other => return Err(malformed(format!("unknown request kind {other:#04x}"))),
    };
    r.finish("request")?;
    Ok(request)
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

fn put_select_reply(out: &mut Vec<u8>, reply: &SelectReply) {
    put_str(out, &reply.gpu);
    put_str(out, &reply.workload);
    put_str(out, &reply.format);
    put_u64(out, reply.cluster as u64);
    put_u64(out, reply.cluster_size as u64);
    put_f64(out, reply.centroid_distance);
    put_bool(out, reply.new_cluster);
    put_bool(out, reply.benchmark_requested);
    put_u16(out, reply.predicted.len() as u16);
    for t in &reply.predicted {
        put_str(out, &t.format);
        put_opt(out, &t.us, |o, &us| put_f64(o, us));
    }
    put_str(out, &reply.amortized_format);
    put_f64(out, reply.amortized_total_us);
    put_f64(out, reply.csr_total_us);
    put_opt(out, &reply.break_even_iterations, |o, &i| {
        put_u64(o, i as u64)
    });
    put_u64(out, reply.iterations as u64);
}

fn read_select_reply(r: &mut ByteReader) -> Result<SelectReply, ServeError> {
    Ok(SelectReply {
        gpu: r.string("gpu")?,
        workload: r.string("workload")?,
        format: r.string("format")?,
        cluster: r.usize("cluster")?,
        cluster_size: r.usize("cluster_size")?,
        centroid_distance: r.f64("centroid_distance")?,
        new_cluster: r.bool("new_cluster")?,
        benchmark_requested: r.bool("benchmark_requested")?,
        predicted: {
            let n = r.u16("predicted count")? as usize;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(FormatTime {
                    format: r.string("predicted format")?,
                    us: r.opt("predicted us", |r| r.f64("predicted us"))?,
                });
            }
            v
        },
        amortized_format: r.string("amortized_format")?,
        amortized_total_us: r.f64("amortized_total_us")?,
        csr_total_us: r.f64("csr_total_us")?,
        break_even_iterations: r.opt("break_even", |r| r.usize("break_even"))?,
        iterations: r.usize("iterations")?,
    })
}

fn put_serving_report(out: &mut Vec<u8>, s: &ServingReport) {
    for (_, counter) in s.fields() {
        match counter {
            Counter::U64(v) => put_u64(out, v),
            Counter::F64(v) => put_f64(out, v),
        }
    }
}

fn read_serving_report(r: &mut ByteReader) -> Result<ServingReport, ServeError> {
    let mut s = ServingReport::default();
    for (name, field) in s.fields_mut() {
        match field {
            CounterMut::U64(v) => *v = r.u64(name)?,
            CounterMut::F64(v) => *v = r.f64(name)?,
        }
    }
    Ok(s)
}

fn put_stats_reply(out: &mut Vec<u8>, reply: &StatsReply) {
    put_u32(out, reply.artifact_version);
    put_str(out, &reply.feature_digest);
    put_u16(out, reply.gpus.len() as u16);
    for g in &reply.gpus {
        put_str(out, &g.gpu);
        put_u64(out, g.clusters as u64);
        put_u64(out, g.unlabeled_clusters as u64);
        put_u64(out, g.staleness as u64);
        put_u64(out, g.training_records as u64);
        put_u64(out, g.shards as u64);
        put_u64(out, g.snapshot_version);
        put_u16(out, g.shard_feedbacks.len() as u16);
        for &f in &g.shard_feedbacks {
            put_u64(out, f);
        }
        put_f64(out, g.shard_imbalance);
    }
    put_serving_report(out, &reply.serving);
    put_lifecycle_stats(out, &reply.lifecycle);
}

fn put_lifecycle_stats(out: &mut Vec<u8>, l: &LifecycleStats) {
    put_bool(out, l.journal_attached);
    put_u64(out, l.last_seq);
    put_u64(out, l.applied_seq);
    put_u64(out, l.checkpoint_seq);
    put_u64(out, l.records_since_checkpoint);
    put_u64(out, l.journal_bytes);
    put_str(out, &l.context_digest);
    put_opt(out, &l.last_swap_digest, |o, s| put_str(o, s));
    put_u64(out, l.swaps);
    put_u64(out, l.compactions);
}

fn read_lifecycle_stats(r: &mut ByteReader) -> Result<LifecycleStats, ServeError> {
    Ok(LifecycleStats {
        journal_attached: r.bool("journal_attached")?,
        last_seq: r.u64("last_seq")?,
        applied_seq: r.u64("applied_seq")?,
        checkpoint_seq: r.u64("checkpoint_seq")?,
        records_since_checkpoint: r.u64("records_since_checkpoint")?,
        journal_bytes: r.u64("journal_bytes")?,
        context_digest: r.string("context_digest")?,
        last_swap_digest: r.opt("last_swap_digest", |r| r.string("last_swap_digest"))?,
        swaps: r.u64("swaps")?,
        compactions: r.u64("compactions")?,
    })
}

fn put_swap_reply(out: &mut Vec<u8>, reply: &SwapReply) {
    put_u32(out, reply.artifact_version);
    put_str(out, &reply.context_digest);
    put_str(out, &reply.previous_digest);
    put_u64(out, reply.gpus as u64);
    put_u64(out, reply.rebased);
    put_u64(out, reply.checkpoint_seq);
}

fn read_swap_reply(r: &mut ByteReader) -> Result<SwapReply, ServeError> {
    Ok(SwapReply {
        artifact_version: r.u32("artifact_version")?,
        context_digest: r.string("context_digest")?,
        previous_digest: r.string("previous_digest")?,
        gpus: r.usize("gpus")?,
        rebased: r.u64("rebased")?,
        checkpoint_seq: r.u64("checkpoint_seq")?,
    })
}

fn put_sync_reply(out: &mut Vec<u8>, reply: &SyncReply) {
    put_u64(out, reply.last_seq);
    put_u64(out, reply.checkpoint_seq);
    put_str(out, &reply.context_digest);
    put_opt(out, &reply.checkpoint, |o, s| put_lstr(o, s));
    put_u32(out, reply.records.len() as u32);
    for record in &reply.records {
        put_lstr(out, record);
    }
}

fn read_sync_reply(r: &mut ByteReader) -> Result<SyncReply, ServeError> {
    let last_seq = r.u64("last_seq")?;
    let checkpoint_seq = r.u64("checkpoint_seq")?;
    let context_digest = r.string("context_digest")?;
    let checkpoint = r.opt("checkpoint", |r| r.lstring("checkpoint"))?;
    let n = r.u32("record count")? as usize;
    // Each record costs at least its 4-byte length prefix; reject counts
    // the body cannot possibly hold before allocating for them.
    if n > r.buf.len() {
        return Err(malformed(format!(
            "sync reply declares {n} records in a {}-byte body",
            r.buf.len()
        )));
    }
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        records.push(r.lstring("journal record")?);
    }
    Ok(SyncReply {
        last_seq,
        checkpoint_seq,
        context_digest,
        checkpoint,
        records,
    })
}

fn read_stats_reply(r: &mut ByteReader) -> Result<StatsReply, ServeError> {
    let artifact_version = r.u32("artifact_version")?;
    let feature_digest = r.string("feature_digest")?;
    let n = r.u16("gpu count")? as usize;
    let mut gpus = Vec::with_capacity(n);
    for _ in 0..n {
        gpus.push(GpuStats {
            gpu: r.string("gpu")?,
            clusters: r.usize("clusters")?,
            unlabeled_clusters: r.usize("unlabeled_clusters")?,
            staleness: r.usize("staleness")?,
            training_records: r.usize("training_records")?,
            shards: r.usize("shards")?,
            snapshot_version: r.u64("snapshot_version")?,
            shard_feedbacks: {
                let n = r.u16("shard count")? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.u64("shard_feedbacks")?);
                }
                v
            },
            shard_imbalance: r.f64("shard_imbalance")?,
        });
    }
    Ok(StatsReply {
        artifact_version,
        feature_digest,
        gpus,
        serving: read_serving_report(r)?,
        lifecycle: read_lifecycle_stats(r)?,
    })
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

fn put_response_body(out: &mut Vec<u8>, response: &Response) {
    put_bool(out, response.ok);
    if let Some(e) = &response.error {
        out.push(section::ERROR);
        put_str(out, &e.code);
        put_str(out, &e.message);
    } else if let Some(s) = &response.select {
        out.push(section::SELECT);
        put_select_reply(out, s);
    } else if let Some(batch) = &response.batch {
        out.push(section::BATCH);
        put_u32(out, batch.len() as u32);
        for item in batch {
            put_response_body(out, item);
        }
    } else if let Some(fb) = &response.feedback {
        out.push(section::FEEDBACK);
        put_str(out, &fb.gpu);
        put_u64(out, fb.cluster as u64);
        put_str(out, &fb.format);
        put_u64(out, fb.unlabeled_clusters as u64);
        put_u64(out, fb.staleness as u64);
    } else if let Some(stats) = &response.stats {
        out.push(section::STATS);
        put_stats_reply(out, stats);
    } else if let Some(swap) = &response.swap {
        out.push(section::SWAP);
        put_swap_reply(out, swap);
    } else if let Some(sync) = &response.sync {
        out.push(section::SYNC);
        put_sync_reply(out, sync);
    } else if let Some(sd) = &response.shutdown {
        out.push(section::SHUTDOWN);
        put_bool(out, sd.stopping);
    } else {
        out.push(section::NONE);
    }
}

fn read_response_body(r: &mut ByteReader, depth: usize) -> Result<Response, ServeError> {
    if depth > 2 {
        return Err(malformed("response nests batches deeper than the protocol"));
    }
    let ok = r.bool("ok")?;
    let mut response = Response {
        ok,
        error: None,
        select: None,
        batch: None,
        feedback: None,
        stats: None,
        swap: None,
        sync: None,
        shutdown: None,
    };
    match r.u8("section tag")? {
        section::NONE => {}
        section::ERROR => {
            response.error = Some(ErrorEnvelope {
                code: r.string("error code")?,
                message: r.string("error message")?,
            });
        }
        section::SELECT => response.select = Some(read_select_reply(r)?),
        section::BATCH => {
            let n = r.u32("batch count")? as usize;
            if n > r.buf.len() {
                return Err(malformed(format!(
                    "batch reply declares {n} items in a {}-byte body",
                    r.buf.len()
                )));
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_response_body(r, depth + 1)?);
            }
            response.batch = Some(items);
        }
        section::FEEDBACK => {
            response.feedback = Some(FeedbackReply {
                gpu: r.string("gpu")?,
                cluster: r.usize("cluster")?,
                format: r.string("format")?,
                unlabeled_clusters: r.usize("unlabeled_clusters")?,
                staleness: r.usize("staleness")?,
            });
        }
        section::STATS => response.stats = Some(read_stats_reply(r)?),
        section::SWAP => response.swap = Some(read_swap_reply(r)?),
        section::SYNC => response.sync = Some(read_sync_reply(r)?),
        section::SHUTDOWN => {
            response.shutdown = Some(ShutdownReply {
                stopping: r.bool("stopping")?,
            });
        }
        other => return Err(malformed(format!("unknown response section {other}"))),
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
    let mut r = ByteReader::new(body);
    let response = read_response_body(&mut r, 0)?;
    r.finish("response")?;
    Ok(response)
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

    #[test]
    fn truncated_and_trailing_bodies_are_malformed() {
        let whole = encode_request(&Request::Feedback {
            gpu: "Pascal".into(),
            cluster: 3,
            best: "CSR".into(),
        });
        let body = &whole[5..];
        // Every strict prefix of the body fails typed, never panics.
        for cut in 0..body.len() {
            let e = decode_request(kind::FEEDBACK, &body[..cut]).unwrap_err();
            assert_eq!(e.code(), "malformed", "cut {cut}: {e}");
        }
        // Trailing garbage after a complete body is rejected too.
        let mut long = body.to_vec();
        long.push(0xFF);
        assert!(decode_request(kind::FEEDBACK, &long).is_err());
    }

    #[test]
    fn unknown_kinds_and_sections_are_malformed() {
        assert!(decode_request(0x77, &[]).is_err());
        assert!(decode_response(kind::SELECT, &[]).is_err());
        assert!(decode_response(kind::RESPONSE, &[1, 99]).is_err());
    }
}

//! Length-prefixed binary wire protocol of the serving frontend.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by the payload. Integers are little-endian; strings are a
//! `u16` byte length followed by UTF-8 bytes; feature data is raw `f32`
//! little-endian words. The protocol is deliberately dependency-free and
//! versioned by opcode — unknown opcodes are a decode error, not a panic.
//!
//! Opcodes and status bytes are registered in [`crate::registry`] — this
//! module holds the message structs and their codecs only.
//!
//! Request payloads (client → server):
//!
//! | field | type | notes |
//! |---|---|---|
//! | opcode | `u8` | see the [`crate::registry`] opcode table |
//! | request id | `u64` | echoed verbatim in the response; `0` is reserved |
//! | *Infer only:* class | `u8` | [`Priority::rank`]: 0 interactive, 1 standard, 2 batch |
//! | deadline | `u64` | relative µs from server receipt; `0` = none |
//! | model | string | model name as loaded in the session |
//! | rows, cols | `u32`, `u32` | feature matrix shape |
//! | data | `rows × cols × f32` | row-major features |
//!
//! Response payloads (server → client):
//!
//! | field | type | notes |
//! |---|---|---|
//! | request id | `u64` | |
//! | status | `u8` | see the [`crate::registry`] status table; errors are [`ErrorCode`] |
//! | *ok-infer:* queue wait | `u64` | µs buffered in the micro-batcher before its fused batch began |
//! | cached | `u8` | `1` = served from the semantic result cache (no batch, no kernel) |
//! | model used | string | differs from the requested model after an SLA step-down |
//! | degraded to | string | empty = none; e.g. `relation-centric` |
//! | predictions | `u32` count + `u32` each | row-wise class predictions |
//! | *error:* message | string | human-readable cause |
//! | *ok-stats:* counters | `u32` count + (string, `u64`) each | stable counter names |
//! | *ok-health:* state | `u8` | `0` ok, `1` draining, `2` overloaded (see [`HealthState`]) |
//! | live connections | `u64` | currently registered connections |
//! | stalled pollers | `u64` | pollers whose watchdog heartbeat is stale |
//!
//! Request id `0` is reserved: [`encode_request`] and [`decode_request`]
//! reject it, and the server uses it for connection-level error responses
//! that cannot be attributed to any request (an undecodable frame). After
//! such a response the server closes the connection, since the frame
//! stream can no longer be trusted.
//!
//! No payload is longer than [`MAX_FRAME_BYTES`]: [`read_frame`] refuses a
//! longer length prefix, and [`encode_request`] refuses to build a request
//! the server would refuse, so a client never sends one.

use crate::error::{Error, Result};
use crate::registry::{
    ERR_DEADLINE_EXCEEDED, ERR_DRAINING, ERR_INTERNAL, ERR_INVALID, ERR_NOT_FOUND, ERR_OVERLOADED,
    OP_HEALTH, OP_INFER, OP_STATS, STATUS_OK_HEALTH, STATUS_OK_INFER, STATUS_OK_STATS,
};
use relserve_runtime::Priority;
use std::io::{Read, Write};

/// Upper bound on one frame's payload, guarding decode allocations.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Typed error codes carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was shed: admission queue timeout, depth shedding, or
    /// serve-layer backlog shedding.
    Overloaded,
    /// The request's deadline expired (while buffered, queued or running).
    DeadlineExceeded,
    /// The named model is not loaded in the session.
    NotFound,
    /// Malformed request (bad shape, unknown class, ...).
    Invalid,
    /// Any other server-side failure.
    Internal,
    /// The server is draining: it will finish in-flight batches but
    /// accepts no new work. Clients should reconnect elsewhere or retry
    /// after the drain deadline.
    Draining,
}

impl ErrorCode {
    /// Wire encoding of the code — the [`crate::registry`] `ERR_*` bytes.
    /// `6` is skipped: it is the ok-stats status byte, and error codes
    /// share the status-byte space.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => ERR_OVERLOADED,
            ErrorCode::DeadlineExceeded => ERR_DEADLINE_EXCEEDED,
            ErrorCode::NotFound => ERR_NOT_FOUND,
            ErrorCode::Invalid => ERR_INVALID,
            ErrorCode::Internal => ERR_INTERNAL,
            ErrorCode::Draining => ERR_DRAINING,
        }
    }

    /// Inverse of [`ErrorCode::as_u8`].
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            ERR_OVERLOADED => Some(ErrorCode::Overloaded),
            ERR_DEADLINE_EXCEEDED => Some(ErrorCode::DeadlineExceeded),
            ERR_NOT_FOUND => Some(ErrorCode::NotFound),
            ERR_INVALID => Some(ErrorCode::Invalid),
            ERR_INTERNAL => Some(ErrorCode::Internal),
            ERR_DRAINING => Some(ErrorCode::Draining),
            _ => None,
        }
    }
}

/// Readiness state carried by a Health response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting and serving normally.
    Ok,
    /// Drain in progress: existing batches finish, new work is shed.
    Draining,
    /// At the connection cap; new connections are being shed.
    Overloaded,
}

impl HealthState {
    /// Wire encoding of the state.
    pub fn as_u8(self) -> u8 {
        match self {
            HealthState::Ok => 0,
            HealthState::Draining => 1,
            HealthState::Overloaded => 2,
        }
    }

    /// Inverse of [`HealthState::as_u8`].
    pub fn from_u8(v: u8) -> Option<HealthState> {
        match v {
            0 => Some(HealthState::Ok),
            1 => Some(HealthState::Draining),
            2 => Some(HealthState::Overloaded),
            _ => None,
        }
    }
}

/// A decoded inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Admission class of the request.
    pub class: Priority,
    /// Relative deadline in microseconds from server receipt; 0 = none.
    pub deadline_micros: u64,
    /// Model (or version) name to serve.
    pub model: String,
    /// Feature rows.
    pub rows: u32,
    /// Feature columns.
    pub cols: u32,
    /// Row-major feature data, `rows * cols` values.
    pub data: Vec<f32>,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run inference over the carried feature rows.
    Infer(InferRequest),
    /// Snapshot the server's counters.
    Stats {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
    /// Probe liveness + readiness. Answered inline by the poller even
    /// while draining, so load balancers can watch a server leave.
    Health {
        /// Client-chosen id, echoed in the response.
        id: u64,
    },
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference for one request of a fused batch.
    Infer {
        /// Echoed request id.
        id: u64,
        /// Microseconds the request sat buffered in the micro-batcher
        /// before its fused batch began executing.
        queue_wait_micros: u64,
        /// True when the semantic result cache answered the request —
        /// it never entered a fused batch or launched a kernel.
        cached: bool,
        /// The model version that actually served the request (an SLA
        /// step-down may pick a cheaper rung than was asked for).
        model_used: String,
        /// The fallback architecture that produced the output, when the
        /// fused batch degraded recoverably.
        degraded_to: Option<String>,
        /// Row-wise class predictions for this request's rows.
        predictions: Vec<u32>,
    },
    /// The request failed; carries the typed code and a message.
    Error {
        /// Echoed request id.
        id: u64,
        /// Typed failure class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
    /// Counter snapshot for a Stats request.
    Stats {
        /// Echoed request id.
        id: u64,
        /// Stable `(name, value)` counter pairs.
        counters: Vec<(String, u64)>,
    },
    /// Liveness + readiness for a Health request.
    Health {
        /// Echoed request id.
        id: u64,
        /// Readiness of the server.
        state: HealthState,
        /// Currently registered connections.
        live_connections: u64,
        /// Pollers whose watchdog heartbeat has gone stale.
        stalled_pollers: u64,
    },
}

impl Response {
    /// The echoed request id, for demultiplexing pipelined requests.
    pub fn id(&self) -> u64 {
        match self {
            Response::Infer { id, .. }
            | Response::Error { id, .. }
            | Response::Stats { id, .. }
            | Response::Health { id, .. } => *id,
        }
    }
}

// ---- frame I/O -----------------------------------------------------------

/// The frame cap both ends enforce: a payload over [`MAX_FRAME_BYTES`] is
/// never written and never read.
fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME_BYTES {
        return Err(Error::Wire(format!(
            "frame of {len} B exceeds the {MAX_FRAME_BYTES} B cap"
        )));
    }
    Ok(())
}

/// Write one frame (length prefix + payload) and flush. A payload over
/// [`MAX_FRAME_BYTES`] is refused with `InvalidInput` before any byte is
/// written, so the stream stays framed.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    check_frame_len(payload.len())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` on clean end-of-stream (the peer
/// closed before a new frame started).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    check_frame_len(len)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---- payload encoding ----------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<()> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(Error::Wire(format!("string of {} B too long", bytes.len())));
    }
    put_u16(buf, bytes.len() as u16);
    buf.extend_from_slice(bytes);
    Ok(())
}

/// Append a matrix's values after checking its claimed shape, and that the
/// payload still fits in one frame — before anything is reserved.
fn put_matrix(buf: &mut Vec<u8>, rows: u32, cols: u32, data: &[f32], what: &str) -> Result<()> {
    let expected = rows as usize * cols as usize;
    if data.len() != expected {
        return Err(Error::Wire(format!(
            "{what} carries {} values for a {rows}x{cols} matrix",
            data.len(),
        )));
    }
    check_frame_len(buf.len() + data.len() * 4)?;
    buf.reserve(data.len() * 4);
    for v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    Ok(())
}

/// Encode a request payload (no length prefix). A request whose payload
/// would exceed [`MAX_FRAME_BYTES`] is an [`Error::Wire`].
pub fn encode_request(req: &Request) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    if let Request::Infer(InferRequest { id: 0, .. })
    | Request::Stats { id: 0 }
    | Request::Health { id: 0 } = req
    {
        return Err(Error::Wire(
            "request id 0 is reserved for connection-level errors".into(),
        ));
    }
    match req {
        Request::Infer(r) => {
            buf.push(OP_INFER);
            put_u64(&mut buf, r.id);
            buf.push(r.class.rank() as u8);
            put_u64(&mut buf, r.deadline_micros);
            put_str(&mut buf, &r.model)?;
            put_u32(&mut buf, r.rows);
            put_u32(&mut buf, r.cols);
            put_matrix(&mut buf, r.rows, r.cols, &r.data, "data")?;
        }
        Request::Stats { id } => {
            buf.push(OP_STATS);
            put_u64(&mut buf, *id);
        }
        Request::Health { id } => {
            buf.push(OP_HEALTH);
            put_u64(&mut buf, *id);
        }
    }
    Ok(buf)
}

/// Encode a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    put_response(&mut buf, resp)?;
    Ok(buf)
}

/// Append `resp` to `buf` as one whole frame (length prefix + payload), so
/// several responses bound for one connection share a buffer and a write.
/// On error `buf` is left exactly as it was.
pub fn encode_response_frame_into(buf: &mut Vec<u8>, resp: &Response) -> Result<()> {
    let start = buf.len();
    put_u32(buf, 0);
    if let Err(e) = put_response(buf, resp) {
        buf.truncate(start);
        return Err(e);
    }
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

fn put_response(buf: &mut Vec<u8>, resp: &Response) -> Result<()> {
    match resp {
        Response::Infer {
            id,
            queue_wait_micros,
            cached,
            model_used,
            degraded_to,
            predictions,
        } => {
            put_u64(buf, *id);
            buf.push(STATUS_OK_INFER);
            put_u64(buf, *queue_wait_micros);
            buf.push(u8::from(*cached));
            put_str(buf, model_used)?;
            put_str(buf, degraded_to.as_deref().unwrap_or(""))?;
            put_u32(buf, predictions.len() as u32);
            for p in predictions {
                put_u32(buf, *p);
            }
        }
        Response::Error { id, code, message } => {
            put_u64(buf, *id);
            buf.push(code.as_u8());
            put_str(buf, message)?;
        }
        Response::Stats { id, counters } => {
            put_u64(buf, *id);
            buf.push(STATUS_OK_STATS);
            put_u32(buf, counters.len() as u32);
            for (name, value) in counters {
                put_str(buf, name)?;
                put_u64(buf, *value);
            }
        }
        Response::Health {
            id,
            state,
            live_connections,
            stalled_pollers,
        } => {
            put_u64(buf, *id);
            buf.push(STATUS_OK_HEALTH);
            buf.push(state.as_u8());
            put_u64(buf, *live_connections);
            put_u64(buf, *stalled_pollers);
        }
    }
    Ok(())
}

// ---- payload decoding ----------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Error::Wire("truncated payload".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Wire("non-UTF-8 string".into()))
    }

    /// Read a `rows × cols` f32 matrix. Both dimensions come off the
    /// wire: compute the byte length with checked arithmetic and insist
    /// it already fits in the remaining payload before any allocation.
    fn f32_matrix(&mut self, rows: u32, cols: u32, what: &str) -> Result<Vec<f32>> {
        let count = (rows as usize)
            .checked_mul(cols as usize)
            .filter(|n| n.checked_mul(4).is_some_and(|b| b <= self.remaining()))
            .ok_or_else(|| Error::Wire(format!("{rows}x{cols} {what} exceeds the payload")))?;
        let raw = self.take(count * 4)?;
        let mut data = Vec::with_capacity(count);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        Ok(data)
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::Wire(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn nonzero_id(id: u64) -> Result<u64> {
    if id == 0 {
        return Err(Error::Wire(
            "request id 0 is reserved for connection-level errors".into(),
        ));
    }
    Ok(id)
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    match op {
        OP_INFER => {
            let id = nonzero_id(c.u64()?)?;
            let class = Priority::from_rank(c.u8()?)
                .ok_or_else(|| Error::Wire("unknown priority class".into()))?;
            let deadline_micros = c.u64()?;
            let model = c.str()?;
            if model.is_empty() {
                return Err(Error::Wire("empty model name".into()));
            }
            let rows = c.u32()?;
            let cols = c.u32()?;
            if rows == 0 || cols == 0 {
                return Err(Error::Wire(format!("degenerate shape {rows}x{cols}")));
            }
            let data = c.f32_matrix(rows, cols, "feature data")?;
            c.done()?;
            Ok(Request::Infer(InferRequest {
                id,
                class,
                deadline_micros,
                model,
                rows,
                cols,
                data,
            }))
        }
        OP_STATS => {
            let id = nonzero_id(c.u64()?)?;
            c.done()?;
            Ok(Request::Stats { id })
        }
        OP_HEALTH => {
            let id = nonzero_id(c.u64()?)?;
            c.done()?;
            Ok(Request::Health { id })
        }
        other => Err(Error::Wire(format!("unknown request opcode {other}"))),
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    match status {
        STATUS_OK_INFER => {
            let queue_wait_micros = c.u64()?;
            let cached = match c.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(Error::Wire(format!("bad cached flag {other}")));
                }
            };
            let model_used = c.str()?;
            let degraded = c.str()?;
            let n = c.u32()? as usize;
            // n comes off the wire: every prediction needs 4 payload bytes,
            // so reject before reserving anything a peer didn't send.
            if n.checked_mul(4).is_none_or(|b| b > c.remaining()) {
                return Err(Error::Wire(format!("{n} predictions exceed the payload")));
            }
            let mut predictions = Vec::with_capacity(n);
            for _ in 0..n {
                predictions.push(c.u32()?);
            }
            c.done()?;
            Ok(Response::Infer {
                id,
                queue_wait_micros,
                cached,
                model_used,
                degraded_to: (!degraded.is_empty()).then_some(degraded),
                predictions,
            })
        }
        STATUS_OK_STATS => {
            let n = c.u32()? as usize;
            // Each counter is at least 10 payload bytes (empty name + u64).
            if n.checked_mul(10).is_none_or(|b| b > c.remaining()) {
                return Err(Error::Wire(format!("{n} counters exceed the payload")));
            }
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?;
                let value = c.u64()?;
                counters.push((name, value));
            }
            c.done()?;
            Ok(Response::Stats { id, counters })
        }
        STATUS_OK_HEALTH => {
            let state = HealthState::from_u8(c.u8()?)
                .ok_or_else(|| Error::Wire("unknown health state".into()))?;
            let live_connections = c.u64()?;
            let stalled_pollers = c.u64()?;
            c.done()?;
            Ok(Response::Health {
                id,
                state,
                live_connections,
                stalled_pollers,
            })
        }
        code => {
            let code = ErrorCode::from_u8(code)
                .ok_or_else(|| Error::Wire(format!("unknown response status {code}")))?;
            let message = c.str()?;
            c.done()?;
            Ok(Response::Error { id, code, message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn infer_request_round_trips() {
        let req = Request::Infer(InferRequest {
            id: 42,
            class: Priority::Interactive,
            deadline_micros: 2_500,
            model: "Fraud-FC-256".into(),
            rows: 2,
            cols: 3,
            data: vec![0.0, -1.5, 2.25, 3.0, f32::MIN_POSITIVE, -0.0],
        });
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
        let stats = Request::Stats { id: 7 };
        let bytes = encode_request(&stats).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), stats);
        let health = Request::Health { id: 8 };
        let bytes = encode_request(&health).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), health);
    }

    #[test]
    fn frames_encoded_into_one_buffer_read_back_in_order() {
        let resps: Vec<Response> = (1..=3u64)
            .map(|id| Response::Infer {
                id,
                queue_wait_micros: id * 10,
                cached: false,
                model_used: "Fraud-FC-256".into(),
                degraded_to: None,
                predictions: vec![id as u32; id as usize],
            })
            .collect();
        let mut buf = Vec::new();
        for resp in &resps {
            encode_response_frame_into(&mut buf, resp).unwrap();
        }
        // An unencodable response (message past the u16 string cap) leaves
        // the frames before it intact.
        let before = buf.clone();
        let oversized = Response::Error {
            id: 4,
            code: ErrorCode::Internal,
            message: "x".repeat(u16::MAX as usize + 1),
        };
        assert!(encode_response_frame_into(&mut buf, &oversized).is_err());
        assert_eq!(buf, before);
        let mut reader = buf.as_slice();
        for resp in &resps {
            let payload = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!(payload, encode_response(resp).unwrap());
        }
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    /// One request of every kind.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Infer(InferRequest {
                id: 3,
                class: Priority::Batch,
                deadline_micros: 77,
                model: "Fraud-FC-256".into(),
                rows: 2,
                cols: 2,
                data: vec![1.0, -2.5, 0.125, 4.0],
            }),
            Request::Stats { id: 5 },
            Request::Health { id: 6 },
        ]
    }

    /// One response of every kind.
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Infer {
                id: 9,
                queue_wait_micros: 1234,
                cached: false,
                model_used: "m@int8".into(),
                degraded_to: Some("relation-centric".into()),
                predictions: vec![0, 1, 1, 0],
            },
            Response::Infer {
                id: 10,
                queue_wait_micros: 0,
                cached: true,
                model_used: "m".into(),
                degraded_to: None,
                predictions: vec![],
            },
            Response::Error {
                id: 11,
                code: ErrorCode::DeadlineExceeded,
                message: "expired while buffered".into(),
            },
            Response::Stats {
                id: 12,
                counters: vec![("serve.requests".into(), 99), ("serve.batches".into(), 3)],
            },
            Response::Error {
                id: 13,
                code: ErrorCode::Draining,
                message: "server draining".into(),
            },
            Response::Health {
                id: 14,
                state: HealthState::Draining,
                live_connections: 17,
                stalled_pollers: 1,
            },
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn health_payload_ends_after_stalled_pollers() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.push(STATUS_OK_HEALTH);
        buf.push(HealthState::Ok.as_u8());
        buf.extend_from_slice(&4u64.to_le_bytes()); // live connections
        buf.extend_from_slice(&0u64.to_le_bytes()); // stalled pollers
        assert_eq!(
            decode_response(&buf).unwrap(),
            Response::Health {
                id: 5,
                state: HealthState::Ok,
                live_connections: 4,
                stalled_pollers: 0,
            }
        );
        // Anything after it is trailing garbage.
        buf.extend_from_slice(&2u64.to_le_bytes());
        assert!(matches!(decode_response(&buf), Err(Error::Wire(_))));
    }

    #[test]
    fn retired_opcodes_and_statuses_are_unknown() {
        // Opcodes 3..=5 and ok statuses 9..=11 belonged to a removed
        // protocol extension: a stale peer's frame is "unknown", never a
        // misparse.
        for op in 3u8..=5 {
            let mut buf = vec![op];
            buf.extend_from_slice(&1u64.to_le_bytes());
            match decode_request(&buf) {
                Err(Error::Wire(msg)) => assert!(msg.contains("unknown request opcode"), "{msg}"),
                other => panic!("opcode {op} decoded as {other:?}"),
            }
        }
        for status in 9u8..=11 {
            let mut buf = 1u64.to_le_bytes().to_vec();
            buf.push(status);
            buf.extend_from_slice(&0u32.to_le_bytes());
            match decode_response(&buf) {
                Err(Error::Wire(msg)) => assert!(msg.contains("unknown response status"), "{msg}"),
                other => panic!("status {status} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Unknown opcode.
        assert!(decode_request(&[9]).is_err());
        // Truncated id.
        assert!(decode_request(&[OP_INFER, 1, 2]).is_err());
        // Data length mismatch is caught at encode time.
        let bad = Request::Infer(InferRequest {
            id: 1,
            class: Priority::Standard,
            deadline_micros: 0,
            model: "m".into(),
            rows: 2,
            cols: 2,
            data: vec![1.0; 3],
        });
        assert!(encode_request(&bad).is_err());
        // Trailing garbage.
        let mut ok = encode_request(&Request::Stats { id: 1 }).unwrap();
        ok.push(0xFF);
        assert!(decode_request(&ok).is_err());
    }

    #[test]
    fn hostile_length_fields_are_rejected_without_allocating() {
        // rows = cols = 2^31: count * 4 wraps to 0 in release builds, so a
        // tiny frame must not reach Vec::with_capacity(2^62). Expect a
        // typed wire error, not a panic or a giant reservation.
        let mut buf = vec![OP_INFER];
        buf.extend_from_slice(&1u64.to_le_bytes()); // id
        buf.push(1); // class: standard
        buf.extend_from_slice(&0u64.to_le_bytes()); // deadline
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(b'm'); // model "m"
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes()); // rows
        buf.extend_from_slice(&(1u32 << 31).to_le_bytes()); // cols
        assert!(decode_request(&buf).is_err());

        // A plausible shape whose data the frame doesn't actually carry.
        let mut buf = vec![OP_INFER];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(b'm');
        buf.extend_from_slice(&1000u32.to_le_bytes());
        buf.extend_from_slice(&1000u32.to_le_bytes());
        assert!(decode_request(&buf).is_err());

        // Response prediction count past the payload end.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(STATUS_OK_INFER);
        buf.extend_from_slice(&0u64.to_le_bytes()); // queue wait
        buf.push(0); // not cached
        buf.extend_from_slice(&0u16.to_le_bytes()); // model ""
        buf.extend_from_slice(&0u16.to_le_bytes()); // degraded ""
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&buf).is_err());

        // Stats counter count past the payload end.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(STATUS_OK_STATS);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn request_id_zero_is_reserved() {
        assert!(encode_request(&Request::Stats { id: 0 }).is_err());
        let infer = Request::Infer(InferRequest {
            id: 0,
            class: Priority::Standard,
            deadline_micros: 0,
            model: "m".into(),
            rows: 1,
            cols: 1,
            data: vec![1.0],
        });
        assert!(encode_request(&infer).is_err());
        // And rejected at decode when a peer crafts it anyway.
        let mut buf = vec![OP_STATS];
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode_request(&buf).is_err());
        assert!(encode_request(&Request::Health { id: 0 }).is_err());
    }

    #[test]
    fn status_byte_space_has_no_collisions() {
        // Error codes and ok statuses share one byte: every error code
        // must stay clear of every registered ok status (the registry's
        // own exhaustiveness test checks the constant tables; this one
        // checks the typed enum against them) and round-trip through
        // from_u8.
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::NotFound,
            ErrorCode::Invalid,
            ErrorCode::Internal,
            ErrorCode::Draining,
        ] {
            let b = code.as_u8();
            assert!(!crate::registry::OK_STATUSES.contains(&b));
            assert_eq!(ErrorCode::from_u8(b), Some(code));
        }
        for state in [
            HealthState::Ok,
            HealthState::Draining,
            HealthState::Overloaded,
        ] {
            assert_eq!(HealthState::from_u8(state.as_u8()), Some(state));
        }
        assert_eq!(HealthState::from_u8(3), None);

        // Truncated health response is a typed error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(STATUS_OK_HEALTH);
        buf.push(0);
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // Oversized frames are rejected without allocating.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn oversized_frames_are_refused_before_a_byte_is_written() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the stream");
        // encode_request refuses before reserving a buffer for the data;
        // the zeroed Vec is never touched, so its pages are never faulted.
        let values = MAX_FRAME_BYTES / 4;
        let req = Request::Infer(InferRequest {
            id: 1,
            class: Priority::Standard,
            deadline_micros: 0,
            model: "m".into(),
            rows: 1,
            cols: values as u32,
            data: vec![0.0; values],
        });
        assert!(matches!(encode_request(&req), Err(Error::Wire(_))));
    }

    /// What a decoder may make of any bytes: a value that encodes back to
    /// exactly those bytes, or a typed wire error.
    fn canonical_or_wire_error<T: std::fmt::Debug>(
        bytes: &[u8],
        decoded: Result<T>,
        encode: impl Fn(&T) -> Result<Vec<u8>>,
    ) -> std::result::Result<(), String> {
        match decoded {
            Ok(value) => match encode(&value) {
                Ok(again) => prop_assert!(again == bytes, "{value:?} re-encodes differently"),
                Err(e) => prop_assert!(false, "{value:?} decoded but does not encode: {e}"),
            },
            Err(Error::Wire(_)) => {}
            Err(other) => prop_assert!(false, "non-wire error {other:?}"),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_request_bytes_never_panic(
            op in 0u8..8,
            rest in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            for bytes in [rest.clone(), [vec![op], rest].concat()] {
                canonical_or_wire_error(&bytes, decode_request(&bytes), encode_request)?;
            }
        }

        #[test]
        fn arbitrary_response_bytes_never_panic(
            status in 0u8..14,
            rest in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut framed = 7u64.to_le_bytes().to_vec();
            framed.push(status);
            framed.extend_from_slice(&rest);
            for bytes in [rest, framed] {
                canonical_or_wire_error(&bytes, decode_response(&bytes), encode_response)?;
            }
        }

        #[test]
        fn truncated_and_flipped_requests_never_panic(
            pick in 0usize..3,
            cut in any::<usize>(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let bytes = encode_request(&sample_requests()[pick]).unwrap();
            let truncated = &bytes[..cut % (bytes.len() + 1)];
            canonical_or_wire_error(truncated, decode_request(truncated), encode_request)?;
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= mask;
            canonical_or_wire_error(&flipped, decode_request(&flipped), encode_request)?;
        }

        #[test]
        fn truncated_and_flipped_responses_never_panic(
            pick in 0usize..6,
            cut in any::<usize>(),
            at in any::<usize>(),
            mask in 1u8..=255,
        ) {
            let bytes = encode_response(&sample_responses()[pick]).unwrap();
            let truncated = &bytes[..cut % (bytes.len() + 1)];
            canonical_or_wire_error(truncated, decode_response(truncated), encode_response)?;
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= mask;
            canonical_or_wire_error(&flipped, decode_response(&flipped), encode_response)?;
        }
    }
}

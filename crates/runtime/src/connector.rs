//! The simulated cross-system boundary (ConnectorX in the paper's setup).
//!
//! In the DL-centric architecture, features prepared by the RDBMS must be
//! serialized, moved to the DL framework's process, and deserialized into
//! framework tensors before a single FLOP of inference runs — and results
//! must make the return trip. [`Connector`] reproduces that tax honestly:
//!
//! * Encoding and decoding are *real work* on real bytes (a length-prefixed
//!   little-endian f32 wire format), so CPU cost scales with data volume.
//! * The wire itself (IPC/socket/network) is a latency + bandwidth model;
//!   when `simulate_wire` is set, the connector actually sleeps the modeled
//!   duration so end-to-end benchmarks observe it.

use crate::error::{Error, Result};
use crate::faults::{FaultInjector, RetryPolicy};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use relserve_tensor::Tensor;
use std::time::Duration;

const MAGIC: u32 = 0x52_53_58_46; // "RSXF"

/// Bandwidth/latency description of the link between the RDBMS and the
/// external DL runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferProfile {
    /// Sustained wire bandwidth, bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-message latency (connection + protocol round trip).
    pub fixed_latency: Duration,
    /// Per-row protocol overhead in nanoseconds (cursor iteration, row
    /// framing — the cost ConnectorX works hard to minimize but cannot zero).
    pub per_row_overhead_ns: f64,
    /// When true, `ship` really sleeps the modeled wire time; benchmarks set
    /// this, unit tests leave it off.
    pub simulate_wire: bool,
}

impl TransferProfile {
    /// A fast local setup, calibrated to the ConnectorX-to-local-PostgreSQL
    /// class of link: ~1.2 GB/s effective, 2 ms setup, ~80 ns/row.
    pub fn local_connectorx() -> Self {
        TransferProfile {
            bandwidth_bytes_per_sec: 1.2e9,
            fixed_latency: Duration::from_millis(2),
            per_row_overhead_ns: 80.0,
            simulate_wire: true,
        }
    }

    /// An instantaneous wire — isolates pure codec cost (tests use this).
    pub fn instant() -> Self {
        TransferProfile {
            bandwidth_bytes_per_sec: f64::INFINITY,
            fixed_latency: Duration::ZERO,
            per_row_overhead_ns: 0.0,
            simulate_wire: false,
        }
    }

    /// Modeled wire duration for a payload.
    pub fn wire_time(&self, payload_bytes: usize, rows: usize) -> Duration {
        let bw = if self.bandwidth_bytes_per_sec.is_finite() && self.bandwidth_bytes_per_sec > 0.0 {
            Duration::from_secs_f64(payload_bytes as f64 / self.bandwidth_bytes_per_sec)
        } else {
            Duration::ZERO
        };
        let rows = Duration::from_nanos((rows as f64 * self.per_row_overhead_ns) as u64);
        self.fixed_latency + bw + rows
    }
}

/// Statistics accumulated by a connector across shipments.
///
/// Byte/row/wire counters are **delta-safe under retry**: a shipment is
/// counted once, when it succeeds — a transiently failed attempt bumps only
/// `transient_failures` (and, when re-attempted, `retries`), never the moved
/// volume, so `stats()` deltas around a retried shipment still equal the
/// payload shipped exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConnectorStats {
    /// Total payload bytes moved in either direction (successful shipments
    /// only).
    pub bytes_moved: usize,
    /// Total rows moved (successful shipments only).
    pub rows_moved: usize,
    /// Total modeled wire time of successful shipments.
    pub wire_time: Duration,
    /// Number of successful shipments.
    pub shipments: u64,
    /// Number of shipment attempts that failed transiently (injected wire
    /// faults).
    pub transient_failures: u64,
    /// Number of re-attempts made by [`Connector::ship_retry`].
    pub retries: u64,
}

/// Serializes row batches across the simulated system boundary.
#[derive(Debug, Clone)]
pub struct Connector {
    profile: TransferProfile,
    stats: ConnectorStats,
    faults: Option<FaultInjector>,
}

impl Connector {
    /// A connector with the given wire profile.
    pub fn new(profile: TransferProfile) -> Self {
        Connector {
            profile,
            stats: ConnectorStats::default(),
            faults: None,
        }
    }

    /// A connector whose wire fails transiently according to `faults`
    /// (deterministic, seeded — see [`crate::faults`]).
    pub fn with_faults(profile: TransferProfile, faults: FaultInjector) -> Self {
        Connector {
            profile,
            stats: ConnectorStats::default(),
            faults: Some(faults),
        }
    }

    /// The wire profile in use.
    pub fn profile(&self) -> TransferProfile {
        self.profile
    }

    /// Cumulative transfer statistics.
    pub fn stats(&self) -> ConnectorStats {
        self.stats
    }

    /// Encode a rank-2 tensor (a feature batch) into the wire format.
    pub fn encode(&self, batch: &Tensor) -> Result<Bytes> {
        let (rows, cols) = batch.shape().as_matrix()?;
        let mut buf = BytesMut::with_capacity(12 + batch.num_bytes());
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(rows as u32);
        buf.put_u32_le(cols as u32);
        for v in batch.data() {
            buf.put_f32_le(*v);
        }
        Ok(buf.freeze())
    }

    /// Decode a wire payload back into a tensor.
    pub fn decode(&self, mut payload: Bytes) -> Result<Tensor> {
        if payload.remaining() < 12 {
            return Err(Error::Codec("payload shorter than header".into()));
        }
        let magic = payload.get_u32_le();
        if magic != MAGIC {
            return Err(Error::Codec(format!("bad magic 0x{magic:08x}")));
        }
        let rows = payload.get_u32_le() as usize;
        let cols = payload.get_u32_le() as usize;
        let need = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(relserve_tensor::ELEM_BYTES))
            .ok_or_else(|| Error::Codec("dimension overflow".into()))?;
        if payload.remaining() != need {
            return Err(Error::Codec(format!(
                "payload body is {} B, header implies {need} B",
                payload.remaining()
            )));
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(payload.get_f32_le());
        }
        Ok(Tensor::from_vec([rows, cols], data)?)
    }

    /// Ship a batch across the boundary: encode, pay the modeled wire time,
    /// decode on the far side. Returns the received tensor.
    ///
    /// With an injector attached, the wire may drop the shipment —
    /// [`Error::Transient`] — after the time was paid but *before* any
    /// volume counters move, so retried shipments are never double-counted.
    fn ship(&mut self, batch: &Tensor) -> Result<Tensor> {
        let (rows, _) = batch.shape().as_matrix()?;
        let payload = self.encode(batch)?;
        let wire = self.profile.wire_time(payload.len(), rows);
        if self.profile.simulate_wire && wire > Duration::ZERO {
            std::thread::sleep(wire);
        }
        if self.faults.as_ref().is_some_and(|f| f.should_fail_wire()) {
            self.stats.transient_failures += 1;
            return Err(Error::Transient {
                op: "connector.ship".into(),
            });
        }
        let payload_len = payload.len();
        let received = self.decode(payload)?;
        self.stats.bytes_moved += payload_len;
        self.stats.rows_moved += rows;
        self.stats.wire_time += wire;
        self.stats.shipments += 1;
        Ok(received)
    }

    /// [`Connector::ship`] wrapped in bounded retry with exponential
    /// backoff: transient wire faults are re-attempted up to
    /// `policy.max_attempts` total tries (each re-attempt recorded in
    /// [`ConnectorStats::retries`]); the backoff is really slept only when
    /// the profile simulates the wire. Non-transient errors and exhausted
    /// retries surface to the caller.
    pub fn ship_retry(&mut self, batch: &Tensor, policy: &RetryPolicy) -> Result<Tensor> {
        let attempts = policy.max_attempts.max(1);
        for attempt in 1..=attempts {
            match self.ship(batch) {
                Err(e) if e.is_transient() && attempt < attempts => {
                    self.stats.retries += 1;
                    let backoff = policy.backoff_for(attempt);
                    if self.profile.simulate_wire && backoff > Duration::ZERO {
                        std::thread::sleep(backoff);
                    }
                }
                other => return other,
            }
        }
        unreachable!("loop always returns on its final attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_tensor() {
        let c = Connector::new(TransferProfile::instant());
        let t = Tensor::from_fn([5, 7], |i| i as f32 * 0.5 - 3.0);
        let decoded = c.decode(c.encode(&t).unwrap()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let c = Connector::new(TransferProfile::instant());
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdeadbeef);
        buf.put_u32_le(1);
        buf.put_u32_le(1);
        buf.put_f32_le(1.0);
        assert!(matches!(c.decode(buf.freeze()), Err(Error::Codec(_))));
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let c = Connector::new(TransferProfile::instant());
        let t = Tensor::zeros([2, 2]);
        let mut payload = c.encode(&t).unwrap();
        payload.truncate(payload.len() - 4);
        assert!(matches!(c.decode(payload), Err(Error::Codec(_))));
    }

    #[test]
    fn decode_rejects_short_header() {
        let c = Connector::new(TransferProfile::instant());
        assert!(c.decode(Bytes::from_static(&[1, 2, 3])).is_err());
    }

    #[test]
    fn wire_time_scales_with_payload() {
        let p = TransferProfile {
            bandwidth_bytes_per_sec: 1000.0,
            fixed_latency: Duration::from_millis(1),
            per_row_overhead_ns: 1000.0,
            simulate_wire: false,
        };
        let t = p.wire_time(2000, 10);
        // 1 ms fixed + 2 s bandwidth + 10 µs rows.
        assert!((t.as_secs_f64() - 2.001_01).abs() < 1e-6);
    }

    #[test]
    fn ship_accumulates_stats() {
        let mut c = Connector::new(TransferProfile::instant());
        let t = Tensor::zeros([4, 3]);
        c.ship(&t).unwrap();
        c.ship(&t).unwrap();
        let s = c.stats();
        assert_eq!(s.shipments, 2);
        assert_eq!(s.rows_moved, 8);
        assert_eq!(s.bytes_moved, 2 * (12 + 48));
        assert_eq!(s.transient_failures, 0);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn injected_wire_fault_is_transient_and_not_counted_as_moved() {
        use crate::faults::FaultConfig;
        let mut cfg = FaultConfig::flaky_wire(11, 1.0);
        cfg.max_faults = Some(1);
        let mut c = Connector::with_faults(TransferProfile::instant(), FaultInjector::new(cfg));
        let t = Tensor::zeros([2, 2]);
        let err = c.ship(&t).unwrap_err();
        assert!(err.is_transient());
        let s = c.stats();
        assert_eq!(s.transient_failures, 1);
        assert_eq!(s.bytes_moved, 0, "failed attempt moved nothing");
        assert_eq!(s.shipments, 0);
        // The wire healed (max_faults reached): the next ship succeeds.
        c.ship(&t).unwrap();
        assert_eq!(c.stats().shipments, 1);
    }

    #[test]
    fn ship_retry_is_delta_safe_under_retry() {
        use crate::faults::FaultConfig;
        let mut cfg = FaultConfig::flaky_wire(5, 1.0);
        cfg.max_faults = Some(2);
        let mut c = Connector::with_faults(TransferProfile::instant(), FaultInjector::new(cfg));
        let t = Tensor::zeros([4, 3]);
        let before = c.stats();
        let shipped = c.ship_retry(&t, &RetryPolicy::default()).unwrap();
        assert_eq!(shipped, t);
        let s = c.stats();
        // Two injected failures, two re-attempts, exactly one counted
        // shipment — bytes/rows reflect a single successful transfer.
        assert_eq!(s.transient_failures, 2);
        assert_eq!(s.retries, 2);
        assert_eq!(s.shipments - before.shipments, 1);
        assert_eq!(s.bytes_moved - before.bytes_moved, 12 + 48);
        assert_eq!(s.rows_moved - before.rows_moved, 4);
    }

    #[test]
    fn ship_retry_exhausts_and_surfaces_transient() {
        use crate::faults::FaultConfig;
        let mut c = Connector::with_faults(
            TransferProfile::instant(),
            FaultInjector::new(FaultConfig::flaky_wire(1, 1.0)),
        );
        let t = Tensor::zeros([2, 2]);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            jitter: 0.0,
        };
        let err = c.ship_retry(&t, &policy).unwrap_err();
        assert!(err.is_transient());
        let s = c.stats();
        assert_eq!(s.transient_failures, 3, "every attempt failed");
        assert_eq!(s.retries, 2, "two re-attempts after the first failure");
        assert_eq!(s.shipments, 0);
        assert_eq!(s.bytes_moved, 0);
    }

    proptest! {
        #[test]
        fn roundtrip_any_shape(rows in 1usize..20, cols in 1usize..20, seed in 0u32..1000) {
            let c = Connector::new(TransferProfile::instant());
            let t = Tensor::from_fn([rows, cols], |i| ((i as u32).wrapping_mul(seed) % 1000) as f32 - 500.0);
            let back = c.decode(c.encode(&t).unwrap()).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}

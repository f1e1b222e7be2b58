//! Single registry of every wire-protocol opcode and status byte.
//!
//! The serving protocol multiplexes two one-byte spaces:
//!
//! * **request opcodes** — the first payload byte of a client → server
//!   frame, selecting the request kind;
//! * **response statuses** — the byte after the echoed request id of a
//!   server → client frame. Ok statuses and error codes share this space,
//!   so every value is registered here to keep them collision-free.
//!
//! `wire.rs` (and everything else) imports from here — adding a constant
//! anywhere else is a bug, and the exhaustiveness test at the bottom fails
//! if the tables below drift from the constants.
//!
//! ## Request opcodes
//!
//! | value | name | meaning |
//! |---|---|---|
//! | 0 | [`OP_INFER`] | run inference over carried feature rows |
//! | 1 | [`OP_STATS`] | snapshot server counters |
//! | 2 | [`OP_HEALTH`] | liveness + readiness probe |
//!
//! Opcodes 3–5 and statuses 9–11 are retired: a peer built against an
//! older protocol may still send them, so they stay unassigned and decode
//! as unknown.
//!
//! ## Response statuses
//!
//! | value | name | meaning |
//! |---|---|---|
//! | 0 | [`STATUS_OK_INFER`] | successful inference |
//! | 1 | [`ERR_OVERLOADED`] | shed by admission/backlog control |
//! | 2 | [`ERR_DEADLINE_EXCEEDED`] | deadline expired |
//! | 3 | [`ERR_NOT_FOUND`] | model not loaded |
//! | 4 | [`ERR_INVALID`] | malformed request |
//! | 5 | [`ERR_INTERNAL`] | other server-side failure |
//! | 6 | [`STATUS_OK_STATS`] | counter snapshot |
//! | 7 | [`ERR_DRAINING`] | server draining, no new work |
//! | 8 | [`STATUS_OK_HEALTH`] | health probe answer |

/// Opcode: run inference over the carried feature rows.
pub const OP_INFER: u8 = 0;
/// Opcode: snapshot the server's counters.
pub const OP_STATS: u8 = 1;
/// Opcode: liveness + readiness probe (answered inline, even draining).
pub const OP_HEALTH: u8 = 2;

/// Status: successful inference response.
pub const STATUS_OK_INFER: u8 = 0;
/// Status: counter snapshot response.
pub const STATUS_OK_STATS: u8 = 6;
/// Status: health probe response.
pub const STATUS_OK_HEALTH: u8 = 8;

/// Status: shed by admission-queue timeout, depth or backlog shedding.
pub const ERR_OVERLOADED: u8 = 1;
/// Status: the request's deadline expired.
pub const ERR_DEADLINE_EXCEEDED: u8 = 2;
/// Status: the named model is not loaded.
pub const ERR_NOT_FOUND: u8 = 3;
/// Status: malformed request.
pub const ERR_INVALID: u8 = 4;
/// Status: any other server-side failure.
pub const ERR_INTERNAL: u8 = 5;
/// Status: the server is draining and accepts no new work.
pub const ERR_DRAINING: u8 = 7;

/// Every registered request opcode, for exhaustiveness checks.
pub const REQUEST_OPCODES: [u8; 3] = [OP_INFER, OP_STATS, OP_HEALTH];

/// Every registered ok status, for exhaustiveness checks.
pub const OK_STATUSES: [u8; 3] = [STATUS_OK_INFER, STATUS_OK_STATS, STATUS_OK_HEALTH];

/// Every registered error status, for exhaustiveness checks.
pub const ERROR_STATUSES: [u8; 6] = [
    ERR_OVERLOADED,
    ERR_DEADLINE_EXCEEDED,
    ERR_NOT_FOUND,
    ERR_INVALID,
    ERR_INTERNAL,
    ERR_DRAINING,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;

    /// The registry is the single source of truth: opcodes are unique,
    /// the shared status-byte space has no ok/error collisions, and the
    /// typed `ErrorCode` enum covers exactly the registered error bytes.
    #[test]
    fn registry_is_exhaustive_and_collision_free() {
        let unique = |values: &[u8]| {
            let mut seen = std::collections::BTreeSet::new();
            values.iter().all(|v| seen.insert(*v))
        };
        assert!(unique(&REQUEST_OPCODES), "duplicate request opcode");

        let mut statuses: Vec<u8> = OK_STATUSES.to_vec();
        statuses.extend_from_slice(&ERROR_STATUSES);
        assert!(unique(&statuses), "ok/error status-byte collision");

        // Opcodes are dense from 0 — an unknown opcode is exactly
        // "greater than the last registered one".
        let mut ops = REQUEST_OPCODES.to_vec();
        ops.sort_unstable();
        assert_eq!(ops, (0..=2).collect::<Vec<u8>>());

        // Every registered error byte round-trips through the typed enum,
        // and every non-registered byte in the combined space does not.
        for b in ERROR_STATUSES {
            let code = ErrorCode::from_u8(b).expect("registered error byte has a typed code");
            assert_eq!(code.as_u8(), b);
        }
        for b in 0..=u8::MAX {
            let registered = ERROR_STATUSES.contains(&b);
            assert_eq!(
                ErrorCode::from_u8(b).is_some(),
                registered,
                "ErrorCode::from_u8({b}) disagrees with the registry"
            );
        }
    }
}

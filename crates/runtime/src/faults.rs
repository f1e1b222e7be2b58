//! Deterministic fault injection for the cross-system boundary.
//!
//! The DL-centric architecture crosses a fragile process boundary twice per
//! query (features out, predictions back), and the external runtime itself
//! can stall or reject allocations. A serving system must survive that —
//! which can only be tested if the faults are *reproducible*. This module
//! provides a [`FaultInjector`] driven by a seeded SplitMix64 stream: no
//! wall-clock or OS randomness, so a failing run replays exactly from its
//! [`FaultConfig`].
//!
//! Injection points are opt-in: a [`crate::Connector`] or
//! [`crate::ExternalRuntime`] built `with_faults` consults the injector on
//! every shipment / reservation and surfaces [`Error::Transient`] when the
//! draw says so. [`RetryPolicy`] describes the bounded exponential-backoff
//! response executors wrap around those operations.
//!
//! Setting the `RELSERVE_FAULT_SEED` environment variable turns injection on
//! for every session-created connector and external runtime (see
//! [`FaultInjector::from_env`]) — CI runs the whole test suite a second time
//! under that seed so the flaky-wire paths are exercised on every push.

use crate::error::{Error, Result};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable that enables ambient fault injection (see module
/// docs). The value is the decimal seed.
pub const FAULT_SEED_ENV: &str = "RELSERVE_FAULT_SEED";

/// Environment variable that adds *socket* faults to the ambient profile
/// (only meaningful together with [`FAULT_SEED_ENV`]). Two forms:
///
/// * a single float `r` — torn reads, stalled reads and delayed accepts
///   each fire with rate `r`; write resets stay 0 (safe to re-run the
///   ordinary serving suites under);
/// * four comma-separated floats `tear,stall,reset,delay` — full control,
///   including connection-killing mid-write resets for chaos soaks.
pub const SOCK_FAULTS_ENV: &str = "RELSERVE_SOCK_FAULTS";

/// Configuration of one deterministic fault stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the SplitMix64 draw stream; equal seeds replay identically.
    pub seed: u64,
    /// Probability in `[0, 1]` that a connector shipment fails transiently.
    pub wire_failure_rate: f64,
    /// Probability in `[0, 1]` that an external-runtime tensor reservation
    /// fails transiently.
    pub runtime_failure_rate: f64,
    /// Probability in `[0, 1]` that a socket read is torn: the reactor
    /// pulls only a few bytes off the socket this readiness event, so
    /// frames arrive in fragments and exercise reassembly.
    pub sock_tear_rate: f64,
    /// Probability in `[0, 1]` that a socket read stalls: the readiness
    /// event is skipped entirely (level-triggered epoll re-reports it).
    pub sock_stall_rate: f64,
    /// Probability in `[0, 1]` that a response write is reset mid-frame:
    /// the connection is severed as if the peer sent RST while the server
    /// was writing. Kills real connections — keep 0 outside chaos soaks.
    pub sock_reset_rate: f64,
    /// Probability in `[0, 1]` that an accept burst is delayed one reactor
    /// round (the listener's readiness event is deferred, not lost).
    pub accept_delay_rate: f64,
    /// Stop injecting after this many faults (`None` = unbounded). Lets a
    /// test assert "fails exactly k times, then heals" with rate 1.0.
    pub max_faults: Option<u64>,
}

impl FaultConfig {
    /// A quiet stream: `seed` set, every rate 0. The base other profiles
    /// build on.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            wire_failure_rate: 0.0,
            runtime_failure_rate: 0.0,
            sock_tear_rate: 0.0,
            sock_stall_rate: 0.0,
            sock_reset_rate: 0.0,
            accept_delay_rate: 0.0,
            max_faults: None,
        }
    }

    /// A flaky wire: shipments fail with `rate`, the runtime never does.
    pub fn flaky_wire(seed: u64, rate: f64) -> Self {
        FaultConfig {
            wire_failure_rate: rate,
            ..Self::quiet(seed)
        }
    }

    /// A flaky external runtime: reservations fail with `rate`.
    pub fn flaky_runtime(seed: u64, rate: f64) -> Self {
        FaultConfig {
            runtime_failure_rate: rate,
            ..Self::quiet(seed)
        }
    }

    /// Hostile sockets for the serving frontend: torn reads, stalled
    /// reads, mid-write resets and delayed accepts. The connector/runtime
    /// boundary stays healthy so the chaos is attributable to the wire.
    pub fn sock_chaos(seed: u64, tear: f64, stall: f64, reset: f64, delay: f64) -> Self {
        FaultConfig {
            sock_tear_rate: tear,
            sock_stall_rate: stall,
            sock_reset_rate: reset,
            accept_delay_rate: delay,
            ..Self::quiet(seed)
        }
    }

    /// The ambient profile used under [`FAULT_SEED_ENV`]: a mildly flaky
    /// wire and runtime, low enough that bounded retry almost always heals,
    /// high enough that the retry and degradation paths actually run.
    /// Socket faults stay off unless [`SOCK_FAULTS_ENV`] adds them.
    fn ambient(seed: u64) -> Self {
        FaultConfig {
            wire_failure_rate: 0.05,
            runtime_failure_rate: 0.02,
            ..Self::quiet(seed)
        }
    }

    /// True when any socket-level rate is nonzero (the reactor only
    /// consults the injector when this holds).
    pub fn has_socket_faults(&self) -> bool {
        self.sock_tear_rate > 0.0
            || self.sock_stall_rate > 0.0
            || self.sock_reset_rate > 0.0
            || self.accept_delay_rate > 0.0
    }

    /// Parse [`SOCK_FAULTS_ENV`]'s value into `(tear, stall, reset,
    /// delay)` rates; `None` when the value is absent or unparsable.
    fn socket_rates_from_env() -> Option<(f64, f64, f64, f64)> {
        let raw = std::env::var(SOCK_FAULTS_ENV).ok()?;
        let parts: Vec<f64> = raw
            .split(',')
            .map(|p| p.trim().parse::<f64>())
            .collect::<std::result::Result<_, _>>()
            .ok()?;
        let clamp = |r: f64| r.clamp(0.0, 1.0);
        match parts.as_slice() {
            // Single rate: tears, stalls and delays only — safe to re-run
            // the ordinary suites under (no connection-killing resets).
            [r] => Some((clamp(*r), clamp(*r), 0.0, clamp(*r))),
            [t, s, r, d] => Some((clamp(*t), clamp(*s), clamp(*r), clamp(*d))),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct InjectorState {
    rng: u64,
    injected: u64,
}

/// A shareable deterministic fault stream; see the module docs. Clones share
/// one draw stream and one injected-fault counter, so a connector and a
/// runtime handed clones of the same injector consume a single deterministic
/// sequence.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// An injector over `config`'s seeded stream.
    pub fn new(config: FaultConfig) -> Self {
        FaultInjector {
            state: Arc::new(Mutex::new(InjectorState {
                rng: config.seed,
                injected: 0,
            })),
            config,
        }
    }

    /// The ambient injector configured by the [`FAULT_SEED_ENV`] environment
    /// variable, or `None` when the variable is unset/unparsable.
    pub fn from_env() -> Option<Self> {
        let seed: u64 = std::env::var(FAULT_SEED_ENV).ok()?.parse().ok()?;
        Some(Self::new(FaultConfig::ambient(seed)))
    }

    /// A socket-chaos injector for the serving frontend, configured by
    /// [`FAULT_SEED_ENV`] + [`SOCK_FAULTS_ENV`] together; `None` unless both
    /// are set and parse. The stream is independent of the ambient
    /// connector/runtime injector so socket draws don't perturb connector
    /// replay determinism (the seed is offset by a fixed constant).
    pub fn socket_from_env() -> Option<Self> {
        let seed: u64 = std::env::var(FAULT_SEED_ENV).ok()?.parse().ok()?;
        let (tear, stall, reset, delay) = FaultConfig::socket_rates_from_env()?;
        Some(Self::new(FaultConfig::sock_chaos(
            seed.wrapping_add(0x050C_4E75),
            tear,
            stall,
            reset,
            delay,
        )))
    }

    /// The configuration this injector draws from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Number of faults injected so far across all clones.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("fault injector lock").injected
    }

    /// SplitMix64 step — a tiny, well-mixed deterministic generator; no OS
    /// entropy anywhere.
    fn next_f64(state: &mut InjectorState) -> f64 {
        state.rng = state.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn draw(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut st = self.state.lock().expect("fault injector lock");
        if self.config.max_faults.is_some_and(|max| st.injected >= max) {
            return false;
        }
        let fail = Self::next_f64(&mut st) < rate;
        if fail {
            st.injected += 1;
        }
        fail
    }

    /// Draw: should the next connector shipment fail transiently?
    pub fn should_fail_wire(&self) -> bool {
        self.draw(self.config.wire_failure_rate)
    }

    /// Draw: should the next external-runtime reservation fail transiently?
    pub fn should_fail_runtime(&self) -> bool {
        self.draw(self.config.runtime_failure_rate)
    }

    /// Draw: should the next socket read be torn into a tiny fragment?
    pub fn should_tear_read(&self) -> bool {
        self.draw(self.config.sock_tear_rate)
    }

    /// Draw: should the next read-readiness event be skipped (stalled peer)?
    pub fn should_stall_read(&self) -> bool {
        self.draw(self.config.sock_stall_rate)
    }

    /// Draw: should the next response write reset the connection mid-frame?
    pub fn should_reset_write(&self) -> bool {
        self.draw(self.config.sock_reset_rate)
    }

    /// Draw: should the next accept burst be deferred one reactor round?
    pub fn should_delay_accept(&self) -> bool {
        self.draw(self.config.accept_delay_rate)
    }
}

/// One SplitMix64 step over caller-owned state — the same generator the
/// injector uses, exposed so jitter streams (client backoff, tests) stay
/// deterministic without sharing the injector's lock.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 draw mapped to `[0, 1)`.
fn splitmix64_f64(state: &mut u64) -> f64 {
    (splitmix64_next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Bounded retry with exponential backoff — the response executors wrap
/// around transiently failing boundary operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `base_backoff * 2^(n-1)`. Callers
    /// that model wire time (`simulate_wire`) really sleep it; unit tests
    /// do not.
    pub base_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: [`RetryPolicy::backoff_jittered`]
    /// scales each exponential step by a deterministic draw from
    /// `[1 - jitter, 1 + jitter]` so synchronized clients don't
    /// thundering-herd a recovering server. `backoff_for` stays exact.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// Backoff to pay before retry number `retry` (1-based): exponential in
    /// the retry count, `base_backoff * 2^(retry-1)`.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        self.base_backoff * 2u32.saturating_pow(retry.saturating_sub(1))
    }

    /// [`RetryPolicy::backoff_for`] with deterministic jitter drawn from
    /// the caller's SplitMix64 `stream` (seed it from the fault stream or
    /// a per-client identity). The result is bounded by
    /// `backoff_for(retry) * [1 - jitter, 1 + jitter]`, with `jitter`
    /// clamped to `[0, 1]` so the backoff can never go negative.
    pub fn backoff_jittered(&self, retry: u32, stream: &mut u64) -> Duration {
        let exact = self.backoff_for(retry);
        let j = self.jitter.clamp(0.0, 1.0);
        if j == 0.0 || exact.is_zero() {
            return exact;
        }
        // Draw in [1 - j, 1 + j); mulf keeps sub-millisecond precision.
        let scale = 1.0 - j + 2.0 * j * splitmix64_f64(stream);
        exact.mul_f64(scale)
    }

    /// Run `op` up to [`RetryPolicy::max_attempts`] times, retrying only on
    /// [`Error::Transient`]. `on_retry(retry_number, backoff)` fires before
    /// each re-attempt (the caller decides whether to actually sleep the
    /// backoff — tests never do). Returns the last transient error when
    /// attempts are exhausted, and any non-transient error immediately.
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T>,
        mut on_retry: impl FnMut(u32, Duration),
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut last = None;
        for attempt in 1..=attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < attempts => {
                    on_retry(attempt, self.backoff_for(attempt));
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(Error::Transient { op: "retry".into() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identically() {
        let a = FaultInjector::new(FaultConfig::flaky_wire(42, 0.5));
        let b = FaultInjector::new(FaultConfig::flaky_wire(42, 0.5));
        let draws_a: Vec<bool> = (0..64).map(|_| a.should_fail_wire()).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.should_fail_wire()).collect();
        assert_eq!(draws_a, draws_b);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "rate 0.5 over 64 draws must inject");
    }

    #[test]
    fn rate_bounds_are_respected() {
        let never = FaultInjector::new(FaultConfig::flaky_wire(7, 0.0));
        assert!((0..100).all(|_| !never.should_fail_wire()));
        let always = FaultInjector::new(FaultConfig::flaky_wire(7, 1.0));
        assert!((0..100).all(|_| always.should_fail_wire()));
    }

    #[test]
    fn max_faults_caps_injection() {
        let mut config = FaultConfig::flaky_wire(3, 1.0);
        config.max_faults = Some(2);
        let inj = FaultInjector::new(config);
        assert!(inj.should_fail_wire());
        assert!(inj.should_fail_wire());
        assert!(!inj.should_fail_wire(), "healed after max_faults");
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn clones_share_one_stream() {
        let mut config = FaultConfig::flaky_wire(9, 1.0);
        config.max_faults = Some(1);
        let a = FaultInjector::new(config);
        let b = a.clone();
        assert!(a.should_fail_wire());
        assert!(!b.should_fail_wire(), "clone sees the shared fault budget");
        assert_eq!(b.injected(), 1);
    }

    #[test]
    fn retry_policy_backoff_is_exponential() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            jitter: 0.0,
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
    }

    #[test]
    fn socket_draws_share_the_stream_and_budget() {
        let mut config = FaultConfig::sock_chaos(11, 1.0, 1.0, 1.0, 1.0);
        config.max_faults = Some(3);
        let inj = FaultInjector::new(config);
        assert!(inj.should_tear_read());
        assert!(inj.should_stall_read());
        assert!(inj.should_reset_write());
        assert!(!inj.should_delay_accept(), "budget of 3 exhausted");
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn sock_chaos_keeps_connector_boundary_quiet() {
        let c = FaultConfig::sock_chaos(5, 0.2, 0.2, 0.05, 0.2);
        assert_eq!(c.wire_failure_rate, 0.0);
        assert_eq!(c.runtime_failure_rate, 0.0);
        assert!(c.has_socket_faults());
        assert!(!FaultConfig::ambient(5).has_socket_faults());
    }

    #[test]
    fn jittered_backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            jitter: 0.25,
        };
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        for retry in 1..=5 {
            let exact = p.backoff_for(retry);
            let a = p.backoff_jittered(retry, &mut s1);
            let b = p.backoff_jittered(retry, &mut s2);
            assert_eq!(a, b, "same stream state replays identically");
            assert!(
                a >= exact.mul_f64(0.75),
                "retry {retry}: {a:?} < lower bound"
            );
            assert!(
                a <= exact.mul_f64(1.25),
                "retry {retry}: {a:?} > upper bound"
            );
        }
        // Distinct streams must diverge (the anti-herd property).
        let mut sa = 1u64;
        let mut sb = 2u64;
        let spread: Vec<bool> = (1..=8)
            .map(|r| p.backoff_jittered(r, &mut sa) != p.backoff_jittered(r, &mut sb))
            .collect();
        assert!(spread.iter().any(|&d| d), "two clients never diverged");
    }

    #[test]
    fn zero_jitter_is_exact() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            jitter: 0.0,
        };
        let mut s = 7u64;
        assert_eq!(p.backoff_jittered(3, &mut s), p.backoff_for(3));
        assert_eq!(s, 7, "zero jitter must not consume the stream");
    }

    #[test]
    fn retry_run_retries_only_transient() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            jitter: 0.0,
        };
        // Heals on the third attempt.
        let mut calls = 0;
        let mut retries = 0;
        let out = p.run(
            || {
                calls += 1;
                if calls < 3 {
                    Err(Error::Transient { op: "t".into() })
                } else {
                    Ok(calls)
                }
            },
            |_, _| retries += 1,
        );
        assert_eq!(out.unwrap(), 3);
        assert_eq!(retries, 2);

        // Exhausts and returns the transient error.
        let exhausted = p.run(
            || -> Result<()> { Err(Error::Transient { op: "t".into() }) },
            |_, _| {},
        );
        assert!(exhausted.unwrap_err().is_transient());

        // Non-transient errors pass straight through.
        let mut calls = 0;
        let hard = p.run(
            || -> Result<()> {
                calls += 1;
                Err(Error::Codec("bad".into()))
            },
            |_, _| {},
        );
        assert!(matches!(hard.unwrap_err(), Error::Codec(_)));
        assert_eq!(calls, 1);
    }
}

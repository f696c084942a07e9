//! Deterministic network-chaos injection for the TCP transport.
//!
//! Production networks corrupt, drop, duplicate, stall and reset; the
//! test matrix must too. This module injects those faults *inside* the
//! coordinator's transport edge — after a frame is encoded, or into
//! the byte stream the coordinator reads back — from a seeded
//! splitmix64 schedule, so a chaos run is exactly reproducible from
//! `(seed, generation, pair, direction)` and needs no real packet
//! mangling.
//!
//! Faults come in two classes:
//!
//! * **Teardown-class** (drop, bit-flip corruption, duplicate
//!   delivery, mid-frame reset): each consumes one unit of the
//!   schedule's shared [`budget`](ChaosConfig::budget). The hardened
//!   framing ([`frame`](crate::frame)) turns every one of them into a
//!   prompt, typed failure — a CRC/sequence mismatch, truncation, or
//!   EOF — that tears the connection down into the supervisor's
//!   reconnect-with-replay path. Once the budget is spent the
//!   transport is clean, so a run always completes (provided the
//!   retry budget exceeds the chaos budget; `IterConfig::validate`
//!   additionally requires checkpointing and a watchdog, because a
//!   silently dropped frame can only be recovered by stall
//!   detection).
//! * **Stall-class** (bounded read stalls): delay without damage.
//!   Stalls are counted as injections but never consume the budget
//!   and never require recovery.
//!
//! Supported rate maximums (enforced by [`ChaosConfig::validate`]):
//! each teardown-class rate ≤ 0.25, their sum ≤ 0.5, stall rate
//! ≤ 0.5, stall bound ≤ 500 ms. Beyond those the transport spends
//! more time failing than progressing and the schedule stops proving
//! anything.

use crate::policy::splitmix64;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Direction tag mixed into a schedule's seed: coordinator → worker.
pub const DIR_OUTBOUND: u8 = 0;
/// Direction tag mixed into a schedule's seed: worker → coordinator.
pub const DIR_INBOUND: u8 = 1;

/// A seeded chaos schedule: per-event probabilities plus a shared
/// injection budget for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed; every `(generation, pair, direction)` stream derives
    /// its own splitmix64 sequence from it.
    pub seed: u64,
    /// Probability a coordinator→worker frame is silently dropped.
    pub drop_rate: f64,
    /// Probability a frame (either direction) has one bit flipped.
    pub corrupt_rate: f64,
    /// Probability a coordinator→worker frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability the connection is reset mid-frame on a
    /// coordinator→worker send.
    pub reset_rate: f64,
    /// Probability a coordinator read stalls for a bounded time.
    pub stall_rate: f64,
    /// Upper bound on one injected read stall.
    pub stall_bound: Duration,
    /// Total teardown-class injections across the whole run (all
    /// generations, pairs and directions). Once spent, the transport
    /// behaves cleanly — this is what guarantees chaos runs
    /// terminate.
    pub budget: u64,
}

impl ChaosConfig {
    /// A schedule with the given seed, all rates zero and a budget of
    /// 3; turn individual faults on with the `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            reset_rate: 0.0,
            stall_rate: 0.0,
            stall_bound: Duration::from_millis(50),
            budget: 3,
        }
    }

    /// Sets the frame-drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the bit-flip corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets the duplicate-delivery probability.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Sets the mid-frame connection-reset probability.
    pub fn with_reset_rate(mut self, rate: f64) -> Self {
        self.reset_rate = rate;
        self
    }

    /// Sets the read-stall probability and bound.
    pub fn with_stalls(mut self, rate: f64, bound: Duration) -> Self {
        self.stall_rate = rate;
        self.stall_bound = bound;
        self
    }

    /// Sets the total teardown-class injection budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Checks rates against the documented maximums (module docs).
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("drop_rate", self.drop_rate, 0.25),
            ("corrupt_rate", self.corrupt_rate, 0.25),
            ("duplicate_rate", self.duplicate_rate, 0.25),
            ("reset_rate", self.reset_rate, 0.25),
            ("stall_rate", self.stall_rate, 0.5),
        ];
        for (name, rate, max) in rates {
            if !rate.is_finite() || !(0.0..=max).contains(&rate) {
                return Err(format!("chaos {name} must be in [0, {max}], got {rate}"));
            }
        }
        let teardown = self.drop_rate + self.corrupt_rate + self.duplicate_rate + self.reset_rate;
        if teardown > 0.5 {
            return Err(format!(
                "combined teardown-class chaos rate must not exceed 0.5, got {teardown}"
            ));
        }
        if self.stall_bound > Duration::from_millis(500) {
            return Err(format!(
                "chaos stall_bound must not exceed 500 ms, got {:?}",
                self.stall_bound
            ));
        }
        if teardown > 0.0 && self.budget == 0 {
            return Err("teardown-class chaos rates need a budget of at least 1".into());
        }
        Ok(())
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.reset_rate > 0.0
            || self.stall_rate > 0.0
    }

    /// The per-direction schedule for `(generation, pair,
    /// direction)`, drawing on the run-wide `state` for its budget.
    pub fn direction(
        &self,
        state: &Arc<ChaosState>,
        generation: u64,
        pair: u64,
        direction: u8,
    ) -> ChaosDirection {
        let stream = splitmix64(
            self.seed
                ^ splitmix64(generation)
                ^ splitmix64(pair.wrapping_mul(0x9E37_79B9))
                ^ direction as u64,
        );
        ChaosDirection {
            cfg: *self,
            state: Arc::clone(state),
            rng: stream,
        }
    }
}

/// Run-wide shared chaos accounting: the remaining teardown budget and
/// a counter of everything injected (both classes), folded into the
/// job's `chaos_injections` metric by the coordinator.
#[derive(Debug)]
pub struct ChaosState {
    remaining: AtomicU64,
    injections: AtomicU64,
}

impl ChaosState {
    /// Fresh state with `budget` teardown-class injections available.
    pub fn new(budget: u64) -> Arc<ChaosState> {
        Arc::new(ChaosState {
            remaining: AtomicU64::new(budget),
            injections: AtomicU64::new(0),
        })
    }

    /// Takes one unit of teardown budget; `false` when exhausted.
    fn try_consume(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok()
    }

    fn count(&self) {
        self.injections.fetch_add(1, Ordering::Relaxed);
    }

    /// Teardown budget still unspent.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Total injections so far (teardown + stall).
    pub fn injections(&self) -> u64 {
        self.injections.load(Ordering::Relaxed)
    }

    /// Drains the injection counter (returns the count and resets it),
    /// so the coordinator can fold it into a metrics registry once per
    /// generation without double counting.
    pub fn drain_injections(&self) -> u64 {
        self.injections.swap(0, Ordering::Relaxed)
    }
}

/// What to do with one outgoing encoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameAction {
    /// Write it as encoded.
    Deliver,
    /// Write nothing, but advance the sender's sequence number — the
    /// receiver detects the gap on the next frame's CRC.
    Drop,
    /// Flip the given bit of the encoded frame (offset past the
    /// length prefix, so the flip lands in the CRC or payload and the
    /// receiver detects it on this frame).
    Corrupt {
        /// Bit offset within the encoded frame.
        bit: usize,
    },
    /// Write the encoded frame twice; the receiver accepts the first
    /// copy and rejects the stale-sequence duplicate.
    Duplicate,
    /// Write only the first `cut` bytes, then shut the socket down.
    Reset {
        /// Bytes of the frame actually written before the reset.
        cut: usize,
    },
}

/// What to do to the bytes one `read` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDisturbance {
    /// Sleep this long before returning (bounded stall).
    pub stall: Duration,
    /// Flip this bit of the returned bytes.
    pub flip: Option<usize>,
}

/// One direction's deterministic fault stream.
#[derive(Debug)]
pub struct ChaosDirection {
    cfg: ChaosConfig,
    state: Arc<ChaosState>,
    rng: u64,
}

impl ChaosDirection {
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.rng)
    }

    fn next_unit(&mut self) -> f64 {
        // 53 random bits into [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Rolls the schedule for one outgoing frame of `encoded_len`
    /// bytes. At most one fault fires per frame; teardown-class
    /// faults only fire while budget remains.
    pub fn frame_action(&mut self, encoded_len: usize) -> FrameAction {
        let roll = self.next_unit();
        // Always consume the same number of draws per frame so the
        // schedule stays aligned whether or not earlier faults fired.
        let detail = self.next_u64();
        let c = &self.cfg;
        let mut acc = c.drop_rate;
        if roll < acc {
            return self.teardown(FrameAction::Drop);
        }
        acc += c.corrupt_rate;
        if roll < acc {
            // Flip past the 4-byte length prefix so the damage lands
            // in the CRC or payload, never the length (a corrupted
            // length could stall the reader instead of failing fast).
            let span_bits = (encoded_len - 4) * 8;
            let bit = 32 + (detail as usize % span_bits);
            return self.teardown(FrameAction::Corrupt { bit });
        }
        acc += c.duplicate_rate;
        if roll < acc {
            return self.teardown(FrameAction::Duplicate);
        }
        acc += c.reset_rate;
        if roll < acc {
            let cut = 1 + (detail as usize % (encoded_len - 1));
            return self.teardown(FrameAction::Reset { cut });
        }
        FrameAction::Deliver
    }

    fn teardown(&self, action: FrameAction) -> FrameAction {
        if self.state.try_consume() {
            self.state.count();
            action
        } else {
            FrameAction::Deliver
        }
    }

    /// Rolls the schedule for one incoming `read` that returned
    /// `got` bytes.
    pub fn read_disturbance(&mut self, got: usize) -> ReadDisturbance {
        let roll = self.next_unit();
        let detail = self.next_u64();
        let c = &self.cfg;
        let mut out = ReadDisturbance {
            stall: Duration::ZERO,
            flip: None,
        };
        if got == 0 {
            return out;
        }
        if roll < c.stall_rate {
            let bound = c.stall_bound.as_millis().max(1) as u64;
            out.stall = Duration::from_millis(detail % bound + 1);
            self.state.count();
        } else if roll < c.stall_rate + c.corrupt_rate && self.state.try_consume() {
            self.state.count();
            out.flip = Some(detail as usize % (got * 8));
        }
        out
    }
}

/// A `Read` adapter that applies a [`ChaosDirection`]'s stall/flip
/// schedule to every read. With no direction attached it is a
/// transparent pass-through, so one reader type serves clean and
/// chaotic runs alike.
pub struct ChaosStream<R: Read> {
    inner: R,
    chaos: Option<ChaosDirection>,
}

impl<R: Read> ChaosStream<R> {
    /// A transparent pass-through.
    pub fn clean(inner: R) -> ChaosStream<R> {
        ChaosStream { inner, chaos: None }
    }

    /// A stream disturbed by `direction`'s schedule.
    pub fn chaotic(inner: R, direction: ChaosDirection) -> ChaosStream<R> {
        ChaosStream {
            inner,
            chaos: Some(direction),
        }
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: Read> Read for ChaosStream<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(chaos) = self.chaos.as_mut() {
            let d = chaos.read_disturbance(n);
            if !d.stall.is_zero() {
                std::thread::sleep(d.stall);
            }
            if let Some(bit) = d.flip {
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn validate_enforces_documented_maximums() {
        assert!(ChaosConfig::seeded(1).validate().is_ok());
        assert!(ChaosConfig::seeded(1)
            .with_drop_rate(0.3)
            .validate()
            .unwrap_err()
            .contains("drop_rate"));
        assert!(ChaosConfig::seeded(1)
            .with_drop_rate(0.2)
            .with_corrupt_rate(0.2)
            .with_reset_rate(0.2)
            .validate()
            .unwrap_err()
            .contains("combined"));
        assert!(ChaosConfig::seeded(1)
            .with_stalls(0.1, Duration::from_secs(2))
            .validate()
            .unwrap_err()
            .contains("stall_bound"));
        assert!(ChaosConfig::seeded(1)
            .with_drop_rate(0.1)
            .with_budget(0)
            .validate()
            .unwrap_err()
            .contains("budget"));
        assert!(ChaosConfig::seeded(1)
            .with_corrupt_rate(f64::NAN)
            .validate()
            .is_err());
    }

    fn collect_actions(seed: u64, frames: usize, budget: u64) -> Vec<FrameAction> {
        let cfg = ChaosConfig::seeded(seed)
            .with_drop_rate(0.1)
            .with_corrupt_rate(0.1)
            .with_duplicate_rate(0.1)
            .with_reset_rate(0.1)
            .with_budget(budget);
        let state = ChaosState::new(cfg.budget);
        let mut dir = cfg.direction(&state, 1, 0, DIR_OUTBOUND);
        (0..frames).map(|_| dir.frame_action(64)).collect()
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(
            collect_actions(42, 200, 1000),
            collect_actions(42, 200, 1000)
        );
        assert_ne!(
            collect_actions(42, 200, 1000),
            collect_actions(43, 200, 1000)
        );
    }

    #[test]
    fn budget_bounds_teardown_injections() {
        let actions = collect_actions(7, 500, 3);
        let injected = actions
            .iter()
            .filter(|a| !matches!(a, FrameAction::Deliver))
            .count();
        assert!(
            injected <= 3,
            "budget 3 but {injected} teardown faults fired"
        );
        // With 40% combined rates over 500 frames, the budget is
        // certainly spent.
        assert_eq!(injected, 3);
    }

    #[test]
    fn directions_draw_distinct_streams() {
        let cfg = ChaosConfig::seeded(9)
            .with_drop_rate(0.25)
            .with_budget(1 << 30);
        let state = ChaosState::new(cfg.budget);
        let a: Vec<_> = {
            let mut d = cfg.direction(&state, 1, 0, DIR_OUTBOUND);
            (0..100).map(|_| d.frame_action(32)).collect()
        };
        let b: Vec<_> = {
            let mut d = cfg.direction(&state, 1, 0, DIR_INBOUND);
            (0..100).map(|_| d.frame_action(32)).collect()
        };
        let c: Vec<_> = {
            let mut d = cfg.direction(&state, 2, 0, DIR_OUTBOUND);
            (0..100).map(|_| d.frame_action(32)).collect()
        };
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn corrupt_bits_always_land_past_the_length_prefix() {
        let cfg = ChaosConfig::seeded(3)
            .with_corrupt_rate(0.25)
            .with_budget(1 << 30);
        let state = ChaosState::new(cfg.budget);
        let mut dir = cfg.direction(&state, 1, 2, DIR_OUTBOUND);
        let mut seen = 0;
        for _ in 0..2000 {
            if let FrameAction::Corrupt { bit } = dir.frame_action(16) {
                assert!((32..16 * 8).contains(&bit), "bit {bit} out of range");
                seen += 1;
            }
        }
        assert!(seen > 0, "corruption never fired at rate 0.25");
    }

    #[test]
    fn chaos_stream_flips_within_budget_and_counts() {
        let cfg = ChaosConfig::seeded(11)
            .with_corrupt_rate(0.25)
            .with_stalls(0.25, Duration::from_millis(1))
            .with_budget(2);
        let state = ChaosState::new(cfg.budget);
        let data = vec![0u8; 4096];
        let mut s = ChaosStream::chaotic(
            Cursor::new(data.clone()),
            cfg.direction(&state, 1, 0, DIR_INBOUND),
        );
        let mut out = vec![0u8; 4096];
        let mut filled = 0;
        while filled < out.len() {
            let upto = (filled + 64).min(out.len());
            let n = s.read(&mut out[filled..upto]).unwrap();
            if n == 0 {
                break;
            }
            filled += n;
        }
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert!(
            flipped <= 2,
            "at most `budget` bits may flip, got {flipped}"
        );
        assert!(state.injections() > 0, "stalls/flips must be counted");
        let total = state.injections();
        assert_eq!(state.drain_injections(), total);
        assert_eq!(state.injections(), 0, "drain resets the counter");
    }

    #[test]
    fn clean_stream_is_transparent() {
        let data: Vec<u8> = (0..=255).collect();
        let mut s = ChaosStream::clean(Cursor::new(data.clone()));
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}

//! Failure-aware synchronization for the native backend.
//!
//! A plain barrier deadlocks the moment one participant dies: the
//! survivors wait forever for an arrival that will never come. Worker
//! threads here can exit mid-iteration (scripted fault injection,
//! §3.4.1 recovery tests, or a real panic in job code), so every rally
//! point uses a [`FaultBarrier`]: an exiting worker poisons it, which
//! wakes all current waiters and makes every future wait fail fast.
//! The supervisor then tears the generation down and respawns it from
//! the last checkpoint instead of hanging.
//!
//! Built on `std::sync::Mutex` + `Condvar` (the vendored `parking_lot`
//! deliberately omits condition variables).

use std::sync::{Condvar, Mutex};

/// Error returned by [`FaultBarrier::wait`] when a participant died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

struct BarrierState {
    /// Arrivals in the current round.
    count: usize,
    /// Completed rounds; waiters key off this to detect release.
    round: u64,
    poisoned: bool,
}

/// A reusable barrier for `n` threads that can be poisoned.
pub struct FaultBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    n: usize,
}

impl FaultBarrier {
    /// A barrier rallying `n` participants per round.
    pub fn new(n: usize) -> Self {
        // unreachable: callers pass 1 or the job's pair count, which
        // `IterConfig::validate` refuses at 0 before any engine runs.
        assert!(n > 0, "a barrier needs at least one participant");
        FaultBarrier {
            state: Mutex::new(BarrierState {
                count: 0,
                round: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            n,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        // A std mutex is only poisoned if a holder panicked; our
        // critical sections cannot panic, but recover regardless.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until all `n` participants arrive, or until the barrier
    /// is poisoned. A round that completed before the poison still
    /// returns `Ok` to its waiters — their rally did happen.
    pub fn wait(&self) -> Result<(), Poisoned> {
        let mut s = self.lock();
        if s.poisoned {
            return Err(Poisoned);
        }
        let round = s.round;
        s.count += 1;
        if s.count == self.n {
            s.count = 0;
            s.round += 1;
            self.cv.notify_all();
            return Ok(());
        }
        while s.round == round && !s.poisoned {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if s.round == round {
            // Never released: a participant died instead of arriving.
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    /// Marks the barrier dead and wakes every current waiter. Called by
    /// any worker exiting abnormally; idempotent.
    pub fn poison(&self) {
        let mut s = self.lock();
        s.poisoned = true;
        self.cv.notify_all();
    }

    /// Whether the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }

    /// Blocks until the barrier is poisoned, without participating in
    /// any round. Used by a worker emulating a hung pair
    /// (`FaultEvent::Hang`): it stops responding entirely until the
    /// supervisor's watchdog declares it failed and tears the
    /// generation down.
    pub fn block_until_poisoned(&self) {
        let mut s = self.lock();
        while !s.poisoned {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn releases_full_rounds_repeatedly() {
        let barrier = Arc::new(FaultBarrier::new(3));
        let rounds = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..3 {
                let barrier = Arc::clone(&barrier);
                let rounds = Arc::clone(&rounds);
                scope.spawn(move || {
                    for _ in 0..10 {
                        barrier.wait().unwrap();
                        rounds.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(rounds.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn poison_wakes_blocked_waiters() {
        let barrier = Arc::new(FaultBarrier::new(2));
        thread::scope(|scope| {
            let waiter = {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || barrier.wait())
            };
            // Give the waiter time to block, then kill the barrier the
            // way a dying worker would.
            thread::sleep(Duration::from_millis(20));
            barrier.poison();
            assert_eq!(waiter.join().unwrap(), Err(Poisoned));
        });
        assert!(barrier.is_poisoned());
    }

    #[test]
    fn wait_after_poison_fails_immediately() {
        let barrier = FaultBarrier::new(4);
        barrier.poison();
        barrier.poison(); // idempotent
        assert_eq!(barrier.wait(), Err(Poisoned));
    }

    #[test]
    fn concurrent_double_poison_in_one_generation_wakes_everyone() {
        // Two pairs die at the same iteration (a double failure inside
        // one generation): both race to poison while the remaining
        // participants are blocked mid-round. Every waiter must wake
        // with `Poisoned`, and the double poison must stay idempotent.
        for _ in 0..50 {
            let barrier = Arc::new(FaultBarrier::new(4));
            let poisoned_seen = Arc::new(AtomicUsize::new(0));
            thread::scope(|scope| {
                for _ in 0..2 {
                    let barrier = Arc::clone(&barrier);
                    let poisoned_seen = Arc::clone(&poisoned_seen);
                    scope.spawn(move || {
                        if barrier.wait() == Err(Poisoned) {
                            poisoned_seen.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
                for _ in 0..2 {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || barrier.poison());
                }
            });
            assert!(barrier.is_poisoned());
            assert_eq!(poisoned_seen.load(Ordering::SeqCst), 2);
            assert_eq!(barrier.wait(), Err(Poisoned));
        }
    }

    #[test]
    fn block_until_poisoned_sleeps_through_rounds_then_wakes() {
        let barrier = Arc::new(FaultBarrier::new(1));
        thread::scope(|scope| {
            let hung = {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || barrier.block_until_poisoned())
            };
            // Rounds completing around the hung thread must not wake it.
            barrier.wait().unwrap();
            barrier.wait().unwrap();
            thread::sleep(Duration::from_millis(20));
            assert!(!hung.is_finished());
            barrier.poison();
            hung.join().unwrap();
        });
    }

    #[test]
    fn completed_round_still_succeeds_if_poisoned_later() {
        // Thread A completes a round with B; B then poisons before A
        // rechecks — A's rally happened, so A must still see Ok.
        let barrier = Arc::new(FaultBarrier::new(1));
        barrier.wait().unwrap();
        barrier.poison();
        assert_eq!(barrier.wait(), Err(Poisoned));
    }
}

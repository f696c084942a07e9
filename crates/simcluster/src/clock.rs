//! Per-task virtual clocks.
//!
//! Each simulated task owns a [`TaskClock`]. The clock advances by cost
//! charges and merges in the timestamps of arriving messages, exactly
//! like a Lamport clock over the dataflow graph — which is why the
//! virtual timeline is independent of how the host OS schedules the
//! worker threads.

use crate::time::{VDuration, VInstant};

/// A task-local virtual clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskClock {
    now: VInstant,
}

impl TaskClock {
    /// A clock starting at `origin` (e.g. the job's submission instant).
    pub fn starting_at(origin: VInstant) -> Self {
        TaskClock { now: origin }
    }

    /// Current virtual time at this task.
    pub fn now(&self) -> VInstant {
        self.now
    }

    /// Charges a processing cost: the task was busy for `d`.
    pub fn advance(&mut self, d: VDuration) -> VInstant {
        self.now += d;
        self.now
    }

    /// Merges the arrival timestamp of an incoming message: the task
    /// cannot act on data before the data exists, so its clock jumps
    /// forward to the arrival time if it was idle, and is unaffected if
    /// it was already busy past that point.
    pub fn merge(&mut self, arrival: VInstant) -> VInstant {
        self.now = self.now.max(arrival);
        self.now
    }

    /// Waits for *all* of `arrivals`: a synchronization barrier. The
    /// clock moves to the latest arrival (or stays put if already
    /// later).
    pub fn barrier<I: IntoIterator<Item = VInstant>>(&mut self, arrivals: I) -> VInstant {
        for a in arrivals {
            self.now = self.now.max(a);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = TaskClock::default();
        c.advance(VDuration::from_secs(1));
        c.advance(VDuration::from_millis(500));
        assert_eq!(c.now(), VInstant::EPOCH + VDuration::from_millis(1_500));
    }

    #[test]
    fn merge_only_moves_forward() {
        let mut c = TaskClock::default();
        c.advance(VDuration::from_secs(5));
        // An earlier arrival does not rewind the clock.
        c.merge(VInstant::EPOCH + VDuration::from_secs(3));
        assert_eq!(c.now(), VInstant::EPOCH + VDuration::from_secs(5));
        // A later arrival means the task was idle until the data came.
        c.merge(VInstant::EPOCH + VDuration::from_secs(9));
        assert_eq!(c.now(), VInstant::EPOCH + VDuration::from_secs(9));
    }

    #[test]
    fn barrier_takes_max_of_all_inputs() {
        let mut c = TaskClock::default();
        let arrivals = [3u64, 7, 5].map(|s| VInstant::EPOCH + VDuration::from_secs(s));
        let t = c.barrier(arrivals);
        assert_eq!(t, VInstant::EPOCH + VDuration::from_secs(7));
    }

    #[test]
    fn clock_starting_at_origin() {
        let origin = VInstant::EPOCH + VDuration::from_secs(10);
        let mut c = TaskClock::starting_at(origin);
        assert_eq!(c.now(), origin);
        c.advance(VDuration::from_secs(1));
        assert_eq!(c.now(), origin + VDuration::from_secs(1));
    }
}

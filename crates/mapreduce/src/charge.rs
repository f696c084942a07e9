//! The simulated engines' shuffle cost hook.

use imr_records::ShuffleCost;
use imr_simcluster::{CostModel, TaskClock};

/// Charges the shuffle kernel's work to one task's virtual clock under
/// the cluster cost model, scaled by the hosting node's speed.
pub struct ClockCharge<'a> {
    clock: &'a mut TaskClock,
    cost: &'a CostModel,
    speed: f64,
}

impl<'a> ClockCharge<'a> {
    /// A charger for the task owning `clock`, on a node of relative
    /// speed `speed`.
    pub fn new(clock: &'a mut TaskClock, cost: &'a CostModel, speed: f64) -> Self {
        ClockCharge { clock, cost, speed }
    }
}

impl ShuffleCost for ClockCharge<'_> {
    fn sorted(&mut self, records: u64) {
        self.clock.advance(self.cost.sort_time(records, self.speed));
    }
    fn combined(&mut self, values: u64) {
        self.clock
            .advance(self.cost.compute_time(values, 0, self.speed));
    }
    /// Reduce-side per-value cost is ~1/3 of a map-side record pass
    /// (iterator-based consumption).
    fn reduced(&mut self, values: u64) {
        self.clock
            .advance(self.cost.compute_time(values.div_ceil(3), 0, self.speed));
    }
    fn processed(&mut self, records: u64, bytes: u64) {
        self.clock
            .advance(self.cost.compute_time(records, 0, self.speed));
        self.clock.advance(self.cost.serde_per_byte * bytes);
    }
    /// A k-way merge: `records · log2(runs)` comparisons.
    fn merged(&mut self, records: u64, runs: usize) {
        if runs > 1 {
            let cmps = records as f64 * (runs as f64).log2();
            self.clock
                .advance(self.cost.sort_per_cmp * cmps.round() as u64 * (1.0 / self.speed));
        }
    }
    /// iMapReduce keeps intermediate data in files (§6).
    fn mapped(&mut self, records: u64, bytes: u64, spilled: u64) {
        let cost = self.cost;
        self.clock
            .advance(cost.compute_time(records, bytes, self.speed));
        self.clock.advance(cost.serde_per_byte * spilled);
        self.clock.advance(cost.disk_time(spilled));
    }
}

//! Order statistics, regression bounds and the state digest. Pure
//! functions over `f64` slices; nothing here touches the program.

/// Whether a larger or a smaller value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the usual mean-of-the-middle-two rule. `NaN` for an empty
/// slice, which the caller turns into a failed run.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver that gates this benchmark uses for its spreads. Fewer
/// than two samples give the single value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x, x, x];
    }
    let m = n + 1;
    std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The `want` percentile (nearest rank) of `values`, lowered as far as
/// needed for at least `min_beyond` samples to lie beyond it: a p90 read
/// off fewer than ten tail samples is noise. Returns the value and the
/// percentile actually used; a pool too small for any tail falls back to
/// the median.
pub fn percentile_with_tail(values: &[f64], want: f64, min_beyond: usize) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.5);
    }
    let rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let allowed = n.saturating_sub(min_beyond);
    if allowed <= n / 2 {
        return (median(&v), 0.5);
    }
    let rank = rank.min(allowed);
    (v[rank - 1], rank as f64 / n as f64)
}

/// Indices of the quiet reps: the fastest three eighths, by job wall
/// time. Interference from the host's other tenants only ever adds time
/// and comes in spells of seconds to minutes, so it spoils whole reps;
/// anything the program itself does slowly (a checkpoint stall, the
/// scripted kill) is in every rep and survives the cut. Eight reps keep
/// three: sixty iteration samples for the median.
pub fn quiet_reps(walls: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order.truncate((walls.len() * 3 / 8).max(1).min(walls.len()));
    order.sort_unstable();
    order
}

/// By what share of `base` the value `new` is worse (negative when it is
/// better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Two medians of the same code agree when neither is worse than the
/// other by more than `bound`.
pub fn agrees(a: f64, b: f64, better: Better, bound: f64) -> bool {
    worse_by(a, b, better) <= bound && worse_by(b, a, better) <= bound
}

/// FNV-1a over the encoded final state: equal digests mean bit-identical
/// results across reps, engines and fault schedules.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let pool = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 100 samples: rank 90 leaves exactly ten beyond.
        assert_eq!(percentile_with_tail(&pool(100), 0.90, 10), (90.0, 0.90));
        // 200 samples: p90 has twenty beyond, untouched.
        assert_eq!(percentile_with_tail(&pool(200), 0.90, 10), (180.0, 0.90));
        // 40 samples: p90 would leave four; lowered to rank 30 (p75).
        assert_eq!(percentile_with_tail(&pool(40), 0.90, 10), (30.0, 0.75));
        // 20 samples or fewer: no tail of ten above the median exists.
        assert_eq!(percentile_with_tail(&pool(20), 0.90, 10), (10.5, 0.5));
        assert_eq!(percentile_with_tail(&pool(5), 0.90, 10), (3.0, 0.5));
    }

    #[test]
    fn quiet_reps_are_the_fastest_three_eighths() {
        let walls = [1.1, 1.5, 1.0, 1.2, 1.9, 1.3, 1.05, 1.4];
        assert_eq!(quiet_reps(&walls), [0, 2, 6]);
        assert_eq!(quiet_reps(&[1.0; 11]).len(), 4);
        assert_eq!(quiet_reps(&[2.0, 1.0]), [1]);
        assert_eq!(quiet_reps(&[2.0]), [0]);
        assert!(quiet_reps(&[]).is_empty());
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!((worse_by(100.0, 108.0, Better::Lower) - 0.08).abs() < 1e-12);
        assert!((worse_by(100.0, 108.0, Better::Higher) + 0.08).abs() < 1e-12);
        assert!(agrees(100.0, 108.0, Better::Lower, 0.10));
        assert!(!agrees(100.0, 112.0, Better::Lower, 0.10));
        // The second median being *better* by more than the bound is a
        // disagreement too: the first is then worse than the second.
        assert!(!agrees(100.0, 80.0, Better::Lower, 0.10));
        assert!(agrees(50.0, 46.0, Better::Higher, 0.10));
        assert!(!agrees(50.0, 40.0, Better::Higher, 0.10));
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn digest_equality_tracks_bytes() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"state"), fnv1a(b"state"));
        assert_ne!(fnv1a(b"state"), fnv1a(b"statf"));
    }
}

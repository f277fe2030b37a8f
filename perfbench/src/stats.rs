//! Order statistics for the benchmark's samples.
//!
//! A timing is reported as its median plus a tail: the highest percentile
//! that still has at least ten samples beyond it, with the sample count
//! (so a tail from 40 samples reads p75, from 2000 samples p99).

/// Samples beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile `p` with at least [`TAIL_SAMPLES`]
/// samples strictly above the `p`-th order statistic, and that order
/// statistic. `None` when there are too few samples for any tail.
///
/// The `p`-th percentile is the sample at sorted index `ceil(p·n/100) - 1`
/// (nearest rank), so `n - ceil(p·n/100)` samples lie beyond it.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_SAMPLES).then(|| (p, v[rank - 1]))
    })
}

/// One sample per batch: the time of the slowest rank. A collective
/// operation finishes when its last rank does, so a batch's time is the
/// maximum over `per_rank[r][b]`. All ranks must report the same number of
/// batches.
pub fn slowest_rank(per_rank: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = per_rank.first() else {
        return Vec::new();
    };
    assert!(
        per_rank.iter().all(|r| r.len() == first.len()),
        "every rank reports every batch"
    );
    (0..first.len())
        .map(|b| per_rank.iter().map(|r| r[b]).fold(f64::MIN, f64::max))
        .collect()
}

/// Formats a timing summary: median, tail and sample count.
pub fn summary(xs: &[f64], unit_scale: f64, unit: &str) -> String {
    let med = median(xs) * unit_scale;
    match tail(xs) {
        Some((p, t)) => format!(
            "median {med:.3} {unit}, p{p} {:.3} {unit}, n={}",
            t * unit_scale,
            xs.len()
        ),
        None => format!("median {med:.3} {unit}, no tail, n={}", xs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // fewer than 11 samples: no percentile has ten beyond it
        assert_eq!(tail(&[1.0; 10]), None);
        // 1..=20: p50 is the 10th sample (value 10), ten samples beyond
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50, 10.0)));
        // 1..=40: p75 is the 30th sample, ten beyond; p76 leaves only nine
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), Some((75, 30.0)));
        // 1..=1000: p99 is the 990th sample, ten beyond
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99, 990.0)));
    }

    #[test]
    fn slowest_rank_takes_the_max_per_batch() {
        let per_rank = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]];
        assert_eq!(slowest_rank(&per_rank), vec![3.0, 5.0, 2.5]);
        assert_eq!(slowest_rank(&[vec![2.0, 1.0]]), vec![2.0, 1.0]);
        assert!(slowest_rank(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "every rank reports every batch")]
    fn slowest_rank_rejects_ragged_input() {
        let _ = slowest_rank(&[vec![1.0], vec![1.0, 2.0]]);
    }
}

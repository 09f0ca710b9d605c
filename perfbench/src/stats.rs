//! Exact order statistics over raw samples.
//!
//! Every percentile the harness reports is a nearest-rank order
//! statistic of the raw samples — never a histogram bucket edge — so it
//! can never exceed the observed maximum. A tail percentile is reported
//! only when at least [`MIN_BEYOND`] samples rank above it.

/// Fewest samples that must rank above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, when the requested one has too
/// few samples beyond it.
const LADDER: [f64; 6] = [0.99, 0.98, 0.95, 0.9, 0.75, 0.5];

/// 1-based nearest rank of percentile `q` (in `(0, 1]`) among `n > 0`
/// samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile the sample count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The `q` percentile of `n` samples whose `rank`-th smallest (1-based)
/// is `value_at(rank)`, or `None` when fewer than [`MIN_BEYOND`] samples
/// rank above it.
pub fn tail_with(n: usize, q: f64, value_at: impl Fn(usize) -> f64) -> Option<Tail> {
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    (n - r >= MIN_BEYOND).then(|| Tail {
        q,
        value: value_at(r),
        beyond: n - r,
        count: n,
    })
}

/// The highest percentile of the ladder, up to `q`, that the sample
/// count supports.
pub fn highest_tail_with(n: usize, q: f64, value_at: impl Fn(usize) -> f64) -> Option<Tail> {
    LADDER
        .iter()
        .filter(|&&l| l <= q)
        .find_map(|&l| tail_with(n, l, &value_at))
}

/// [`highest_tail_with`] over ascending-sorted samples.
pub fn highest_tail(sorted: &[f64], q: f64) -> Option<Tail> {
    highest_tail_with(sorted.len(), q, |r| sorted[r - 1])
}

/// States on stderr which percentile a tail metric reports, over how
/// many samples.
pub fn note_tail(metric: &str, tail: Option<Tail>) {
    if let Some(t) = tail {
        eprintln!(
            "  {metric}: p{} of {} samples ({} beyond)",
            t.q * 100.0,
            t.count,
            t.beyond
        );
    }
}

/// States on stderr the range of a per-pass value across a run's passes,
/// the run's own view of how steady the host was.
pub fn note_range(what: &str, values: impl IntoIterator<Item = f64>) {
    let v: Vec<f64> = values.into_iter().collect();
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    eprintln!(
        "  {what} over {} passes: min {min:.0} median {:.0} max {max:.0}",
        v.len(),
        median(v.iter().copied())
    );
}

/// Median (nearest-rank p50) of unsorted values; NaN when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 0.5) - 1]
}

/// Exact commit-lag tally: `counts[k]` rounds committed `k` rounds
/// behind the stream head.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LagCounts {
    counts: Vec<u64>,
}

impl LagCounts {
    /// Records `n` rounds committed at lag `lag`.
    pub fn add(&mut self, lag: u64, n: u64) {
        let lag = usize::try_from(lag).expect("a commit lag fits in memory");
        if self.counts.len() <= lag {
            self.counts.resize(lag + 1, 0);
        }
        self.counts[lag] += n;
    }

    /// Rounds committed.
    pub fn committed(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lag summed over committed rounds.
    pub fn total_lag(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(lag, &n)| lag as u64 * n)
            .sum()
    }

    /// Largest lag observed.
    pub fn max(&self) -> Option<u64> {
        self.counts
            .iter()
            .rposition(|&n| n > 0)
            .map(|lag| lag as u64)
    }

    /// The `rank`-th smallest lag (1-based).
    fn at_rank(&self, rank: usize) -> u64 {
        let mut seen = 0u64;
        for (lag, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank as u64 {
                return lag as u64;
            }
        }
        unreachable!("rank {rank} beyond {seen} committed rounds")
    }

    /// The highest supported percentile up to `q` (see [`highest_tail_with`]).
    pub fn highest_tail(&self, q: f64) -> Option<Tail> {
        let n = usize::try_from(self.committed()).expect("commit count fits in memory");
        highest_tail_with(n, q, |r| self.at_rank(r) as f64)
    }
}

/// Folds one poll's watermark into `lags`: rounds `prev + 1 ..= new`
/// committed while the stream head was round `head`, so round `r` lags
/// by `head − r`. Returns the session's new watermark.
pub fn note_commits(
    prev: Option<u64>,
    new: Option<u64>,
    head: u64,
    lags: &mut LagCounts,
) -> Option<u64> {
    let Some(new) = new else {
        return prev;
    };
    let start = match prev {
        Some(old) if new <= old => return prev,
        Some(old) => old + 1,
        None => 0,
    };
    for r in start..=new {
        let lag = head
            .checked_sub(r)
            .expect("watermark ahead of the stream head");
        lags.add(lag, 1);
    }
    Some(new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted = ascending(999);
        assert_eq!(tail_with(999, 0.99, |r| sorted[r - 1]), None);
        let sorted = ascending(1000);
        let tail = tail_with(1000, 0.99, |r| sorted[r - 1]).expect("1000 samples support p99");
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.beyond, 10);
    }

    #[test]
    fn an_unsupported_tail_falls_back_down_the_ladder() {
        let sorted = ascending(300);
        let tail = highest_tail(&sorted, 0.99).expect("300 samples support p95");
        assert_eq!(tail.q, 0.95);
        assert_eq!(tail.value, 285.0);
        assert!(tail.beyond >= MIN_BEYOND);
        assert_eq!(highest_tail(&ascending(15), 0.99), None);
        assert_eq!(highest_tail(&[], 0.99), None);
    }

    #[test]
    fn a_tail_never_exceeds_the_maximum() {
        let mut skewed = vec![1.0; 5000];
        skewed.push(1e9);
        let tail = highest_tail(&skewed, 0.99).expect("supported");
        assert_eq!(tail.value, 1.0);
    }

    #[test]
    fn median_is_the_lower_middle_rank() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median([]).is_nan());
    }

    #[test]
    fn lag_counts_give_exact_order_statistics() {
        let mut lags = LagCounts::default();
        lags.add(2, 980);
        lags.add(7, 15);
        lags.add(9, 5);
        assert_eq!(lags.committed(), 1000);
        assert_eq!(lags.total_lag(), 2 * 980 + 7 * 15 + 9 * 5);
        assert_eq!(lags.max(), Some(9));
        let p99 = lags.highest_tail(0.99).expect("1000 samples support p99");
        assert_eq!((p99.q, p99.value), (0.99, 7.0));
        assert_eq!(LagCounts::default().highest_tail(0.99), None);
    }

    #[test]
    fn watermark_advances_become_per_round_lags() {
        let mut lags = LagCounts::default();
        let w = note_commits(None, None, 0, &mut lags);
        assert_eq!(w, None);
        // Head at round 4 commits rounds 0..=2: lags 4, 3, 2.
        let w = note_commits(w, Some(2), 4, &mut lags);
        // A repeated watermark commits nothing new.
        let w = note_commits(w, Some(2), 5, &mut lags);
        // Head at round 6 commits rounds 3..=6: lags 3, 2, 1, 0.
        let w = note_commits(w, Some(6), 6, &mut lags);
        assert_eq!(w, Some(6));
        assert_eq!(lags.committed(), 7);
        assert_eq!(lags.total_lag(), 4 + 3 + 2 + 3 + 2 + 1);
        assert_eq!(lags.max(), Some(4));
    }
}

//! Sample statistics with the benchmark's reporting rule: a median is
//! always reportable, a tail percentile only when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before the `q` percentile can be reported.
pub fn samples_needed(q: f64) -> usize {
    // Nearest rank r = ceil(q n) leaves n - r beyond; the smallest n
    // with n - ceil(q n) >= MIN_BEYOND.
    (1..)
        .find(|&n| n - nearest_rank(q, n) >= MIN_BEYOND)
        .expect("some n satisfies the bound")
}

fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q` percentile of `samples`, refused when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// A description of the shortfall.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(q, v.len());
    let beyond = v.len() - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            v.len()
        ));
    }
    Ok(v[rank - 1])
}

/// The median (mean of the middle pair for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Completions per block of the completion rate.
pub const RATE_BLOCK: usize = 20;

/// Median over consecutive blocks of [`RATE_BLOCK`] completions of each
/// block's completion rate; `completions_s` are completion times in
/// seconds since the measured interval began. A median over blocks
/// keeps a burst of interference in part of a run from moving the rate.
pub fn block_rate(completions_s: &[f64]) -> Option<f64> {
    let mut t = completions_s.to_vec();
    t.sort_by(f64::total_cmp);
    let mut prev = 0.0;
    let rates: Vec<f64> = t
        .chunks_exact(RATE_BLOCK)
        .map(|block| {
            let end = block[RATE_BLOCK - 1];
            let rate = RATE_BLOCK as f64 / (end - prev);
            prev = end;
            rate
        })
        .collect();
    median(&rates)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_needed(0.95), 200);
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(tail_percentile(&v, 0.95).is_err());
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        // Rank 190 of 200 → value 189, with 10 samples beyond.
        assert_eq!(tail_percentile(&v, 0.95), Ok(189.0));
    }

    #[test]
    fn tail_percentile_refuses_short_tails_and_empty_input() {
        assert!(tail_percentile(&[], 0.5).is_err());
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(tail_percentile(&v, 0.5).is_err(), "9 beyond the median");
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.5), Ok(9.0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..400).map(|i| f64::from((i * 37) % 400)).collect();
        let a = tail_percentile(&v, 0.95).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail_percentile(&v, 0.95).unwrap());
        assert_eq!(a, 379.0);
    }

    #[test]
    fn block_rate_is_the_median_block() {
        // Three blocks of 20 completions: 1 s, 4 s (a stall) and 1 s.
        let mut t: Vec<f64> = (1..=20).map(|i| f64::from(i) / 20.0).collect();
        t.extend((1..=20).map(|i| 1.0 + 4.0 * f64::from(i) / 20.0));
        t.extend((1..=20).map(|i| 5.0 + f64::from(i) / 20.0));
        assert_eq!(block_rate(&t), Some(20.0));
        assert_eq!(block_rate(&t[..19]), None, "no whole block");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

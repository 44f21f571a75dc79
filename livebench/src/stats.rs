//! The metric arithmetic: medians, quartiles and the ratios every reported
//! number is made of. Kept free of I/O so the self-tests pin it exactly.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v.swap_remove(n / 2),
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default), which is how the
/// benchmark's steadiness is judged. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    ratio(q3 - q1, median(values))
}

/// `num / den`, defined as 0 when `den` is 0 (a layer that saw no packets
/// costs nothing per packet).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of the driver's wall time that no timed layer covers.
pub fn unaccounted(layer_ns: &[f64], wall_ns: f64) -> f64 {
    1.0 - ratio(layer_ns.iter().sum(), wall_ns)
}

/// How much slower the traced live runs were than the untraced ones, as a
/// share of the untraced rate.
pub fn overhead(traced_mpps: f64, untraced_mpps: f64) -> f64 {
    1.0 - ratio(traced_mpps, untraced_mpps)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // The exclusive method extrapolates beyond two points:
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&ten), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn ratios_guard_zero_denominators() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert!(close(unaccounted(&[40.0, 50.0], 100.0), 0.1));
        assert!(close(overhead(0.9, 1.0), 0.1));
        assert_eq!(overhead(1.0, 0.0), 1.0);
    }
}

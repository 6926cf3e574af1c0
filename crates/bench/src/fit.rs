//! Least-squares scaling-exponent estimation.

/// Slope of the least-squares line of `ln y` against `ln x` — the
/// empirical scaling exponent `α` in `y ∝ x^α`.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    slope(&lx, &ly)
}

/// Ordinary least-squares slope of `y` on `x`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|&x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_power_laws() {
        let xs: Vec<f64> = vec![4.0, 16.0, 64.0, 256.0];
        let sqrt: Vec<f64> = xs.iter().map(|x| 3.0 * x.sqrt()).collect();
        let lin: Vec<f64> = xs.iter().map(|x| 0.5 * x).collect();
        assert!((loglog_slope(&xs, &sqrt) - 0.5).abs() < 1e-9);
        assert!((loglog_slope(&xs, &lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_noisy_line() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-9);
    }
}

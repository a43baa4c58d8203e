//! Ordinary least-squares fitting, for quantifying experiment trends
//! (e.g. the §5 figure's CoV growth rate after the fairness budget).

/// An OLS line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination (`1` = perfect linear fit; can be
    /// negative for fits worse than the mean if forced through data).
    pub r_squared: f64,
    /// Points fitted.
    pub n: usize,
}

/// Fits a line to `(x, y)` pairs.
///
/// # Panics
/// With fewer than 2 points or zero x-variance (vertical line).
pub fn fit_line(points: &[(f64, f64)]) -> LineFit {
    assert!(points.len() >= 2, "need at least two points");
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "x values are constant — no line to fit");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LineFit {
        slope,
        intercept,
        r_squared,
        n: points.len(),
    }
}

/// Fits an exponential `y = a·e^(b·x)` by OLS on `ln y` (requires
/// `y > 0`). Returns `(a, b, r_squared of the log fit)`. The natural
/// model for range-thinning effects, which compound multiplicatively.
pub fn fit_exponential(points: &[(f64, f64)]) -> (f64, f64, f64) {
    assert!(
        points.iter().all(|&(_, y)| y > 0.0),
        "exponential fit needs positive y"
    );
    let logged: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x, y.ln())).collect();
    let fit = fit_line(&logged);
    (fit.intercept.exp(), fit.slope, fit.r_squared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = fit_line(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_fits_reasonably() {
        // Deterministic "noise" from a fixed pattern.
        let noise = [0.3, -0.2, 0.1, -0.4, 0.25, -0.1, 0.05, -0.3, 0.2, 0.1];
        let pts: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64, 2.0 * i as f64 + 1.0 + noise[i]))
            .collect();
        let fit = fit_line(&pts);
        assert!((fit.slope - 2.0).abs() < 0.05, "slope {}", fit.slope);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn flat_data_has_zero_slope_and_perfect_r2() {
        let pts: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 7.0)).collect();
        let fit = fit_line(&pts);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0); // syy == 0 convention
    }

    #[test]
    fn exponential_recovery() {
        let pts: Vec<(f64, f64)> = (0..8)
            .map(|i| (i as f64, 0.5 * (0.7 * i as f64).exp()))
            .collect();
        let (a, b, r2) = fit_exponential(&pts);
        assert!((a - 0.5).abs() < 1e-9);
        assert!((b - 0.7).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn single_point_panics() {
        let _ = fit_line(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn vertical_line_panics() {
        let _ = fit_line(&[(1.0, 1.0), (1.0, 2.0)]);
    }
}

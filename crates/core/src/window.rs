//! The projection's temporal delay window `(δ1, δ2)`.
//!
//! Two comments on the same page are counted as a common interaction when
//! their time difference `Δt` satisfies `δ1 ≤ Δt ≤ δ2` (paper §2.2, Algorithm 1
//! line 7 — both bounds inclusive). Short windows target share–reshare bursts;
//! long windows capture slower generation bots at much greater projection cost
//! (paper §3.2.3 reports a 3.28-billion-edge graph for a one-hour window).

/// An inclusive delay window `[δ1, δ2]` in seconds, with `0 ≤ δ1 < δ2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    d1: i64,
    d2: i64,
}

impl Window {
    /// Construct a window; validates `0 ≤ d1 < d2` (the paper requires
    /// `δ2 > δ1 ≥ 0`).
    pub fn new(d1: i64, d2: i64) -> Self {
        assert!(d1 >= 0, "δ1 must be non-negative, got {d1}");
        assert!(d2 > d1, "δ2 ({d2}) must exceed δ1 ({d1})");
        Window { d1, d2 }
    }

    /// The `(0, 60s)` window used for every January-2020 result and the first
    /// October-2016 projection.
    pub fn zero_to_60s() -> Self {
        Window::new(0, 60)
    }

    /// The `(0, 10 min)` window of paper §3.2.2.
    pub fn zero_to_10m() -> Self {
        Window::new(0, 600)
    }

    /// The `(0, 1 hr)` window of paper §3.2.3 (the largest projection).
    pub fn zero_to_1h() -> Self {
        Window::new(0, 3600)
    }

    /// Lower delay bound δ1 (inclusive).
    #[inline]
    pub fn d1(&self) -> i64 {
        self.d1
    }

    /// Upper delay bound δ2 (inclusive).
    #[inline]
    pub fn d2(&self) -> i64 {
        self.d2
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}s, {}s)", self.d1, self.d2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(Window::zero_to_60s(), Window::new(0, 60));
        assert_eq!(Window::zero_to_10m(), Window::new(0, 600));
        assert_eq!(Window::zero_to_1h(), Window::new(0, 3600));
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn degenerate_window_rejected() {
        Window::new(5, 5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_d1_rejected() {
        Window::new(-1, 5);
    }

    #[test]
    fn display_formats_like_the_paper() {
        assert_eq!(Window::zero_to_60s().to_string(), "(0s, 60s)");
    }
}

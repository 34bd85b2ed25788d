//! The paper's coordination metrics (Eqs. 2–4, 7) and the combined per-triplet
//! record the pipeline reports.

use crate::ids::AuthorId;

/// `C(x,y,z) = 3·w_xyz / (p_x + p_y + p_z)` — the normalized hypergraph
/// coordination score (Eq. 4). Always in `[0, 1]` because
/// `w_xyz ≤ min{p_x, p_y, p_z}`. Returns 0 when all page counts are 0.
#[inline]
pub fn c_score(w_xyz: u64, px: u64, py: u64, pz: u64) -> f64 {
    debug_assert!(
        w_xyz <= px.min(py).min(pz) || (px == 0 && py == 0 && pz == 0),
        "w_xyz={w_xyz} exceeds min page count ({px},{py},{pz})"
    );
    let denom = px + py + pz;
    if denom == 0 {
        return 0.0;
    }
    3.0 * w_xyz as f64 / denom as f64
}

/// `T(x,y,z) = 3·min{w'} / (P'_x + P'_y + P'_z)` — the normalized CI-graph
/// triangle score (Eq. 7). Re-exported from [`tripoll::survey`] so both layers
/// share one definition.
pub use tripoll::survey::t_score;

/// Everything the pipeline knows about one validated triplet: the CI-graph
/// (step 2) and hypergraph (step 3) views side by side — the two axes of every
/// hexbin figure in the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TripletMetrics {
    /// The three authors, ascending by id.
    pub authors: [AuthorId; 3],
    /// The three CI edge weights `(w'_ab, w'_ac, w'_bc)`.
    pub ci_weights: [u64; 3],
    /// `min{w'}` — x-axis of Figures 4, 6, 8, 10.
    pub min_ci_weight: u64,
    /// `T(x,y,z)` — x-axis of Figures 3, 5, 7, 9.
    pub t: f64,
    /// `w_xyz`: pages where all three commented — y-axis of Figures 4/6/8/10.
    pub hyper_weight: u64,
    /// `C(x,y,z)` — y-axis of Figures 3, 5, 7, 9.
    pub c: f64,
    /// Per-author total page counts `(p_a, p_b, p_c)` (Eq. 3).
    pub page_counts: [u64; 3],
}

impl TripletMetrics {
    /// `(x, y)` point for the score hexbins (Figures 3, 5, 7, 9): `(T, C)`.
    pub fn score_point(&self) -> (f64, f64) {
        (self.t, self.c)
    }

    /// `(x, y)` point for the weight hexbins (Figures 4, 6, 8, 10):
    /// `(min w', w_xyz)`.
    pub(crate) fn weight_point(&self) -> (f64, f64) {
        (self.min_ci_weight as f64, self.hyper_weight as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_score_matches_formula() {
        assert_eq!(c_score(5, 5, 5, 5), 1.0);
        assert_eq!(c_score(0, 3, 4, 5), 0.0);
        assert!((c_score(2, 4, 6, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn c_score_zero_activity_is_zero() {
        assert_eq!(c_score(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn c_score_is_in_unit_interval_for_valid_inputs() {
        for w in 0..=4u64 {
            for px in 4..10u64 {
                for py in 4..10u64 {
                    for pz in 4..10u64 {
                        let c = c_score(w, px, py, pz);
                        assert!((0.0..=1.0).contains(&c), "C={c} out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn triplet_points_map_to_figure_axes() {
        let m = TripletMetrics {
            authors: [AuthorId(1), AuthorId(2), AuthorId(3)],
            ci_weights: [10, 12, 11],
            min_ci_weight: 10,
            t: 0.4,
            hyper_weight: 8,
            c: 0.3,
            page_counts: [20, 25, 30],
        };
        assert_eq!(m.score_point(), (0.4, 0.3));
        assert_eq!(m.weight_point(), (10.0, 8.0));
    }
}

//! Hexagonal 2D binning, matplotlib-`hexbin` style.
//!
//! Points are assigned to the nearest center of two interleaved rectangular
//! lattices (the even lattice at integer coordinates, the odd lattice offset
//! by half a cell), which tiles the plane with hexagons. Counts are reported
//! per occupied bin; empty bins are omitted (the paper leaves them white).
//! [`crate::render`] log-scales the counts exactly as the paper describes:
//! "the log scaling prevents the extremely high counts for bins at the lower
//! ends of each axis from completely drowning out the rest of the graph".

/// Binning parameters.
#[derive(Clone, Copy, Debug)]
pub struct HexbinConfig {
    /// Number of hexagons across the x extent.
    pub gridsize: usize,
    /// Fixed x range; `None` = data extent.
    pub x_range: Option<(f64, f64)>,
    /// Fixed y range; `None` = data extent.
    pub y_range: Option<(f64, f64)>,
}

impl Default for HexbinConfig {
    fn default() -> Self {
        HexbinConfig {
            gridsize: 40,
            x_range: None,
            y_range: None,
        }
    }
}

/// One occupied hexagonal bin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HexBin {
    /// Center x in data coordinates.
    pub cx: f64,
    /// Center y in data coordinates.
    pub cy: f64,
    /// Points in the bin.
    pub count: u64,
}

/// A computed hexbin plot.
#[derive(Clone, Debug)]
pub struct Hexbin {
    /// Occupied bins, sorted by `(cy, cx)` (bottom row first).
    pub bins: Vec<HexBin>,
    /// Data x extent used.
    pub x_range: (f64, f64),
    /// Data y extent used.
    pub y_range: (f64, f64),
    /// Points binned.
    pub n_points: u64,
    /// Points discarded for falling outside a fixed range.
    pub n_clipped: u64,
}

impl Hexbin {
    /// Bin `points`. Returns an empty plot for an empty input.
    pub fn compute(points: &[(f64, f64)], config: &HexbinConfig) -> Hexbin {
        assert!(config.gridsize >= 1, "gridsize must be at least 1");
        let finite: Vec<(f64, f64)> = points
            .iter()
            .copied()
            .filter(|&(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if finite.is_empty() {
            return Hexbin {
                bins: Vec::new(),
                x_range: (0.0, 1.0),
                y_range: (0.0, 1.0),
                n_points: 0,
                n_clipped: 0,
            };
        }
        let (xmin, mut xmax) = config
            .x_range
            .unwrap_or_else(|| extent(finite.iter().map(|p| p.0)));
        let (ymin, mut ymax) = config
            .y_range
            .unwrap_or_else(|| extent(finite.iter().map(|p| p.1)));
        if xmax <= xmin {
            xmax = xmin + 1.0;
        }
        if ymax <= ymin {
            ymax = ymin + 1.0;
        }
        let nx = config.gridsize as f64;
        // aspect chosen so hexagons are regular when the plot is square
        let ny = (config.gridsize as f64 / 3f64.sqrt()).ceil().max(1.0);
        let sx = nx / (xmax - xmin);
        let sy = ny / (ymax - ymin);

        use std::collections::HashMap;
        let mut counts: HashMap<(i64, i64, bool), u64> = HashMap::new();
        let mut clipped = 0u64;
        let mut n = 0u64;
        for (x, y) in finite {
            if x < xmin || x > xmax || y < ymin || y > ymax {
                clipped += 1;
                continue;
            }
            let px = (x - xmin) * sx;
            let py = (y - ymin) * sy;
            // even lattice: centers at integer (i, j)
            let i1 = px.round();
            let j1 = py.round();
            // odd lattice: centers at (i+0.5, j+0.5)
            let i2 = (px - 0.5).round() + 0.5;
            let j2 = (py - 0.5).round() + 0.5;
            let d1 = (px - i1).powi(2) + 3.0 * (py - j1).powi(2);
            let d2 = (px - i2).powi(2) + 3.0 * (py - j2).powi(2);
            let key = if d1 <= d2 {
                (i1 as i64, j1 as i64, false)
            } else {
                ((i2 - 0.5) as i64, (j2 - 0.5) as i64, true)
            };
            *counts.entry(key).or_insert(0) += 1;
            n += 1;
        }
        let mut bins: Vec<HexBin> = counts
            .into_iter()
            .map(|((i, j, odd), count)| {
                let (ci, cj) = if odd {
                    (i as f64 + 0.5, j as f64 + 0.5)
                } else {
                    (i as f64, j as f64)
                };
                HexBin {
                    cx: xmin + ci / sx,
                    cy: ymin + cj / sy,
                    count,
                }
            })
            .collect();
        bins.sort_by(|a, b| {
            (a.cy, a.cx)
                .partial_cmp(&(b.cy, b.cx))
                .expect("finite centers")
        });
        Hexbin {
            bins,
            x_range: (xmin, xmax),
            y_range: (ymin, ymax),
            n_points: n,
            n_clipped: clipped,
        }
    }

    /// Number of occupied bins.
    pub(crate) fn occupied(&self) -> usize {
        self.bins.len()
    }
}

fn extent(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_empty_plot() {
        let hb = Hexbin::compute(&[], &HexbinConfig::default());
        assert_eq!(hb.occupied(), 0);
        assert_eq!(hb.n_points, 0);
    }

    #[test]
    fn all_points_are_binned() {
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| (i as f64 / 500.0, (i as f64 / 250.0).sin()))
            .collect();
        let hb = Hexbin::compute(&pts, &HexbinConfig::default());
        assert_eq!(hb.n_points, 500);
        assert_eq!(hb.bins.iter().map(|b| b.count).sum::<u64>(), 500);
        assert_eq!(hb.n_clipped, 0);
    }

    #[test]
    fn identical_points_land_in_one_bin() {
        let pts = vec![(0.5, 0.5); 100];
        let hb = Hexbin::compute(
            &pts,
            &HexbinConfig {
                gridsize: 10,
                ..Default::default()
            },
        );
        assert_eq!(hb.occupied(), 1);
        assert_eq!(hb.bins[0].count, 100);
    }

    #[test]
    fn fixed_range_clips_outsiders() {
        let pts = vec![(0.5, 0.5), (2.0, 2.0), (-1.0, 0.5)];
        let hb = Hexbin::compute(
            &pts,
            &HexbinConfig {
                gridsize: 10,
                x_range: Some((0.0, 1.0)),
                y_range: Some((0.0, 1.0)),
            },
        );
        assert_eq!(hb.n_points, 1);
        assert_eq!(hb.n_clipped, 2);
    }

    #[test]
    fn nan_points_are_dropped() {
        let pts = vec![(f64::NAN, 0.0), (0.2, 0.3)];
        let hb = Hexbin::compute(&pts, &HexbinConfig::default());
        assert_eq!(hb.n_points, 1);
    }

    #[test]
    fn bin_centers_are_near_their_points() {
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| ((i % 20) as f64, (i / 20) as f64))
            .collect();
        let cfg = HexbinConfig {
            gridsize: 20,
            ..Default::default()
        };
        let hb = Hexbin::compute(&pts, &cfg);
        // every bin center is within one cell of some input point
        let cell_x = (hb.x_range.1 - hb.x_range.0) / 20.0;
        let cell_y = (hb.y_range.1 - hb.y_range.0) / (20.0 / 3f64.sqrt()).ceil();
        for b in &hb.bins {
            let close = pts
                .iter()
                .any(|&(x, y)| (x - b.cx).abs() <= cell_x && (y - b.cy).abs() <= cell_y);
            assert!(close, "stranded bin at ({}, {})", b.cx, b.cy);
        }
    }

    #[test]
    fn degenerate_extent_is_padded() {
        // all x identical: extent would be zero-width
        let pts = vec![(3.0, 1.0), (3.0, 2.0)];
        let hb = Hexbin::compute(
            &pts,
            &HexbinConfig {
                gridsize: 8,
                ..Default::default()
            },
        );
        assert_eq!(hb.n_points, 2);
        assert!(hb.x_range.1 > hb.x_range.0);
    }
}

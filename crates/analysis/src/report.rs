//! Report tables — the figure harness and CLI emit their paper-vs-measured
//! tables through this, as aligned text or CSV, so formatting lives in one
//! place.

/// A report table under construction.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as aligned plain text (for terminal output).
    pub fn to_text(&self) -> String {
        let widths: Vec<usize> = (0..self.header.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(self.header[c].len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (no quoting — callers pass clean cells).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with fixed decimals, rendering NaN as `-`.
pub fn fnum(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["figure", "paper", "measured"]);
        t.row(["fig1", "sparse", "density 0.12"]);
        t.row(["fig2", "8-clique", "8-clique"]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let txt = sample().to_text();
        let lines: Vec<&str> = txt.lines().collect();
        // "measured" column starts at the same offset in every row
        let col = lines[0].find("measured").unwrap();
        assert_eq!(&lines[2][col..col + 7], "density");
    }

    #[test]
    fn csv_roundtrips_cells() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("figure,paper,measured\n"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn fnum_handles_nan() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(f64::NAN, 2), "-");
    }

    #[test]
    fn empty_table_renders_header_only() {
        assert_eq!(Table::new(["x"]).to_text().lines().count(), 2);
    }
}

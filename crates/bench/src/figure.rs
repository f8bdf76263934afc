//! Figure data model and table rendering.

use std::fmt;

/// One measured point of a series.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Point {
    /// Sweep-variable value (I/O size in KiB, stripe width, read %, …) — or
    /// bandwidth for latency-vs-bandwidth figures.
    pub x: f64,
    /// Primary metric (bandwidth MB/s, KIOPS, …).
    pub y: f64,
    /// Mean latency in µs at this point, when meaningful.
    pub latency_us: Option<f64>,
}

/// One line of a figure (a system or configuration).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Series {
    /// Legend label ("Linux", "SPDK", "dRAID", …).
    pub label: String,
    /// Points in sweep order.
    pub points: Vec<Point>,
}

impl Series {
    /// The point at sweep value `x`, if measured.
    pub fn at(&self, x: f64) -> Option<&Point> {
        self.points.iter().find(|p| (p.x - x).abs() < 1e-9)
    }

    /// Largest primary metric in the series.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.y).fold(0.0, f64::max)
    }
}

/// A regenerated table/figure of the paper.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Figure {
    /// Paper identifier ("fig10", "table1", …).
    pub id: String,
    /// Caption, matching the paper's.
    pub title: String,
    /// Sweep-variable name.
    pub x_label: String,
    /// Primary-metric name.
    pub y_label: String,
    /// Measured series.
    pub series: Vec<Series>,
    /// Paper-vs-measured observations appended to the rendering.
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Ratio of two series' primary metric at sweep value `x` (e.g.
    /// dRAID/SPDK at 128 KiB — the paper's "×" claims).
    pub fn ratio_at(&self, num: &str, den: &str, x: f64) -> Option<f64> {
        let n = self.series(num)?.at(x)?.y;
        let d = self.series(den)?.at(x)?.y;
        (d > 0.0).then(|| n / d)
    }

    /// Adds a paper-vs-measured note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders as a Markdown table (also what `Display` prints).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        if self.series.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let has_latency = self
            .series
            .iter()
            .any(|s| s.points.iter().any(|p| p.latency_us.is_some()));
        // Header.
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} ({}) |", s.label, self.y_label));
        }
        if has_latency {
            for s in &self.series {
                out.push_str(&format!(" {} lat (us) |", s.label));
            }
        }
        out.push('\n');
        let cols = self.series.len() * if has_latency { 2 } else { 1 } + 1;
        out.push_str(&format!("|{}\n", "---|".repeat(cols)));
        // Rows: union of x values in first-series order.
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .fold(Vec::new(), |mut acc, x| {
                if !acc.iter().any(|&v: &f64| (v - x).abs() < 1e-9) {
                    acc.push(x);
                }
                acc
            });
        for x in xs {
            out.push_str(&format!("| {} |", trim_float(x)));
            for s in &self.series {
                match s.at(x) {
                    Some(p) => out.push_str(&format!(" {:.0} |", p.y)),
                    None => out.push_str(" – |"),
                }
            }
            if has_latency {
                for s in &self.series {
                    match s.at(x).and_then(|p| p.latency_us) {
                        Some(l) => out.push_str(&format!(" {l:.0} |")),
                        None => out.push_str(" – |"),
                    }
                }
            }
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push('\n');
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("figX", "demo", "I/O size (KiB)", "MB/s");
        fig.series.push(Series {
            label: "SPDK".into(),
            points: vec![
                Point {
                    x: 4.0,
                    y: 100.0,
                    latency_us: Some(10.0),
                },
                Point {
                    x: 128.0,
                    y: 3000.0,
                    latency_us: Some(500.0),
                },
            ],
        });
        fig.series.push(Series {
            label: "dRAID".into(),
            points: vec![
                Point {
                    x: 4.0,
                    y: 150.0,
                    latency_us: Some(9.0),
                },
                Point {
                    x: 128.0,
                    y: 5100.0,
                    latency_us: Some(400.0),
                },
            ],
        });
        fig
    }

    #[test]
    fn ratio_and_peak() {
        let fig = sample();
        let r = fig.ratio_at("dRAID", "SPDK", 128.0).expect("both present");
        assert!((r - 1.7).abs() < 0.01);
        assert_eq!(fig.series("dRAID").expect("exists").peak(), 5100.0);
        assert!(fig.ratio_at("dRAID", "missing", 128.0).is_none());
    }

    #[test]
    fn markdown_contains_all_cells() {
        let mut fig = sample();
        fig.note("dRAID/SPDK at 128 KiB: paper 1.7x, measured 1.70x");
        let md = fig.to_markdown();
        assert!(md.contains("| 4 |"));
        assert!(md.contains("5100"));
        assert!(md.contains("lat (us)"));
        assert!(md.contains("paper 1.7x"));
    }

    #[test]
    fn missing_points_render_dashes() {
        let mut fig = sample();
        fig.series[0].points.remove(0);
        assert!(fig.to_markdown().contains("–"));
    }
}

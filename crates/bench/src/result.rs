//! Experiment output: paper-style tables on stdout plus JSON artifacts
//! under `results/`.

use crate::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One plotted series (a line in a figure or a bar group).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's (e.g. "iMapReduce (sync.)").
    pub label: String,
    /// `(x, y)` points; x is iteration number, cluster size, etc.
    pub points: Vec<(f64, f64)>,
}

/// A reproduced table or figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. "fig4" or "table1".
    pub id: String,
    /// Human title echoing the paper caption.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The measured series.
    pub series: Vec<Series>,
    /// Free-form notes: paper-reported values, ratios, substitutions.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// A new empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push_series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            label: label.into(),
            points,
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the figure as an aligned text table (x column + one
    /// column per series).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        if self.series.is_empty() {
            for n in &self.notes {
                let _ = writeln!(out, "  {n}");
            }
            return out;
        }
        // Collect the x values of the longest series as the row keys.
        let xs: Vec<f64> = self
            .series
            .iter()
            .max_by_key(|s| s.points.len())
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "  {:>22}", s.label);
        }
        out.push('\n');
        for (row, x) in xs.iter().enumerate() {
            let _ = write!(out, "{x:>14.3}");
            for s in &self.series {
                match s
                    .points
                    .iter()
                    .find(|p| (p.0 - x).abs() < 1e-9)
                    .or(s.points.get(row))
                {
                    Some((_, y)) => {
                        let _ = write!(out, "  {y:>22.3}");
                    }
                    None => {
                        let _ = write!(out, "  {:>22}", "-");
                    }
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "  [{} vs {}]", self.x_label, self.y_label);
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Prints to stdout and writes `results/<id>.json` under `root`.
    pub fn emit(&self, root: &Path) {
        print!("{}", self.render());
        let dir = root.join("results");
        if std::fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{}.json", self.id));
            let _ = std::fs::write(path, self.to_json().to_string_pretty());
        }
    }

    /// The JSON document written to `results/<id>.json`.
    pub fn to_json(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("id".into(), Value::String(self.id.clone()));
        obj.insert("title".into(), Value::String(self.title.clone()));
        obj.insert("x_label".into(), Value::String(self.x_label.clone()));
        obj.insert("y_label".into(), Value::String(self.y_label.clone()));
        let series = self
            .series
            .iter()
            .map(|s| {
                let mut m = BTreeMap::new();
                m.insert("label".into(), Value::String(s.label.clone()));
                m.insert(
                    "points".into(),
                    Value::Array(
                        s.points
                            .iter()
                            .map(|&(x, y)| Value::Array(vec![Value::Number(x), Value::Number(y)]))
                            .collect(),
                    ),
                );
                Value::Object(m)
            })
            .collect();
        obj.insert("series".into(), Value::Array(series));
        obj.insert(
            "notes".into(),
            Value::Array(
                self.notes
                    .iter()
                    .map(|n| Value::String(n.clone()))
                    .collect(),
            ),
        );
        Value::Object(obj)
    }
}

/// Final-value helper: the last y of a series.
pub fn final_y(points: &[(f64, f64)]) -> f64 {
    points.last().map(|p| p.1).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_series_and_notes() {
        let mut f = FigureResult::new("figX", "Test", "iterations", "time (s)");
        f.push_series("A", vec![(1.0, 10.0), (2.0, 20.0)]);
        f.push_series("B", vec![(1.0, 5.0), (2.0, 9.0)]);
        f.note("paper: B ≈ 2x faster");
        let text = f.render();
        assert!(text.contains("figX"));
        assert!(text.contains('A') && text.contains('B'));
        assert!(text.contains("20.000"));
        assert!(text.contains("paper: B"));
    }

    #[test]
    fn emit_writes_json() {
        let dir = std::env::temp_dir().join(format!("imr-bench-test-{}", std::process::id()));
        let mut f = FigureResult::new("figY", "T", "x", "y");
        f.push_series("only", vec![(1.0, 1.0)]);
        f.emit(&dir);
        let path = dir.join("results/figY.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, f.to_json().to_string_pretty());
        assert!(text.contains("\"id\": \"figY\""), "{text}");
        assert!(text.contains("\"label\": \"only\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn final_y_of_empty_is_nan() {
        assert!(final_y(&[]).is_nan());
        assert_eq!(final_y(&[(0.0, 1.5)]), 1.5);
    }
}

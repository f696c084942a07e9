//! Minimal JSON writer for the `results/` artifacts.
//!
//! The harness only needs to serialize its own [`FigureResult`]
//! structure, so a tiny self-contained implementation replaces the
//! `serde_json` dependency: a [`Value`] tree and a pretty printer.
//!
//! [`FigureResult`]: crate::FigureResult

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Object keys are kept sorted (BTreeMap), which
/// makes emitted artifacts byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64, like serde_json's default).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Pretty-prints with two-space indentation (the layout
    /// `serde_json::to_string_pretty` produced for these artifacts).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}.0", n.trunc());
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's exact bytes: sorted keys, two-space nesting, empty
    /// containers inline, escapes, whole numbers with `.0`, and `null`
    /// for a non-finite number.
    #[test]
    fn writes_golden_text() {
        let mut obj = BTreeMap::new();
        obj.insert(
            "id".to_string(),
            Value::String("fig\"4\"\n\t\u{1}".to_string()),
        );
        obj.insert(
            "points".to_string(),
            Value::Array(vec![
                Value::Array(vec![Value::Number(1.0), Value::Number(2.5)]),
                Value::Array(vec![Value::Number(-3.0), Value::Number(f64::NAN)]),
            ]),
        );
        obj.insert("empty".to_string(), Value::Array(vec![]));
        obj.insert("none".to_string(), Value::Object(BTreeMap::new()));
        obj.insert("flag".to_string(), Value::Bool(true));
        obj.insert("nothing".to_string(), Value::Null);
        obj.insert("big".to_string(), Value::Number(1e20));
        let golden = r#"{
  "big": 100000000000000000000,
  "empty": [],
  "flag": true,
  "id": "fig\"4\"\n\t\u0001",
  "none": {},
  "nothing": null,
  "points": [
    [
      1.0,
      2.5
    ],
    [
      -3.0,
      null
    ]
  ]
}"#;
        assert_eq!(Value::Object(obj).to_string_pretty(), golden);
    }
}

//! A minimal JSON writer: the benchmark's result line, `BENCHMARK.json`
//! and the Chrome trace files. Deliberately not `imr-bench`'s
//! `json.rs`, which is slated for merging with the telemetry encoder.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact one-line rendering. Floats print with Rust's shortest
    /// round-trip representation, so every measured digit survives; a
    /// non-finite float has no JSON form and renders as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{}` prints 3.0 as "3": still a valid JSON number.
            Json::Num(x) => write!(out, "{x}").unwrap(),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes() {
        let j = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Int(-3)),
            ("x", Json::Num(1.2034)),
            ("s", Json::str("a\"b\\c\n")),
            ("xs", Json::Arr(vec![Json::Null, Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"ok": true, "n": -3, "x": 1.2034, "s": "a\"b\\c\n", "xs": [null, null]}"#
        );
    }

    #[test]
    fn floats_keep_every_digit() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(3.0).render(), "3");
    }
}

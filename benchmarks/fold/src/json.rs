//! JSON writer for [`ln_insight::json::Value`], the counterpart of that
//! crate's parser: what [`write`] emits, `ln_insight::json::parse` reads
//! back to an equal value.

pub use ln_insight::json::{parse, Value};

/// Serialises `value` on one line.
///
/// Floats keep every digit (`{:?}` is the shortest text that parses back
/// to the same `f64`, and always carries a `.` or an exponent, so a float
/// never reads back as an integer). JSON has no NaN or infinity: a
/// non-finite float is written as `null`.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(key, out);
                out.push_str(": ");
                write_into(item, out);
            }
            out.push('}');
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
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_insight_parser() {
        let doc = obj([
            (
                "name",
                Value::Str("a \"quoted\"\\\n\ttab \u{1} é".to_owned()),
            ),
            ("count", Value::UInt(u64::MAX)),
            ("whole_float", Value::Float(2.0)),
            ("tiny", Value::Float(1.25e-9)),
            ("huge", Value::Float(-3.5e22)),
            ("third", Value::Float(1.0 / 3.0)),
            ("flags", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("empty", Value::Obj(vec![])),
        ]);
        let text = write(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let text = write(&Value::Arr(vec![
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ]));
        assert_eq!(text, "[null, null]");
    }
}

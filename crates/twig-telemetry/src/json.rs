//! A deliberately tiny JSON writer — just enough to emit telemetry
//! records as JSON Lines without pulling `serde` into an offline build.
//! Supports objects of scalars plus nested objects.

use std::fmt::Write as _;

/// Builds one JSON object as a `String`, key by key.
///
/// # Examples
///
/// ```
/// let mut o = twig_telemetry::json::JsonObject::new();
/// o.field_u64("epoch", 3);
/// o.field_f64("loss", 0.25);
/// o.field_str("kind", "span");
/// assert_eq!(o.finish(), r#"{"epoch":3,"loss":0.25,"kind":"span"}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    out: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            out: String::from("{"),
        }
    }

    fn sep(&mut self) {
        if self.out.len() > 1 {
            self.out.push(',');
        }
    }

    /// Adds an unsigned-integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{}:{}", quoted(key), value);
        self
    }

    /// Adds a float field. Non-finite values (which JSON cannot represent)
    /// are emitted as `null`.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        if value.is_finite() {
            let _ = write!(self.out, "{}:{}", quoted(key), FloatRepr(value));
        } else {
            let _ = write!(self.out, "{}:null", quoted(key));
        }
        self
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{}:{}", quoted(key), quoted(value));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{}:{}", quoted(key), value);
        self
    }

    /// Adds a nested object field, built by the closure.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut o = twig_telemetry::json::JsonObject::new();
    /// o.field_object("inner", |i| {
    ///     i.field_u64("n", 1);
    /// });
    /// assert_eq!(o.finish(), r#"{"inner":{"n":1}}"#);
    /// ```
    pub fn field_object(&mut self, key: &str, build: impl FnOnce(&mut JsonObject)) -> &mut Self {
        self.sep();
        let mut inner = JsonObject::new();
        build(&mut inner);
        let _ = write!(self.out, "{}:{}", quoted(key), inner.finish());
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// `f64` formatter that always round-trips: shortest representation that
/// parses back to the same value, with a `.0` suffix kept off (JSON numbers
/// need no decimal point).
struct FloatRepr(f64);

impl std::fmt::Display for FloatRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Rust's default `Display` for f64 is already the shortest
        // round-trip representation.
        write!(f, "{}", self.0)
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let mut o = JsonObject::new();
        o.field_str("k", "a\"b\\c\nd\te\u{1}");
        assert_eq!(o.finish(), r#"{"k":"a\"b\\c\nd\te\u0001"}"#);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut o = JsonObject::new();
        o.field_f64("nan", f64::NAN).field_f64("inf", f64::INFINITY);
        assert_eq!(o.finish(), r#"{"nan":null,"inf":null}"#);
    }

    #[test]
    fn floats_round_trip() {
        for v in [0.1, 1.0 / 3.0, 1e-12, 123456.789, -0.0] {
            let mut o = JsonObject::new();
            o.field_f64("v", v);
            let s = o.finish();
            let body = s.trim_start_matches(r#"{"v":"#).trim_end_matches('}');
            let parsed: f64 = body.parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn bool_fields_emit_literals() {
        let mut o = JsonObject::new();
        o.field_bool("yes", true).field_bool("no", false);
        assert_eq!(o.finish(), r#"{"yes":true,"no":false}"#);
    }

    #[test]
    fn nested_objects_compose() {
        let mut o = JsonObject::new();
        o.field_str("name", "run");
        o.field_object("meta", |m| {
            m.field_u64("n", 2).field_object("inner", |i| {
                i.field_bool("ok", false);
            });
        });
        assert_eq!(
            o.finish(),
            r#"{"name":"run","meta":{"n":2,"inner":{"ok":false}}}"#
        );
    }
}

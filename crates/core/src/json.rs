//! A minimal hand-rolled JSON tree: writer + recursive-descent parser.
//!
//! The build environment has no registry access, so the vendored `serde`
//! is a no-op stub; every JSON shape the workspace needs is hand-rolled.
//! This module is the one shared implementation: `qecool_sim::campaign`
//! serializes its checkpoint files with it, the `sweep` binary writes
//! its `--results` file with it, and perfbench parses its pins and
//! `BENCHMARK.json` and renders its result lines with it.
//!
//! Two properties matter to those callers and are guaranteed here:
//!
//! * **Exact integers.** Checkpoint counters include `u128` sums whose
//!   byte-identical round-trip is a correctness requirement, so integers
//!   are kept as [`Json::UInt`] (arbitrary magnitude up to `u128`) and
//!   rendered/parsed as exact decimal digits — never routed through
//!   `f64`.
//! * **Deterministic rendering.** Object keys keep insertion order and
//!   floats render via Rust's shortest-round-trip formatting, so the
//!   same tree always renders to the same bytes.
//!
//! The dialect is deliberately restricted: no string escape sequences
//! (keys and values in this workspace are identifiers and numbers), no
//! duplicate-key detection, `NaN`/infinite floats render as `null`, and
//! containers nest at most [`MAX_DEPTH`] deep — deeper input is a parse
//! error, not a stack overflow in the recursive descent.

/// Deepest container nesting [`Json::parse`] accepts. Every document
/// the workspace writes nests three or four levels.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact (checkpoint counters include
    /// `u128` sums of squares).
    UInt(u128),
    /// Any other number (negative, fractional or exponent-form).
    Num(f64),
    /// A string without escape sequences.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (deterministic rendering).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an in-range unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `u128`, if it is an unsigned integer.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64`: exact floats, or integers converted (with the
    /// usual `f64` precision caveats — use [`Self::as_u128`] where
    /// exactness matters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The object's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        }
    }

    /// Renders the tree compactly (no whitespace); deterministic for a
    /// given tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                debug_assert!(
                    !s.contains(['"', '\\']) && !s.chars().any(|c| c.is_control()),
                    "json strings must not need escaping: {s:?}"
                );
                let _ = write!(out, "\"{s}\"");
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{key}\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace content is an
    /// error.
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct, including a
    /// prefix of the offending text; containers nested deeper than
    /// [`MAX_DEPTH`] are rejected by name.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            rest: text,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if !p.rest.is_empty() {
            return Err(format!("trailing content: {:.24}...", p.rest));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    rest: &'a str,
    /// Containers currently open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        if self.rest.starts_with(c) {
            self.rest = &self.rest[c.len_utf8()..];
            Ok(())
        } else {
            Err(format!("expected '{c}' at: {:.24}", self.rest))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.rest.starts_with(lit) {
            self.rest = &self.rest[lit.len()..];
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some('f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some('n') if self.eat_literal("null") => Ok(Json::Null),
            Some(c) if c == '-' || c == '+' || c.is_ascii_digit() || c == '.' => self.number(),
            _ => Err(format!("expected a JSON value at: {:.24}", self.rest)),
        }
    }

    /// Parses one container, refusing to open more than [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        match self.rest.find(['"', '\\']) {
            Some(end) if self.rest.as_bytes()[end] == b'"' => {
                let s = &self.rest[..end];
                self.rest = &self.rest[end + 1..];
                Ok(s.to_owned())
            }
            Some(_) => Err("escape sequences are not supported".into()),
            None => Err("unterminated string".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let end = self
            .rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        // Pure digit runs stay exact integers; anything signed,
        // fractional or exponent-form becomes f64.
        if !token.is_empty() && token.bytes().all(|b| b.is_ascii_digit()) {
            token
                .parse::<u128>()
                .map(Json::UInt)
                .map_err(|_| format!("integer out of range '{token}'"))
        } else {
            token
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number '{token}'"))
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(']') {
                self.expect(']')?;
                break;
            }
            items.push(self.value()?);
            self.skip_ws();
            if self.peek() == Some(',') {
                self.expect(',')?;
            } else if self.peek() != Some(']') {
                return Err(format!("expected ',' or ']' at: {:.24}", self.rest));
            }
        }
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some('}') {
                self.expect('}')?;
                break;
            }
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.peek() == Some(',') {
                self.expect(',')?;
            } else if self.peek() != Some('}') {
                return Err(format!("expected ',' or '}}' at: {:.24}", self.rest));
            }
        }
        Ok(Json::Obj(fields))
    }
}

/// Convenience: builds an object from `(key, value)` pairs.
pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "0", "17", "\"hello\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "{text}");
        }
    }

    #[test]
    fn u128_integers_are_exact() {
        let big = u128::MAX;
        let v = Json::UInt(big);
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back.as_u128(), Some(big));
        // Well beyond f64's 2^53 exact-integer range.
        let v = Json::parse("90071992547409931234").unwrap();
        assert_eq!(v.as_u128(), Some(90_071_992_547_409_931_234));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.001, 1.5, -2.25, 1e300, std::f64::consts::PI, -1e-12] {
            let rendered = Json::Num(x).render();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{rendered}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let tree = obj([
            ("version", Json::UInt(1)),
            ("p", Json::Num(0.004)),
            (
                "jobs",
                Json::Arr(vec![
                    obj([("shots", Json::UInt(64)), ("ok", Json::Bool(true))]),
                    Json::Null,
                ]),
            ),
        ]);
        let text = tree.render();
        assert_eq!(Json::parse(&text).unwrap(), tree);
        assert_eq!(tree.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            tree.get("jobs").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn whitespace_and_trailing_commas_tolerated_in_containers() {
        let v = Json::parse("{ \"a\" : [ 1 , 2 , ] , }").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[_]>::len), Some(2));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1} junk",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"a\": oops}",
            "nul",
            "123abc",
        ] {
            assert!(Json::parse(text).is_err(), "should reject: {text:?}");
        }
    }

    #[test]
    fn truncated_object_is_rejected() {
        let full = obj([("shots", Json::UInt(100)), ("failures", Json::UInt(3))]).render();
        for cut in 1..full.len() {
            assert!(
                Json::parse(&full[..cut]).is_err(),
                "truncation at {cut} must not parse: {}",
                &full[..cut]
            );
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn negative_and_exponent_numbers_parse_as_floats() {
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("2.5").unwrap().as_f64(), Some(2.5));
        // and stays None under the integer accessor
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    }
}

//! Minimal JSON (no external deps): enough for the benches to append to
//! and validate their `BENCH_*.json` artifacts (see
//! [`BenchFile`](crate::benchfile::BenchFile)); hand-rolled per the
//! minimal-deps rule (DESIGN.md §3.6) — same spirit as the `ckptstore`
//! codec, but for the human-readable perf-trajectory files at the repo
//! root.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep insertion order so appended
/// entries diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A JSON number.
pub fn num(n: f64) -> Json {
    Json::Num(n)
}

impl Json {
    /// Field lookup on an object; `None` on non-objects or missing keys.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n:?}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    let _ = write!(out, "\"{k}\": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Two-space-indented rendering with a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s.push('\n');
        s
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = match self.parse()? {
                        Json::Str(s) => s,
                        _ => return Err(self.err("object key must be a string")),
                    };
                    self.expect(b':')?;
                    let val = self.parse()?;
                    fields.push((key, val));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.parse()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    let b = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated string"))?;
                    self.pos += 1;
                    match b {
                        b'"' => return Ok(Json::Str(s)),
                        b'\\' => {
                            let esc = *self
                                .bytes
                                .get(self.pos)
                                .ok_or_else(|| self.err("bad escape"))?;
                            self.pos += 1;
                            match esc {
                                b'"' => s.push('"'),
                                b'\\' => s.push('\\'),
                                b'/' => s.push('/'),
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                b'r' => s.push('\r'),
                                b'u' => {
                                    let hex = self
                                        .bytes
                                        .get(self.pos..self.pos + 4)
                                        .ok_or_else(|| self.err("bad \\u escape"))?;
                                    let code = u32::from_str_radix(
                                        std::str::from_utf8(hex)
                                            .map_err(|_| self.err("bad \\u escape"))?,
                                        16,
                                    )
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                    self.pos += 4;
                                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                }
                                _ => return Err(self.err("unknown escape")),
                            }
                        }
                        _ => {
                            // Re-sync to char boundaries for multi-byte UTF-8.
                            let start = self.pos - 1;
                            let mut end = self.pos;
                            while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                                end += 1;
                            }
                            s.push_str(
                                std::str::from_utf8(&self.bytes[start..end])
                                    .map_err(|_| self.err("invalid utf-8"))?,
                            );
                            self.pos = end;
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (lit, val) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                        self.pos += lit.len();
                        return Ok(val);
                    }
                }
                Err(self.err("unknown literal"))
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.err("invalid number"))
            }
        }
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("v1".into())),
            (
                "entries".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("label".into(), Json::Str("a \"quoted\" label".into())),
                    ("n".into(), Json::Num(42.0)),
                    ("frac".into(), Json::Num(1.5)),
                    ("ok".into(), Json::Bool(true)),
                    ("none".into(), Json::Null),
                ])]),
            ),
        ]);
        let text = doc.to_string_pretty();
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1, 2,]").is_err());
    }
}

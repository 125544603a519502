//! Durable, dependency-free JSON for validation witnesses and RG
//! certificates.
//!
//! A [`SimWitness`] (or a whole pipeline's worth) round-trips through
//! [`witness_to_json`]/[`witness_from_json`] with every obligation —
//! kind, function, node, discharge status and note — intact, so the
//! witness cache can store it and re-check it without recompiling.
//! The document stores no verdict: a reader re-derives it from the
//! obligations ([`SimWitness::validated`]). [`pipeline_shape_from_json`]
//! is the cache's allocation-light scan of the same format, and
//! [`parse`] also backs `crate::rg_cert`'s certificate codec.
//!
//! Every entry point reads untrusted bytes (disk-cache entries, `.rgc`
//! files), so the parser bounds its nesting at [`MAX_DEPTH`]: a deeper
//! document is a [`JsonError`], never a stack overflow.
//!
//! Hand-rolled on purpose: the workspace takes no serde dependency.

use super::{Obligation, ObligationKind, PipelineWitness, SimWitness};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (all numbers in witness JSON are integers).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_num(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A JSON syntax error, anchored to the byte where parsing stopped.
///
/// Poisoned-cache diagnostics depend on the anchor: when a stored
/// witness is truncated or corrupted on disk, the cache reports *where*
/// the document broke, not just that it did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// What went wrong there.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// The deepest array/object nesting any parser entry point accepts.
/// The serializers write at most 5 levels; the bound keeps recursion on
/// hostile input far inside a thread's stack.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    /// Admits one more level of nesting below `depth`, or fails at the
    /// opening bracket.
    fn nest(&self, depth: usize) -> Result<usize, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(depth + 1)
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.into(),
        }
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// One value nested `depth` levels deep.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let depth = self.nest(depth)?;
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth)?);
                    self.ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                let depth = self.nest(depth)?;
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.expect(b':')?;
                    let val = self.value(depth)?;
                    fields.push((key, val));
                    self.ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        self.expect(b'}')?;
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.err(format!("unexpected {:?}", other.map(|b| b as char)))),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are utf-8");
        text.parse::<i64>().map(Json::Num).map_err(|e| JsonError {
            offset: start,
            msg: format!("bad number {text:?}: {e}"),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| self.err(e.to_string()))?,
                                16,
                            )
                            .map_err(|e| self.err(e.to_string()))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(self.err(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a whole run of unescaped bytes at once —
                    // re-validating the full remaining input per
                    // character would make parsing quadratic, and cache
                    // hits parse ~100KB witnesses on the hot path. The
                    // delimiters are ASCII, so the run always ends on a
                    // UTF-8 character boundary.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                        JsonError {
                            offset: start + e.valid_up_to(),
                            msg: format!("invalid utf-8 in string: {e}"),
                        }
                    })?;
                    out.push_str(run);
                }
            }
        }
    }
}

impl<'a> Parser<'a> {
    /// Parses one string allocation-free when it contains no escapes
    /// (the common case for every string our serializer emits), falling
    /// back to the decoding path otherwise.
    fn lean_string(&mut self) -> Result<std::borrow::Cow<'a, str>, JsonError> {
        let quote = self.pos;
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| {
                        JsonError {
                            offset: start + e.valid_up_to(),
                            msg: format!("invalid utf-8 in string: {e}"),
                        }
                    })?;
                    self.pos += 1;
                    return Ok(std::borrow::Cow::Borrowed(s));
                }
                b'\\' => {
                    self.pos = quote;
                    return self.string().map(std::borrow::Cow::Owned);
                }
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Syntax-checks one value nested `depth` levels deep without
    /// materializing it.
    fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        self.ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(()),
            Some(b't') if self.eat_keyword("true") => Ok(()),
            Some(b'f') if self.eat_keyword("false") => Ok(()),
            Some(b'"') => self.lean_string().map(|_| ()),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            Some(b'[') => {
                let depth = self.nest(depth)?;
                self.pos += 1;
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.skip_value(depth)?;
                    self.ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        return self.expect(b']');
                    }
                }
            }
            Some(b'{') => {
                let depth = self.nest(depth)?;
                self.pos += 1;
                self.ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    self.ws();
                    self.lean_string()?;
                    self.ws();
                    self.expect(b':')?;
                    self.skip_value(depth)?;
                    self.ws();
                    if self.peek() == Some(b',') {
                        self.pos += 1;
                    } else {
                        return self.expect(b'}');
                    }
                }
            }
            other => Err(self.err(format!("unexpected {:?}", other.map(|b| b as char)))),
        }
    }

    /// One `{"kind":...,"discharged":...,...}` obligation, counted into
    /// `shape` without materializing anything.
    fn obligation_shape(&mut self, shape: &mut WitnessShape) -> Result<(), JsonError> {
        self.ws();
        let obj_off = self.pos;
        self.expect(b'{')?;
        let mut discharged: Option<bool> = None;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.ws();
                let key = self.lean_string()?;
                self.ws();
                self.expect(b':')?;
                if &*key == "discharged" {
                    self.ws();
                    discharged = Some(match self.peek() {
                        Some(b't') if self.eat_keyword("true") => true,
                        Some(b'f') if self.eat_keyword("false") => false,
                        _ => return Err(self.err("expected bool discharged")),
                    });
                } else {
                    // document › witnesses › witness › obligations › obligation
                    self.skip_value(5)?;
                }
                self.ws();
                if self.peek() == Some(b',') {
                    self.pos += 1;
                } else {
                    self.expect(b'}')?;
                    break;
                }
            }
        }
        let d = discharged.ok_or(JsonError {
            offset: obj_off,
            msg: "obligation missing discharged".into(),
        })?;
        shape.obligations += 1;
        if !d {
            shape.undischarged += 1;
        }
        Ok(())
    }

    /// One witness object: records its pass name and counts its
    /// obligations.
    fn witness_shape(&mut self, shape: &mut WitnessShape) -> Result<(), JsonError> {
        self.ws();
        let obj_off = self.pos;
        self.expect(b'{')?;
        let mut pass: Option<String> = None;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.ws();
                let key = self.lean_string()?;
                self.ws();
                self.expect(b':')?;
                match &*key {
                    "pass" => {
                        self.ws();
                        pass = Some(self.lean_string()?.into_owned());
                    }
                    "obligations" => {
                        self.ws();
                        self.expect(b'[')?;
                        self.ws();
                        if self.peek() == Some(b']') {
                            self.pos += 1;
                        } else {
                            loop {
                                self.obligation_shape(shape)?;
                                self.ws();
                                if self.peek() == Some(b',') {
                                    self.pos += 1;
                                } else {
                                    self.expect(b']')?;
                                    break;
                                }
                            }
                        }
                    }
                    // document › witnesses › witness
                    _ => self.skip_value(3)?,
                }
                self.ws();
                if self.peek() == Some(b',') {
                    self.pos += 1;
                } else {
                    self.expect(b'}')?;
                    break;
                }
            }
        }
        shape.passes.push(pass.ok_or(JsonError {
            offset: obj_off,
            msg: "witness missing pass".into(),
        })?);
        Ok(())
    }
}

/// The structural summary of a stored pipeline witness: exactly what
/// the cache's per-hit re-check needs, extracted by a full syntax scan
/// of the document that allocates nothing per obligation.
///
/// Cache hits re-check a ~100KB witness on every request, so the
/// structural pass must not pay for materializing thousands of
/// [`Obligation`]s it would only ever scan once. The scan still
/// validates the *entire* document's syntax — a truncated or bit-rotted
/// entry fails with a byte offset no matter where the damage is — and a
/// schema violation (missing `pass`/`discharged`) is an error, so a
/// tampered entry cannot hide fields from the check.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct WitnessShape {
    /// The pass name of each stage, in stored order.
    pub passes: Vec<String>,
    /// Total obligation count across all passes.
    pub obligations: usize,
    /// Obligations stored with `"discharged": false`.
    pub undischarged: usize,
}

impl WitnessShape {
    /// The shape of an already decoded pipeline witness.
    #[must_use]
    pub fn of(w: &PipelineWitness) -> WitnessShape {
        WitnessShape {
            passes: w.witnesses.iter().map(|sw| sw.pass.clone()).collect(),
            obligations: w.witnesses.iter().map(|sw| sw.obligations.len()).sum(),
            undischarged: w.witnesses.iter().map(|sw| sw.failures().count()).sum(),
        }
    }
}

/// Scans a serialized [`PipelineWitness`] into its [`WitnessShape`].
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset on any syntax error or
/// witness-schema violation, anywhere in the document.
pub fn pipeline_shape_from_json(s: &str) -> Result<WitnessShape, JsonError> {
    let mut p = Parser::new(s);
    let mut shape = WitnessShape::default();
    p.ws();
    p.expect(b'{')?;
    p.ws();
    let mut saw_witnesses = false;
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.ws();
            let key = p.lean_string()?;
            p.ws();
            p.expect(b':')?;
            if &*key == "witnesses" {
                saw_witnesses = true;
                p.ws();
                p.expect(b'[')?;
                p.ws();
                if p.peek() == Some(b']') {
                    p.pos += 1;
                } else {
                    loop {
                        p.witness_shape(&mut shape)?;
                        p.ws();
                        if p.peek() == Some(b',') {
                            p.pos += 1;
                        } else {
                            p.expect(b']')?;
                            break;
                        }
                    }
                }
            } else {
                p.skip_value(1)?;
            }
            p.ws();
            if p.peek() == Some(b',') {
                p.pos += 1;
            } else {
                p.expect(b'}')?;
                break;
            }
        }
    }
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    if !saw_witnesses {
        return Err(JsonError {
            offset: 0,
            msg: "missing witnesses".into(),
        });
    }
    Ok(shape)
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax error (or the
/// first bracket past [`MAX_DEPTH`]) and the byte offset at which it was
/// detected.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(s);
    let v = p.value(0)?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes one witness with full fidelity (every obligation kept).
#[must_use]
pub fn witness_to_json(w: &SimWitness) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"pass\":{},\"matched_blocks\":{},\"obligations\":[",
        {
            let mut s = String::new();
            escape_into(&mut s, &w.pass);
            s
        },
        w.matched_blocks
    );
    for (i, ob) in w.obligations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"kind\":\"{}\",\"function\":", ob.kind.name());
        escape_into(&mut out, &ob.function);
        match ob.node {
            Some(n) => {
                let _ = write!(out, ",\"node\":{n}");
            }
            None => out.push_str(",\"node\":null"),
        }
        let _ = write!(out, ",\"discharged\":{},\"note\":", ob.discharged);
        escape_into(&mut out, &ob.note);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Deserializes one witness previously written by [`witness_to_json`].
///
/// # Errors
///
/// Fails on malformed JSON, an unknown obligation kind, or a missing
/// field.
pub fn witness_from_json(s: &str) -> Result<SimWitness, String> {
    witness_from_value(&parse(s)?)
}

fn witness_from_value(v: &Json) -> Result<SimWitness, String> {
    let pass = v
        .get("pass")
        .and_then(Json::as_str)
        .ok_or("missing pass")?
        .to_string();
    let matched_blocks = v
        .get("matched_blocks")
        .and_then(Json::as_num)
        .ok_or("missing matched_blocks")?;
    let Some(Json::Arr(obs)) = v.get("obligations") else {
        return Err("missing obligations".into());
    };
    let mut obligations = Vec::with_capacity(obs.len());
    for ob in obs {
        let kind_name = ob
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing obligation kind")?;
        let kind = ObligationKind::parse(kind_name)
            .ok_or_else(|| format!("bad obligation kind {kind_name:?}"))?;
        let node = match ob.get("node") {
            Some(Json::Null) | None => None,
            Some(Json::Num(n)) => {
                Some(u32::try_from(*n).map_err(|_| format!("node {n} out of range"))?)
            }
            Some(other) => return Err(format!("bad node {other:?}")),
        };
        obligations.push(Obligation {
            kind,
            function: ob
                .get("function")
                .and_then(Json::as_str)
                .ok_or("missing obligation function")?
                .to_string(),
            node,
            discharged: match ob.get("discharged") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("missing discharged".into()),
            },
            note: ob
                .get("note")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        });
    }
    Ok(SimWitness {
        pass,
        matched_blocks: usize::try_from(matched_blocks)
            .map_err(|_| format!("matched_blocks {matched_blocks} out of range"))?,
        obligations,
    })
}

/// Serializes a whole pipeline's witnesses with full fidelity.
#[must_use]
pub fn pipeline_to_json(w: &PipelineWitness) -> String {
    let mut out = String::from("{\"witnesses\":[");
    for (i, sw) in w.witnesses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&witness_to_json(sw));
    }
    out.push_str("]}");
    out
}

/// Deserializes a pipeline witness written by [`pipeline_to_json`].
///
/// # Errors
///
/// Fails on malformed JSON or any malformed member witness.
pub fn pipeline_from_json(s: &str) -> Result<PipelineWitness, String> {
    let v = parse(s)?;
    let Some(Json::Arr(ws)) = v.get("witnesses") else {
        return Err("missing witnesses".into());
    };
    let witnesses = ws
        .iter()
        .map(witness_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PipelineWitness { witnesses })
}

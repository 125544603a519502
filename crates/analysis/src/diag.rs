//! Structured diagnostics of the symbolic translation validator
//! ([`crate::transval`]).
//!
//! A [`Diagnostic`] names the pipeline pass it talks about, the
//! offending function, an optional node/instruction index, and a
//! human-readable message. The `Display` rendering is the
//! `[pass] function: message` text, for consumers that match on the
//! formatted string; the structured fields are for programmatic
//! consumers (the fuzz oracle, the mutation scoreboard, the
//! `--validate` flag of `ir_dump`, `tso_robust::CheckedError`).
//!
//! Serialized-witness syntax errors
//! ([`crate::transval::json::JsonError`]) also route through here via
//! [`Diagnostic::from_json_error`], carrying their byte offset in
//! [`Diagnostic::offset`] — every static pass, including the
//! certificate (de)serializers, reports in this one format.

use crate::transval::json::JsonError;
use std::fmt;

/// One structured finding about a pass output: an undischarged
/// translation-validation obligation, or a broken serialized witness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The pipeline pass the finding is about: a validated pass name
    /// such as `"Tunneling"` (see `ccc_compiler::PASS_NAMES`), or the
    /// kind of serialized document, such as `"RgCert"`.
    pub pass: String,
    /// The offending function (empty for module-level findings).
    pub function: String,
    /// The CFG node or instruction index the finding anchors to, when
    /// one exists. The `message` still embeds it textually, so this is
    /// additive metadata, not a substitute.
    pub node: Option<u32>,
    /// For findings about a serialized document (a stored witness or
    /// certificate), the byte offset at which the document broke.
    pub offset: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl Diagnostic {
    /// A module- or function-level diagnostic with no node anchor.
    pub fn new(
        pass: impl Into<String>,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            pass: pass.into(),
            function: function.into(),
            node: None,
            offset: None,
            message: message.into(),
        }
    }

    /// Attaches a node anchor (builder style).
    #[must_use]
    pub fn at(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Attaches a byte-offset anchor (builder style) — for findings
    /// about serialized documents.
    #[must_use]
    pub fn at_offset(mut self, offset: usize) -> Self {
        self.offset = Some(offset);
        self
    }

    /// Lifts a JSON syntax error into the shared diagnostic format,
    /// preserving its byte offset both structurally ([`Self::offset`])
    /// and in the rendered message.
    #[must_use]
    pub fn from_json_error(pass: impl Into<String>, e: &JsonError) -> Self {
        Diagnostic::new(pass, "", e.to_string()).at_offset(e.offset)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.pass, self.function, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_pass_function_message() {
        let d = Diagnostic::new("Tailcall", "f", "node 3: dangling successor 9").at(3);
        assert_eq!(d.to_string(), "[Tailcall] f: node 3: dangling successor 9");
        assert_eq!(d.node, Some(3));
    }

    #[test]
    fn nodeless_diagnostics_render_identically() {
        let d = Diagnostic::new("Asm", "g", "empty body");
        assert_eq!(d.to_string(), "[Asm] g: empty body");
        assert_eq!(d.node, None);
        assert_eq!(d.offset, None);
    }

    #[test]
    fn json_errors_route_through_diag_with_offset() {
        let e = crate::transval::json::parse("{\"a\":").expect_err("truncated");
        let off = e.offset;
        let d = Diagnostic::from_json_error("RgCert", &e);
        assert_eq!(d.pass, "RgCert");
        assert_eq!(d.offset, Some(off));
        assert!(d.message.contains(&format!("byte {off}")), "{d}");
    }
}

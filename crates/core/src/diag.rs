//! The static-analysis vocabulary: diagnostic codes, structured
//! diagnostics with source spans, program batches, and the
//! [`ProgramCheck`] seam through which an analyzer vets a batch before
//! [`crate::Peer::install`] applies it.
//!
//! The actual whole-program analyzer lives in the `wdl-analyze` crate
//! (it needs the parser and the datalog kernel); this module only
//! defines the shared types so `wdl-core` stays dependency-light and
//! `Peer::install` can be checked by *any* `ProgramCheck`
//! implementation — including [`NoCheck`] for embedders that opt out.

use crate::{RelationKind, WFact, WRule};
use std::fmt;
use wdl_datalog::Symbol;

/// A source position (1-based line and column) attached to a rule or
/// statement by the parser's spanned entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line of the statement's first token.
    pub line: usize,
    /// 1-based column of the statement's first token.
    pub col: usize,
}

impl Span {
    /// Builds a span.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// How bad a diagnostic is. `Error` blocks [`crate::Peer::install`];
/// `Warning` is surfaced (through the return value and the trace
/// stream) but does not block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but admissible; installation proceeds.
    Warning,
    /// A program-level fault; installation is rejected.
    Error,
}

impl Severity {
    /// Lower-case label (`"warning"` / `"error"`), as rendered by CLI
    /// output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The closed set of analyzer diagnostics. Codes are stable: tests,
/// CI gates and docs key on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `WDL001` — a head variable is not bound by the body.
    UnboundHeadVar,
    /// `WDL002` — a variable read under negation, comparison or
    /// assignment is not bound positively to its left.
    UnboundNegatedVar,
    /// `WDL003` — a variable in a peer or relation position of a
    /// (potentially delegated) atom is not bound by earlier items, so
    /// the delegation target is undefined.
    UnboundNameVar,
    /// `WDL004` — negation through a recursive cycle, including cycles
    /// that cross peer boundaries (which local stratification cannot
    /// see).
    UnstratifiableNegation,
    /// `WDL005` — a rule-installation cycle between peers: delegation
    /// may keep installing rules around the cycle, risking unbounded
    /// rule growth.
    UnboundedDelegation,
    /// `WDL006` — an atom's arity disagrees with the relation's
    /// declaration.
    ArityMismatch,
    /// `WDL007` — a rule head writes an extensional relation of a
    /// foreign peer without a matching write grant.
    UngrantedWrite,
    /// `WDL008` — a rule reads an intensional relation that no rule
    /// derives: the body can never be satisfied.
    DeadRule,
    /// `WDL009` — a declared intensional relation is neither derived
    /// nor read by any rule.
    UnreachableRelation,
}

impl DiagCode {
    /// The stable `WDLnnn` code string.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::UnboundHeadVar => "WDL001",
            DiagCode::UnboundNegatedVar => "WDL002",
            DiagCode::UnboundNameVar => "WDL003",
            DiagCode::UnstratifiableNegation => "WDL004",
            DiagCode::UnboundedDelegation => "WDL005",
            DiagCode::ArityMismatch => "WDL006",
            DiagCode::UngrantedWrite => "WDL007",
            DiagCode::DeadRule => "WDL008",
            DiagCode::UnreachableRelation => "WDL009",
        }
    }

    /// The numeric part of the code (`1` for `WDL001`), used when the
    /// trace stream needs a `Copy` representation.
    pub fn number(&self) -> u16 {
        match self {
            DiagCode::UnboundHeadVar => 1,
            DiagCode::UnboundNegatedVar => 2,
            DiagCode::UnboundNameVar => 3,
            DiagCode::UnstratifiableNegation => 4,
            DiagCode::UnboundedDelegation => 5,
            DiagCode::ArityMismatch => 6,
            DiagCode::UngrantedWrite => 7,
            DiagCode::DeadRule => 8,
            DiagCode::UnreachableRelation => 9,
        }
    }

    /// The severity this code carries. Unbound variables,
    /// unstratifiable negation, arity mismatches and ungranted writes
    /// are faults the runtime would reject or mis-evaluate; delegation
    /// cycles and dead code are advisory.
    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::UnboundHeadVar
            | DiagCode::UnboundNegatedVar
            | DiagCode::UnboundNameVar
            | DiagCode::UnstratifiableNegation
            | DiagCode::ArityMismatch
            | DiagCode::UngrantedWrite => Severity::Error,
            DiagCode::UnboundedDelegation | DiagCode::DeadRule | DiagCode::UnreachableRelation => {
                Severity::Warning
            }
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured finding from the static analyzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code (see [`DiagCode`]).
    pub code: DiagCode,
    /// Severity, normally [`DiagCode::severity`].
    pub severity: Severity,
    /// Source position of the offending rule, when the program came
    /// through a spanned parse.
    pub rule_span: Option<Span>,
    /// Human-readable description of the fault.
    pub message: String,
    /// Secondary observations (the cycle path, the grant that is
    /// missing, ...).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with the code's default severity.
    pub fn new(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            rule_span: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a source span.
    pub fn with_span(mut self, span: Option<Span>) -> Diagnostic {
        self.rule_span = span;
        self
    }

    /// Appends a secondary note.
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// True iff this diagnostic blocks installation.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.rule_span {
            write!(f, "{span}: ")?;
        }
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// A program to install atomically on a peer: declarations, then
/// rules, then facts — the unit [`crate::Peer::install`] validates and
/// applies all-or-nothing.
#[derive(Clone, Debug, Default)]
pub struct ProgramBatch {
    /// Relations to declare locally: `(relation, arity, kind)`.
    pub declarations: Vec<(Symbol, usize, RelationKind)>,
    /// Rules to add, each with the source span of its statement when
    /// known.
    pub rules: Vec<(WRule, Option<Span>)>,
    /// Facts to insert into local extensional relations.
    pub facts: Vec<WFact>,
}

impl ProgramBatch {
    /// An empty batch.
    pub fn new() -> ProgramBatch {
        ProgramBatch::default()
    }
}

/// What [`crate::Peer::install`] applied, plus the non-blocking
/// diagnostics the checker raised.
#[derive(Clone, Debug, Default)]
pub struct InstallReport {
    /// Relations declared.
    pub declarations: usize,
    /// Ids of the rules added, in batch order.
    pub rules: Vec<crate::RuleId>,
    /// Facts that were new: a fact already stored, or repeated within the
    /// batch, is not counted.
    pub facts: usize,
    /// `Severity::Warning` diagnostics from the checker (errors abort
    /// the install and travel in [`crate::WdlError::Rejected`]).
    pub warnings: Vec<Diagnostic>,
}

/// The seam between the peer engine and the static analyzer: given the
/// installing peer and the batch, return diagnostics. `wdl-analyze`
/// provides the real implementation; [`NoCheck`] opts out.
pub trait ProgramCheck {
    /// Analyzes `batch` as if installed on `peer`, returning findings.
    fn check(&self, peer: &crate::Peer, batch: &ProgramBatch) -> Vec<Diagnostic>;
}

/// A checker that accepts everything — [`crate::Peer::install`] then
/// only applies the engine's intrinsic validation (schema +
/// [`crate::WRule::validate`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCheck;

impl ProgramCheck for NoCheck {
    fn check(&self, _peer: &crate::Peer, _batch: &ProgramBatch) -> Vec<Diagnostic> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_severities_partition() {
        let all = [
            DiagCode::UnboundHeadVar,
            DiagCode::UnboundNegatedVar,
            DiagCode::UnboundNameVar,
            DiagCode::UnstratifiableNegation,
            DiagCode::UnboundedDelegation,
            DiagCode::ArityMismatch,
            DiagCode::UngrantedWrite,
            DiagCode::DeadRule,
            DiagCode::UnreachableRelation,
        ];
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.number() as usize, i + 1);
            assert_eq!(c.as_str(), format!("WDL{:03}", i + 1));
        }
        assert!(DiagCode::UnboundHeadVar.severity() == Severity::Error);
        assert!(DiagCode::DeadRule.severity() == Severity::Warning);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn diagnostic_renders_span_code_and_notes() {
        let d = Diagnostic::new(DiagCode::UnboundHeadVar, "head variable $x is unbound")
            .with_span(Some(Span::new(3, 7)))
            .note("bind $x in the body");
        let s = d.to_string();
        assert!(s.starts_with("3:7: error[WDL001]:"), "{s}");
        assert!(s.contains("note: bind $x"), "{s}");
        assert!(d.is_error());
    }
}

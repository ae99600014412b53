//! # wdl-analyze — whole-program static analysis for WebdamLog
//!
//! The runtime checks each rule in isolation (`WRule::safety_violations`,
//! the one definition of rule safety, which WDL001–003 below report too)
//! and each peer's stratification locally (`wdl_datalog::eval`). Neither can
//! see problems that only exist *between* peers: negation through a cycle
//! that closes over a delegation, rule installation that ping-pongs
//! between two peers forever, or a rule that writes into a foreign
//! extensional relation its owner was never granted. This crate builds a
//! **cross-peer predicate dependency graph** over a set of peer models —
//! nodes are `(peer, relation)` pairs, with symbolic nodes standing in for
//! variable peer/relation positions — and runs a battery of checks over
//! it, emitting structured [`Diagnostic`]s (codes `WDL001..WDL009`).
//!
//! Three front doors:
//!
//! * [`StaticChecker`] implements [`wdl_core::ProgramCheck`], so
//!   `Peer::install` and `wdl_parser::load_program_checked` reject
//!   error-bearing programs before any fact or delegation is emitted;
//! * [`Analyzer::from_peers`] analyses a *running* system (the REPL's
//!   `check` command);
//! * [`model_from_program`] lifts a parsed `.wdl` file into peer models
//!   for offline checking (the `wdl-check` binary).
//!
//! | code   | severity | meaning                                            |
//! |--------|----------|----------------------------------------------------|
//! | WDL001 | error    | head variable not bound by the body                |
//! | WDL002 | error    | negated/compared/assigned variable unbound          |
//! | WDL003 | error    | relation/peer *name* variable unbound at use       |
//! | WDL004 | error    | negation through a (cross-peer) recursive cycle    |
//! | WDL005 | warning  | rule installation may cycle between peers          |
//! | WDL006 | error    | arity mismatch against a declared relation         |
//! | WDL007 | error    | write to a foreign extensional relation w/o grant  |
//! | WDL008 | warning  | rule body reads an intensional nothing derives     |
//! | WDL009 | warning  | intensional relation neither derived nor read      |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

mod checks;
pub mod graph;

pub use graph::{DepGraph, Edge, EdgeKind, InstallEdge, Node};

use std::collections::HashMap;
use wdl_core::{
    AccessControl, Diagnostic, Peer, ProgramBatch, ProgramCheck, RelationKind, Schema, Span, WRule,
};
use wdl_datalog::Symbol;
use wdl_parser::{SpannedStatement, Statement};

/// Index of a rule within the analyzer's model set: `peer` indexes the
/// model list, `rule` that peer's rule list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleRef {
    /// Index into the analyzer's peer-model list.
    pub peer: usize,
    /// Index into that peer's rule list.
    pub rule: usize,
}

/// A rule as the analyzer sees it: the rule itself, where it came from in
/// the source (if loaded from text), and — for rules installed here by
/// another peer — who delegated it.
#[derive(Clone, Debug)]
pub struct RuleInfo {
    /// The rule.
    pub rule: WRule,
    /// Source position of the rule's first token, when known.
    pub span: Option<Span>,
    /// `Some(origin)` for delegated rules hosted on this peer's behalf.
    pub delegated_from: Option<Symbol>,
}

/// The analyzer's view of one peer: its name, declared schema, access
/// policy and rule set (own rules plus installed delegations).
#[derive(Clone, Debug)]
pub struct PeerModel {
    /// Peer name.
    pub name: Symbol,
    /// Declared relations.
    pub schema: Schema,
    /// Access policy (the analyzer reads its write grants).
    pub acl: AccessControl,
    /// Rules, in installation order.
    pub rules: Vec<RuleInfo>,
}

impl PeerModel {
    /// An empty model for `name` (open policy, no declarations, no rules).
    pub fn new(name: impl Into<Symbol>) -> PeerModel {
        PeerModel {
            name: name.into(),
            schema: Schema::new(),
            acl: AccessControl::new(),
            rules: Vec::new(),
        }
    }

    /// Snapshots a live peer: schema, access policy, own rules (no source spans)
    /// and installed delegations (tagged with their origin).
    pub fn from_peer(peer: &Peer) -> PeerModel {
        let mut model = PeerModel::new(peer.name());
        model.schema = peer.schema().clone();
        model.acl = peer.acl().clone();
        for entry in peer.rules() {
            model.rules.push(RuleInfo {
                rule: entry.rule.clone(),
                span: None,
                delegated_from: None,
            });
        }
        for d in peer.installed_delegations() {
            model.rules.push(RuleInfo {
                rule: d.rule.clone(),
                span: None,
                delegated_from: Some(d.origin),
            });
        }
        model
    }

    /// Builder convenience: appends an own rule with no span.
    pub fn with_rule(mut self, rule: WRule) -> PeerModel {
        self.rules.push(RuleInfo {
            rule,
            span: None,
            delegated_from: None,
        });
        self
    }
}

/// The result of a whole-program analysis.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// All diagnostics, errors first, then by source position and code.
    pub diagnostics: Vec<Diagnostic>,
    /// Conservative bound on delegation-chain length (number of
    /// installation hops), when the install graph is acyclic; `None` when
    /// installation may cycle.
    pub delegation_depth: Option<usize>,
}

impl AnalysisReport {
    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// True iff no diagnostic at all was emitted.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True iff at least one error-severity diagnostic was emitted.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.is_error())
    }
}

/// The whole-program analyzer: holds a set of [`PeerModel`]s and runs the
/// check battery over their joint dependency graph.
pub struct Analyzer {
    peers: Vec<PeerModel>,
}

impl Analyzer {
    /// Analyzer over an explicit model set.
    pub fn new(peers: Vec<PeerModel>) -> Analyzer {
        Analyzer { peers }
    }

    /// Analyzer over snapshots of live peers.
    pub fn from_peers<'a>(peers: impl IntoIterator<Item = &'a Peer>) -> Analyzer {
        Analyzer::new(peers.into_iter().map(PeerModel::from_peer).collect())
    }

    /// The models under analysis.
    pub fn peers(&self) -> &[PeerModel] {
        &self.peers
    }

    /// Builds the cross-peer predicate dependency graph.
    pub fn graph(&self) -> DepGraph {
        DepGraph::build(&self.peers)
    }

    /// Runs every check and returns the combined report.
    pub fn analyze(&self) -> AnalysisReport {
        let graph = self.graph();
        let mut diagnostics = checks::safety(&self.peers);
        diagnostics.extend(checks::schema_conformance(&self.peers));
        diagnostics.extend(checks::stratification(&graph));
        let (deleg, delegation_depth) = checks::delegation(&graph);
        diagnostics.extend(deleg);
        diagnostics.extend(checks::reachability(&self.peers));
        diagnostics.sort_by_key(|d| {
            (
                std::cmp::Reverse(d.severity),
                d.rule_span
                    .map_or((usize::MAX, usize::MAX), |s| (s.line, s.col)),
                d.code.number(),
            )
        });
        AnalysisReport {
            diagnostics,
            delegation_depth,
        }
    }
}

/// [`ProgramCheck`] implementation backed by the whole-program analyzer,
/// applied to the installing peer's model extended with the batch.
///
/// Checking is single-peer here — cross-peer checks that need the *other*
/// peer's schema or grants simply see no model for it and stay silent, so
/// installation never rejects a program for facts it cannot know.
pub struct StaticChecker;

impl ProgramCheck for StaticChecker {
    fn check(&self, peer: &Peer, batch: &ProgramBatch) -> Vec<Diagnostic> {
        let mut model = PeerModel::from_peer(peer);
        for &(rel, arity, kind) in &batch.declarations {
            // Conflicting redeclarations are the installer's job to refuse;
            // analysis proceeds with the first shape it saw.
            let _ = model.schema.declare(rel, arity, kind);
        }
        for fact in &batch.facts {
            if !model.schema.is_declared(fact.rel) {
                let _ = model
                    .schema
                    .declare(fact.rel, fact.tuple.len(), RelationKind::Extensional);
            }
        }
        for (rule, span) in &batch.rules {
            model.rules.push(RuleInfo {
                rule: rule.clone(),
                span: *span,
                delegated_from: None,
            });
        }
        Analyzer::new(vec![model]).analyze().diagnostics
    }
}

/// Lifts a parsed program into peer models for offline analysis.
///
/// Declarations and facts carry their hosting peer explicitly. A rule's
/// owner is inferred the way the runtime would evaluate it: the peer of
/// its first concrete body literal; failing that, its concrete head peer;
/// failing that, the first constant peer appearing anywhere in the rule.
/// Returns the models plus any diagnostics raised while building them
/// (conflicting declarations, fact arity mismatches — both WDL006).
pub fn model_from_program(statements: &[SpannedStatement]) -> (Vec<PeerModel>, Vec<Diagnostic>) {
    let mut models: Vec<PeerModel> = Vec::new();
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    let mut diagnostics = Vec::new();
    let mut model_of = |name: Symbol, models: &mut Vec<PeerModel>| -> usize {
        *index.entry(name).or_insert_with(|| {
            models.push(PeerModel::new(name));
            models.len() - 1
        })
    };
    for st in statements {
        let span = Some(Span::new(st.line, st.col));
        match &st.statement {
            Statement::Declaration {
                rel,
                peer,
                arity,
                kind,
            } => {
                let mi = model_of(*peer, &mut models);
                if let Err(e) = models[mi].schema.declare(*rel, *arity, *kind) {
                    diagnostics.push(
                        Diagnostic::new(wdl_core::DiagCode::ArityMismatch, e.to_string())
                            .with_span(span),
                    );
                }
            }
            Statement::Fact(fact) => {
                let mi = model_of(fact.peer, &mut models);
                match models[mi].schema.get(fact.rel) {
                    Some(decl) if decl.arity != fact.tuple.len() => {
                        diagnostics.push(
                            Diagnostic::new(
                                wdl_core::DiagCode::ArityMismatch,
                                format!(
                                    "fact `{fact}` has arity {}, but {}@{} is declared with \
                                     arity {}",
                                    fact.tuple.len(),
                                    fact.rel,
                                    fact.peer,
                                    decl.arity
                                ),
                            )
                            .with_span(span),
                        );
                    }
                    Some(_) => {}
                    None => {
                        let arity = fact.tuple.len();
                        let _ =
                            models[mi]
                                .schema
                                .declare(fact.rel, arity, RelationKind::Extensional);
                    }
                }
            }
            Statement::Rule(rule) => {
                let owner = infer_owner(rule);
                let mi = model_of(owner, &mut models);
                models[mi].rules.push(RuleInfo {
                    rule: rule.clone(),
                    span,
                    delegated_from: None,
                });
            }
        }
    }
    (models, diagnostics)
}

/// Where would the runtime start evaluating this rule? See
/// [`model_from_program`] for the inference order.
fn infer_owner(rule: &WRule) -> Symbol {
    for item in &rule.body {
        if let wdl_core::WBodyItem::Literal(l) = item {
            if let Some(p) = l.atom.peer.as_name() {
                return p;
            }
        }
    }
    if let Some(p) = rule.head.peer.as_name() {
        return p;
    }
    rule.constant_peers()
        .first()
        .copied()
        .unwrap_or_else(|| Symbol::intern("?"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::DiagCode;
    use wdl_parser::parse_program_spanned;

    fn analyze(src: &str) -> AnalysisReport {
        let stmts = parse_program_spanned(src).unwrap();
        let (models, mut diags) = model_from_program(&stmts);
        let mut report = Analyzer::new(models).analyze();
        diags.append(&mut report.diagnostics);
        report.diagnostics = diags;
        report
    }

    #[test]
    fn clean_local_program_is_clean() {
        let report = analyze(
            "extensional w@p/1;\n\
             intensional v@p/1;\n\
             v@p($x) :- w@p($x);\n\
             w@p(1);",
        );
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.delegation_depth, Some(0));
    }

    #[test]
    fn delegation_chain_has_bounded_depth() {
        let report = analyze(
            "extensional w@p/1;\n\
             extensional u@q/1;\n\
             intensional v@p/1;\n\
             v@p($x) :- w@p($x), u@q($x);",
        );
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(report.delegation_depth, Some(1));
    }

    #[test]
    fn owner_inference_prefers_first_concrete_body_peer() {
        let rule = wdl_parser::parse_rule("v@q($x) :- w@p($x), u@$y($x);").unwrap();
        assert_eq!(infer_owner(&rule), Symbol::intern("p"));
        let head_only = wdl_parser::parse_rule("v@q($x) :- $x == 1;").unwrap();
        assert_eq!(infer_owner(&head_only), Symbol::intern("q"));
    }

    #[test]
    fn conflicting_declaration_is_reported() {
        let report = analyze("extensional w@p/1;\nextensional w@p/2;");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::ArityMismatch));
    }
}

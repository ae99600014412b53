//! Golden tests for the static analyzer: one deliberately-broken program
//! per diagnostic code, each asserting that *exactly* its code fires, plus
//! install-time rejection semantics (`Peer::install` must reject before
//! mutating anything).

use webdamlog::analyze::{model_from_program, Analyzer, StaticChecker};
use webdamlog::core::{DiagCode, Peer, ProgramBatch, RelationKind, Severity, Span, WdlError};
use webdamlog::parser::{parse_fact, parse_program_spanned, parse_rule};

/// Parses, models and analyzes a `.wdl` source, returning the diagnostic
/// codes that fired (deduplicated, in report order).
fn codes(src: &str) -> Vec<DiagCode> {
    let stmts = parse_program_spanned(src).expect("program must parse");
    let (models, build_diags) = model_from_program(&stmts);
    let report = Analyzer::new(models).analyze();
    let mut out = Vec::new();
    for d in build_diags.iter().chain(report.diagnostics.iter()) {
        if !out.contains(&d.code) {
            out.push(d.code);
        }
    }
    out
}

#[test]
fn wdl001_unbound_head_variable() {
    let src = "extensional w@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- w@p($y);";
    assert_eq!(codes(src), vec![DiagCode::UnboundHeadVar]);
}

#[test]
fn wdl002_unbound_negated_variable() {
    let src = "extensional w@p/1;\n\
               extensional u@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- w@p($x), not u@p($y);";
    assert_eq!(codes(src), vec![DiagCode::UnboundNegatedVar]);
}

#[test]
fn wdl003_unbound_name_variable() {
    let src = "extensional w@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- r@$q($x), w@p($x);";
    assert_eq!(codes(src), vec![DiagCode::UnboundNameVar]);
}

#[test]
fn wdl004_unstratifiable_negation() {
    let src = "extensional q@me/1;\n\
               intensional p@me/1;\n\
               intensional r@me/1;\n\
               p@me($x) :- q@me($x), not r@me($x);\n\
               r@me($x) :- q@me($x), not p@me($x);";
    assert_eq!(codes(src), vec![DiagCode::UnstratifiableNegation]);
}

#[test]
fn wdl005_unbounded_delegation() {
    // Two rules whose installs cross in both directions: p installs at q,
    // q installs at p — a cycle fed by two distinct rules.
    let src = "extensional tick@p/1;\n\
               extensional relay@q/1;\n\
               extensional tock@q/1;\n\
               extensional echo@p/1;\n\
               intensional ping@q/1;\n\
               intensional pong@p/1;\n\
               ping@q($x) :- tick@p($x), relay@q($x);\n\
               pong@p($x) :- tock@q($x), echo@p($x);";
    assert_eq!(codes(src), vec![DiagCode::UnboundedDelegation]);
}

#[test]
fn wdl006_arity_mismatch() {
    let src = "extensional r@p/2;\n\
               intensional v@p/1;\n\
               v@p($x) :- r@p($x);";
    assert_eq!(codes(src), vec![DiagCode::ArityMismatch]);
}

#[test]
fn wdl007_ungranted_write() {
    // Built from peer models directly: grants are not expressible in the
    // surface syntax.
    use webdamlog::analyze::PeerModel;
    let mut q = PeerModel::new("q");
    q.schema
        .declare("s".into(), 1, RelationKind::Extensional)
        .unwrap();
    q.acl.restrict_write("s");
    let mut p = PeerModel::new("p");
    p.schema
        .declare("w".into(), 1, RelationKind::Extensional)
        .unwrap();
    let p = p.with_rule(parse_rule("s@q($x) :- w@p($x);").unwrap());
    let report = Analyzer::new(vec![p, q]).analyze();
    let codes: Vec<DiagCode> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![DiagCode::UngrantedWrite]);

    // Granting the writer silences it.
    let mut q2 = PeerModel::new("q");
    q2.schema
        .declare("s".into(), 1, RelationKind::Extensional)
        .unwrap();
    q2.acl.restrict_write("s");
    q2.acl.grant_write("s", "p");
    let mut p2 = PeerModel::new("p");
    p2.schema
        .declare("w".into(), 1, RelationKind::Extensional)
        .unwrap();
    let p2 = p2.with_rule(parse_rule("s@q($x) :- w@p($x);").unwrap());
    assert!(Analyzer::new(vec![p2, q2]).analyze().is_clean());
}

#[test]
fn wdl008_dead_rule() {
    let src = "extensional w@p/1;\n\
               intensional d@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- d@p($x), w@p($x);";
    assert_eq!(codes(src), vec![DiagCode::DeadRule]);
}

#[test]
fn wdl009_unreachable_relation() {
    let src = "extensional w@p/1;\n\
               intensional orphan@p/1;\n\
               w@p(1);";
    assert_eq!(codes(src), vec![DiagCode::UnreachableRelation]);
}

#[test]
fn severities_split_as_documented() {
    for code in [
        DiagCode::UnboundHeadVar,
        DiagCode::UnboundNegatedVar,
        DiagCode::UnboundNameVar,
        DiagCode::UnstratifiableNegation,
        DiagCode::ArityMismatch,
        DiagCode::UngrantedWrite,
    ] {
        assert_eq!(code.severity(), Severity::Error, "{code:?}");
    }
    for code in [
        DiagCode::UnboundedDelegation,
        DiagCode::DeadRule,
        DiagCode::UnreachableRelation,
    ] {
        assert_eq!(code.severity(), Severity::Warning, "{code:?}");
    }
}

#[test]
fn diagnostics_carry_rule_spans() {
    let src = "extensional w@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- w@p($y);";
    let stmts = parse_program_spanned(src).unwrap();
    let (models, _) = model_from_program(&stmts);
    let report = Analyzer::new(models).analyze();
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule_span, Some(Span::new(3, 1)));
}

#[test]
fn install_rejects_before_any_mutation() {
    let mut peer = Peer::new("p");
    peer.declare("w", 1, RelationKind::Extensional).unwrap();
    let mut batch = ProgramBatch::new();
    batch.facts.push(parse_fact("w@p(1);").unwrap());
    batch
        .rules
        .push((parse_rule("v@p($x) :- w@p($y);").unwrap(), None));
    let err = peer.install(batch, &StaticChecker).unwrap_err();
    match err {
        WdlError::Rejected(diags) => {
            assert!(diags.iter().any(|d| d.code == DiagCode::UnboundHeadVar));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Nothing was applied: no rules, no facts.
    assert!(peer.rules().is_empty());
    assert!(peer.relation_facts("w").is_empty());
}

#[test]
fn install_applies_clean_batches_and_reports_warnings() {
    let mut peer = Peer::new("p");
    let mut batch = ProgramBatch::new();
    batch
        .declarations
        .push(("w".into(), 1, RelationKind::Extensional));
    batch
        .declarations
        .push(("v".into(), 1, RelationKind::Intensional));
    batch
        .declarations
        .push(("orphan".into(), 1, RelationKind::Intensional));
    batch
        .rules
        .push((parse_rule("v@p($x) :- w@p($x);").unwrap(), None));
    batch.facts.push(parse_fact("w@p(7);").unwrap());
    let report = peer.install(batch, &StaticChecker).unwrap();
    assert_eq!(report.declarations, 3);
    assert_eq!(report.rules.len(), 1);
    assert_eq!(report.facts, 1);
    // The orphan intensional declaration is a warning, not a rejection.
    assert!(report
        .warnings
        .iter()
        .any(|d| d.code == DiagCode::UnreachableRelation));
    assert_eq!(peer.relation_facts("w").len(), 1);
}

#[test]
fn load_program_checked_rejects_with_position() {
    use webdamlog::parser::{load_program_checked, LoadError};
    let mut peer = Peer::new("p");
    let src = "extensional w@p/1;\n\
               intensional v@p/1;\n\
               v@p($x) :- w@p($y);";
    let err = load_program_checked(&mut peer, src, &StaticChecker).unwrap_err();
    match err {
        LoadError::Engine(WdlError::Rejected(diags)) => {
            assert_eq!(diags[0].rule_span, Some(Span::new(3, 1)));
        }
        other => panic!("expected Engine(Rejected), got {other:?}"),
    }

    let clean = "extensional w@p/1;\n\
                 intensional v@p/1;\n\
                 v@p($x) :- w@p($x);\n\
                 w@p(1);";
    let report = load_program_checked(&mut peer, clean, &StaticChecker).unwrap();
    assert_eq!(report.rules.len(), 1);
    assert_eq!(report.facts, 1);
}

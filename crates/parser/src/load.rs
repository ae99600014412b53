//! Loading whole programs onto a peer.
//!
//! The demo's setup files and rule-editing pane boil down to "apply this
//! text to this peer": declarations declare, facts insert, rules install.
//! [`load_program_checked`] is the one way program text reaches a peer: it
//! parses, vets the program with a static checker and hands it to
//! [`Peer::install`], which applies it all or nothing.

use crate::{parse_program_spanned, ParseError, Statement};
use wdl_core::diag::{InstallReport, ProgramBatch, ProgramCheck, Span};
use wdl_core::{Peer, WdlError};

/// Errors from loading a program.
#[derive(Debug)]
pub enum LoadError {
    /// The text failed to parse.
    Parse(ParseError),
    /// [`Peer::install`] refused the program: the static checker reported
    /// an error ([`WdlError::Rejected`]) or engine validation failed
    /// (schema, [`wdl_core::WRule::validate`], ...).
    Engine(WdlError),
    /// A statement targets a different peer.
    WrongPeer {
        /// What the statement addressed.
        addressed: String,
        /// The peer being loaded.
        loading: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Engine(e) => write!(f, "{e}"),
            LoadError::WrongPeer { addressed, loading } => write!(
                f,
                "statement addresses peer `{addressed}` but is being loaded onto `{loading}`"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ParseError> for LoadError {
    fn from(e: ParseError) -> Self {
        LoadError::Parse(e)
    }
}

impl From<WdlError> for LoadError {
    fn from(e: WdlError) -> Self {
        LoadError::Engine(e)
    }
}

/// Parses `src` and installs it on `peer`:
///
/// * declarations must address `peer` and declare its relations;
/// * facts must address `peer` and insert into its extensional relations;
/// * rules install as the peer's own rules (their *head* may address any
///   peer — that is what distribution is for).
///
/// The whole program is parsed (keeping statement spans), packed into a
/// [`ProgramBatch`] and handed to [`Peer::install`]: any
/// `Severity::Error` diagnostic from `check` rejects the *entire* program
/// with [`WdlError::Rejected`], and an engine validation failure rejects it
/// too, before a single statement takes effect. Warnings come back in
/// [`InstallReport::warnings`]. Pass [`wdl_core::NoCheck`] to skip the
/// static checker and keep only the engine's own validation.
pub fn load_program_checked(
    peer: &mut Peer,
    src: &str,
    check: &dyn ProgramCheck,
) -> Result<InstallReport, LoadError> {
    let statements = parse_program_spanned(src)?;
    let mut batch = ProgramBatch::new();
    for st in statements {
        match st.statement {
            Statement::Declaration {
                rel,
                peer: at,
                arity,
                kind,
            } => {
                if at != peer.name() {
                    return Err(LoadError::WrongPeer {
                        addressed: at.to_string(),
                        loading: peer.name().to_string(),
                    });
                }
                batch.declarations.push((rel, arity, kind));
            }
            Statement::Fact(f) => {
                if f.peer != peer.name() {
                    return Err(LoadError::WrongPeer {
                        addressed: f.peer.to_string(),
                        loading: peer.name().to_string(),
                    });
                }
                batch.facts.push(f);
            }
            Statement::Rule(r) => {
                batch.rules.push((r, Some(Span::new(st.line, st.col))));
            }
        }
    }
    Ok(peer.install(batch, check)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{NoCheck, RelationKind};
    use wdl_datalog::Symbol;

    const PROGRAM: &str = r#"
        // Jules' Wepic setup
        extensional pictures@jules/4;
        extensional selectedAttendee@jules/1;
        intensional attendeePictures@jules/4;

        pictures@jules(1, "a.jpg", "jules", 0x01);
        pictures@jules(2, "b.jpg", "jules", 0x02);
        selectedAttendee@jules("emilien");

        attendeePictures@jules($id, $n, $o, $d) :-
            selectedAttendee@jules($a),
            pictures@$a($id, $n, $o, $d);
    "#;

    #[test]
    fn full_program_loads() {
        let mut p = Peer::new("jules");
        let report = load_program_checked(&mut p, PROGRAM, &NoCheck).unwrap();
        assert_eq!(report.declarations, 3);
        assert_eq!(report.facts, 3);
        assert_eq!(report.rules.len(), 1);
        assert_eq!(p.relation_facts("pictures").len(), 2);
        assert_eq!(
            p.schema().kind_of(Symbol::intern("attendeePictures")),
            Some(RelationKind::Intensional)
        );
        assert_eq!(p.rules().len(), 1);
    }

    #[test]
    fn wrong_peer_fact_rejected() {
        let mut p = Peer::new("jules");
        let err =
            load_program_checked(&mut p, "pictures@emilien(1, \"x\", \"e\", 0x00);", &NoCheck)
                .unwrap_err();
        assert!(matches!(err, LoadError::WrongPeer { .. }));
    }

    #[test]
    fn wrong_peer_declaration_rejected() {
        let mut p = Peer::new("jules");
        let err =
            load_program_checked(&mut p, "extensional pictures@emilien/4;", &NoCheck).unwrap_err();
        assert!(matches!(err, LoadError::WrongPeer { .. }));
    }

    #[test]
    fn remote_head_rule_is_fine() {
        // Distribution: the head addresses another peer.
        let mut p = Peer::new("jules");
        let report = load_program_checked(
            &mut p,
            "pictures@sigmod($x, $n, $o, $d) :- pictures@jules($x, $n, $o, $d);",
            &NoCheck,
        )
        .unwrap();
        assert_eq!(report.rules.len(), 1);
    }

    #[test]
    fn parse_errors_surface() {
        let mut p = Peer::new("jules");
        assert!(matches!(
            load_program_checked(&mut p, "this is not webdamlog", &NoCheck),
            Err(LoadError::Parse(_))
        ));
    }

    #[test]
    fn unsafe_rule_rejected_with_engine_error() {
        let mut p = Peer::new("jules");
        // head variable never bound
        let err =
            load_program_checked(&mut p, "v@jules($x) :- w@jules($y);", &NoCheck).unwrap_err();
        assert!(matches!(err, LoadError::Engine(_)));
    }

    #[test]
    fn duplicate_facts_not_double_counted() {
        let mut p = Peer::new("jules");
        let report = load_program_checked(&mut p, "r@jules(1);\nr@jules(1);", &NoCheck).unwrap();
        assert_eq!(report.facts, 1);
    }
}

//! # wdl-core — the WebdamLog language and peer engine
//!
//! This crate implements the primary contribution of *Rule-Based Application
//! Development using Webdamlog* (Abiteboul et al., SIGMOD 2013): a
//! datalog-style language for autonomous peers in which **both data and
//! rules move between peers**.
//!
//! The pieces, mapped to the paper:
//!
//! * **Facts** `m@p(a1, ..., an)` — [`WFact`]: a relation name *and a peer
//!   name* qualify every tuple.
//! * **Rules** `$R@$P($U) :- $R1@$P1($U1), ..., $Rn@$Pn($Un)` — [`WRule`]:
//!   relation and peer positions may hold *variables*, bound at runtime from
//!   ordinary data values. Bodies are evaluated **left to right**; the order
//!   matters (§2).
//! * **Distribution** — body atoms may live at remote peers.
//! * **Delegation** — the novel feature: when evaluation at peer `p` reaches
//!   the first non-local atom, the instantiated remainder of the rule is
//!   *installed as a rule at that atom's peer* ([`Delegation`]). Delegations
//!   are re-derived every stage and revoked when their supporting valuations
//!   disappear.
//! * **Stage loop** (§2) — [`Peer::run_stage`]: (1) ingest inputs received
//!   since the previous stage, (2) run a local fixpoint, (3) emit fact
//!   updates and delegations to other peers.
//! * **Control of delegation** (§3) — [`acl`]: delegations from untrusted
//!   peers are parked in a pending queue until the user approves them, the
//!   exact policy the demo shows ("each delegation sent by an untrusted peer
//!   will be pending in a queue until the user explicitly accepts it").
//!   The same per-peer policy carries relation read/write grants and
//!   declassified views (§2, "Access control").
//!
//! ## A taste (the paper's `attendeePictures` rule)
//!
//! ```
//! use wdl_core::{Peer, WRule, WAtom, NameTerm, runtime::LocalRuntime};
//! use wdl_core::RelationKind::{Extensional, Intensional};
//! use wdl_datalog::{Term, Value};
//!
//! let mut rt = LocalRuntime::new();
//! rt.add_peer(Peer::new("Jules")).unwrap();
//! rt.add_peer(Peer::new("Emilien")).unwrap();
//! // Peers trust each other for this example.
//! rt.peer_mut("Jules").unwrap().acl_mut().trust("Emilien");
//! rt.peer_mut("Emilien").unwrap().acl_mut().trust("Jules");
//!
//! let jules = rt.peer_mut("Jules").unwrap();
//! jules.declare("selectedAttendee", 1, Extensional).unwrap();
//! jules.declare("attendeePictures", 4, Intensional).unwrap();
//! // attendeePictures@Jules($id,$name,$owner,$data) :-
//! //     selectedAttendee@Jules($att), pictures@$att($id,$name,$owner,$data)
//! let rule = WRule::new(
//!     WAtom::new(
//!         NameTerm::name("attendeePictures"),
//!         NameTerm::name("Jules"),
//!         vec![Term::var("id"), Term::var("name"), Term::var("owner"), Term::var("data")],
//!     ),
//!     vec![
//!         WAtom::new(NameTerm::name("selectedAttendee"), NameTerm::name("Jules"),
//!                    vec![Term::var("att")]).into(),
//!         WAtom::new(NameTerm::name("pictures"), NameTerm::var("att"),
//!                    vec![Term::var("id"), Term::var("name"), Term::var("owner"), Term::var("data")]).into(),
//!     ],
//! );
//! jules.add_rule(rule).unwrap();
//! jules.insert_local("selectedAttendee", vec![Value::from("Emilien")]).unwrap();
//!
//! let emilien = rt.peer_mut("Emilien").unwrap();
//! emilien.declare("pictures", 4, Extensional).unwrap();
//! emilien.insert_local("pictures", vec![
//!     Value::from(32), Value::from("sea.jpg"), Value::from("Emilien"),
//!     Value::bytes(&[1, 0, 0]),
//! ]).unwrap();
//!
//! let report = rt.run_to_quiescence(32).unwrap();
//! assert!(report.quiescent);
//! let jules = rt.peer("Jules").unwrap();
//! assert_eq!(jules.relation_facts("attendeePictures").len(), 1);
//! // Emilien is now running one delegated rule on Jules' behalf.
//! assert_eq!(rt.peer("Emilien").unwrap().installed_delegations().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod acl;
mod atom;
mod delegation;
pub mod diag;
mod durability;
mod error;
mod fact;
mod maintain;
mod message;
mod peer;
mod rule;
pub mod runtime;
mod schema;
pub mod shard;
mod stage;
mod stage_plan;
mod trace;

pub use acl::{AccessControl, PendingDelegation};
pub use atom::{NameTerm, WAtom, WBodyItem, WLiteral};
pub use delegation::{Delegation, DelegationId};
pub use diag::{
    DiagCode, Diagnostic, InstallReport, NoCheck, ProgramBatch, ProgramCheck, Severity, Span,
};
pub use durability::DurabilitySink;
pub use error::{Result, WdlError};
pub use fact::{qualify, unqualify, WFact};
pub use message::{FactKind, Message, Payload};
pub use peer::{Peer, RuleEntry, RuleId};
pub use rule::{SafetyViolation, WRule};
pub use runtime::RoundReport;
pub use schema::{RelationDecl, RelationKind, Schema};
pub use shard::ShardedRuntime;
pub use stage::{StageOutput, StageStats};
// The observability layer's vocabulary, re-exported so embedders of the
// runtimes need not name `wdl-obs` themselves.
pub use wdl_obs::{Aggregator, BufferSink, CriticalPath, TraceEvent, TraceSink};

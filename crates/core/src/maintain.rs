//! Incremental materialization support for the peer stage loop.
//!
//! A peer's rule set splits into two layers:
//!
//! * **Compiled** rules — fully local, constant-name rules with an
//!   intensional local head. These translate directly into datalog rules
//!   over the peer's qualified store and are *maintained* across stages by
//!   a [`MaterializedView`] (counting + DRed, see
//!   `wdl_datalog::incremental`): a stage that ingests a deletion pays for
//!   the change, not for re-deriving the whole database.
//! * **Dynamic** rules — everything the datalog kernel cannot express
//!   statically: rules with remote atoms (they delegate), variable
//!   relation/peer names, extensional heads (buffered self-updates),
//!   remote heads (fact shipping), and all delegated rules (their reads
//!   are gated per-origin by the grants policy, which can change without
//!   notice). These are re-evaluated every stage by the classic walker in
//!   `stage.rs`, and their local derivations feed the view as *base facts
//!   with external support*, so the two layers can read each other's
//!   output: a compiled rule sees dynamic derivations as inputs, and a
//!   dynamic fact that is also derivable by a compiled rule simply carries
//!   support from both sides.
//!
//! The compiled layer is invalidated by anything that changes the
//! translation — rule add/remove/replace or a schema declaration — which
//! bumps [`crate::Peer::ruleset_epoch`]; the view is then rebuilt from
//! scratch at the next stage. Delegation churn does *not* invalidate it
//! (delegated rules are always dynamic), which matters because delegations
//! are re-derived every stage.
//!
//! Every peer has a view — it is the one stage fixpoint. A peer with no
//! compilable rule (a hub with no rules, a peer holding only delegations,
//! a peer whose rules all name remote or variable atoms) gets a view over
//! the empty program: it holds the peer's base, derives nothing, and all
//! of the peer's rules run in the dynamic layer.
//!
//! **Semantics note.** The compiled layer evaluates negation with proper
//! stratified semantics. The dynamic layer is a naive monotone loop, which
//! can over-derive when a rule negates an intensional relation that fills
//! in later rounds (facts are never retracted within a stage). The two
//! agree on stratified rule sets. When the compiled subset is
//! unstratifiable (or unsafe under the kernel's check), `Program::new`
//! rejects it and the peer gets the empty program, so the monotone loop's
//! (only well-defined) semantics apply to the whole peer — no peer mixes
//! the two.
//!
//! **Known cost bound.** The dynamic layer keeps the paper's soft-state
//! semantics by retracting the previous stage's dynamic derivations and
//! re-evaluating every dynamic rule each stage, so a stage costs
//! O(|change| + |dynamic-layer work|): pay-for-the-change is exact only
//! for peers whose rules all compile. The view itself only ever patches
//! the change — base updates, dynamic facts and the intensional snapshot
//! are applied differentially, never copied whole. Making the dynamic
//! share differential too would need per-source support counting inside
//! the view and is left for a future change.

use crate::{qualify, Peer, RelationKind, RuleId, WBodyItem, WRule};
use std::collections::HashSet;
use wdl_datalog::incremental::MaterializedView;
use wdl_datalog::optimize::{self, Cardinality};
use wdl_datalog::{Atom as DAtom, BodyItem as DItem, Database, Program, Rule as DRule, Symbol};

/// Live cardinality estimates for the join-order optimizer, read straight
/// off the peer: a qualified predicate counts its extensional store tuples,
/// the previous stage's derivation snapshot (intensional relations), and
/// maintained remote contributions. No clone — compilation happens only on
/// ruleset-epoch bumps, but the peer may be large.
struct LiveStats<'a> {
    peer: &'a Peer,
}

impl Cardinality for LiveStats<'_> {
    fn cardinality(&self, rel: Symbol) -> usize {
        let peer = self.peer;
        let mut n = peer.store.relation(rel).map_or(0, |r| r.len());
        n += peer.derived.relation(rel).map_or(0, |r| r.len());
        for (r, origins) in &peer.remote_contrib {
            if qualify(*r, peer.name) == rel {
                n += origins.values().map(|s| s.len()).sum::<usize>();
            }
        }
        n
    }
}

/// The maintained state of the compiled layer.
pub(crate) struct IncrementalState {
    /// The materialized view over the compiled program.
    pub(crate) view: MaterializedView,
    /// The ruleset epoch this state was compiled against.
    pub(crate) epoch: u64,
    /// Ids of the peer's own rules that the view maintains (the rest run
    /// dynamically; empty when the program is).
    pub(crate) compiled: HashSet<RuleId>,
}

/// Translates one WebdamLog rule into a kernel datalog rule, if it is
/// fully local: constant relation/peer names throughout, every atom at
/// `me`, and a head that is not extensional (extensional heads buffer
/// updates for the next stage — a side effect the view must not absorb).
pub(crate) fn compile_rule(rule: &WRule, me: Symbol, peer: &Peer) -> Option<DRule> {
    let head_rel = rule.head.rel.as_name()?;
    let head_peer = rule.head.peer.as_name()?;
    if head_peer != me {
        return None;
    }
    if peer.schema.kind_of(head_rel) == Some(RelationKind::Extensional) {
        return None;
    }
    let head = DAtom::new(qualify(head_rel, me), rule.head.args.clone());
    let mut body = Vec::with_capacity(rule.body.len());
    for item in &rule.body {
        match item {
            WBodyItem::Literal(l) => {
                let rel = l.atom.rel.as_name()?;
                let atom_peer = l.atom.peer.as_name()?;
                if atom_peer != me {
                    return None;
                }
                let datom = DAtom::new(qualify(rel, me), l.atom.args.clone());
                body.push(if l.negated {
                    DItem::not_atom(datom)
                } else {
                    DItem::atom(datom)
                });
            }
            WBodyItem::Cmp { op, lhs, rhs } => {
                body.push(DItem::cmp(*op, lhs.clone(), rhs.clone()));
            }
            WBodyItem::Assign { var, expr } => {
                body.push(DItem::assign(*var, expr.clone()));
            }
        }
    }
    Some(DRule::new(head, body))
}

/// Compiles the peer's own compilable rules into a stratified program.
/// When nothing compiles, or the compiled subset fails validation (unsafe
/// under the kernel's check, or unstratifiable), the result is the empty
/// program with an empty `compiled` set: every rule of the peer then runs
/// in the dynamic layer.
pub(crate) fn compile_local(peer: &Peer) -> crate::Result<(Program, HashSet<RuleId>)> {
    let mut rules = Vec::new();
    let mut compiled = HashSet::new();
    for entry in &peer.rules {
        if let Some(dr) = compile_rule(&entry.rule, peer.name, peer) {
            rules.push(dr);
            compiled.insert(entry.id);
        }
    }
    // Compiled bodies are fully local, so positive-atom joins commute and
    // the greedy join-order optimizer applies (WebdamLog body order only
    // carries meaning up to the delegation split, which these rules never
    // reach). Reorder against live cardinalities before validation.
    let rules = optimize::reorder_rules(&rules, &LiveStats { peer });
    let program = match Program::new(rules) {
        Ok(program) => program,
        Err(_) => {
            compiled.clear();
            Program::new(Vec::new())?
        }
    };
    // The peer's stage-level fixpoint cap bounds the compiled layer too —
    // set_fixpoint_limit must keep meaning what it says. The peer-level
    // engine toggle (`Peer::set_compiled_stage`) rides along: an
    // interpreted peer runs its maintained view on the interpreter too, so
    // the whole peer is one semantic reference.
    let config = wdl_datalog::EvalConfig::default().with_compiled(peer.compiled_stage);
    Ok((
        program
            .with_iteration_limit(peer.fixpoint_limit)
            .with_eval_config(config),
        compiled,
    ))
}

impl Peer {
    /// The view's base: the extensional store plus maintained remote
    /// contributions (dynamic-layer derivations are added as they are
    /// produced, stage by stage).
    pub(crate) fn current_base(&self) -> crate::Result<Database> {
        let mut base = self.store.clone();
        for (rel, origins) in &self.remote_contrib {
            let q = qualify(*rel, self.name);
            for tuples in origins.values() {
                for t in tuples {
                    base.insert_tuple(q, t.clone())?;
                }
            }
        }
        Ok(base)
    }

    /// Takes the maintained view out of the peer for this stage's
    /// fixpoint, rebuilding it first if the ruleset epoch moved (or nothing
    /// is materialized yet). The flag is `true` for a rebuilt view. The
    /// caller puts the state back when the stage succeeds; on an error it
    /// is dropped and the next stage rebuilds it.
    pub(crate) fn ensure_view(&mut self) -> crate::Result<(IncrementalState, bool)> {
        if let Some(state) = self.incr.take() {
            if state.epoch == self.ruleset_epoch {
                return Ok((state, false));
            }
        }
        // Rebuild from the current base: the base log is subsumed.
        self.prev_dynamic.clear();
        self.base_log.clear();
        let (program, compiled) = compile_local(self)?;
        let base = self.current_base()?;
        // A rebuild is where a freshly added rule does its first (and in
        // one-shot flows, only) round of derivation, so the construction
        // fixpoint must feed the trace like any maintenance pass would.
        let mut prof = (self.tracer.is_some() && !program.rules().is_empty())
            .then(wdl_datalog::profile::RuleProfile::new);
        let view = MaterializedView::new_profiled(program, base, prof.as_mut())?;
        if let (Some(mut p), Some(tr)) = (prof, self.tracer.as_mut()) {
            for (head, c) in p.drain() {
                tr.record(crate::TraceEvent::RuleEval {
                    peer: self.name,
                    stage: self.stage,
                    rule: head,
                    dur_ns: c.ns,
                    delta_in: c.delta_in,
                    derived: c.derived,
                });
            }
        }
        let state = IncrementalState {
            view,
            epoch: self.ruleset_epoch,
            compiled,
        };
        Ok((state, true))
    }
}

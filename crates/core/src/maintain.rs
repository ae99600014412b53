//! Incremental materialization support for the peer stage loop.
//!
//! A peer's rule set splits into two layers:
//!
//! * **Compiled** rules — fully local, constant-name rules with an
//!   intensional local head. These translate directly into datalog rules
//!   over the peer's qualified base and are *maintained* across stages by
//!   a [`MaterializedView`] (counting + DRed, see
//!   `wdl_datalog::incremental`): a stage that ingests a deletion pays for
//!   the change, not for re-deriving the whole database.
//! * **Dynamic** rules — everything the datalog kernel cannot express
//!   statically: rules with remote atoms (they delegate), variable
//!   relation/peer names, extensional heads (buffered self-updates),
//!   remote heads (fact shipping), and all delegated rules (their reads
//!   are gated per-origin by the access policy, which can change without
//!   notice). These are re-evaluated every stage by the classic walker in
//!   `stage.rs`, and their local derivations feed the view as *base facts
//!   with external support*, so the two layers can read each other's
//!   output: a compiled rule sees dynamic derivations as inputs, and a
//!   dynamic fact that is also derivable by a compiled rule simply carries
//!   support from both sides.
//!
//! The view's database is the peer's only database: base writes (local
//! inserts and deletes, ingested facts, remote contributions, buffered
//! self-updates, a replayed log tail) enter it at once through
//! `MaterializedView::write_base`, and the next stage maintains what they
//! imply. A checkpoint's relations are the one exception: they move in
//! whole, and the next stage rebuilds over them.
//!
//! The compiled layer is invalidated by anything that changes the
//! translation — rule add/remove/replace or a schema declaration — which
//! bumps `Peer::ruleset_epoch`; the view is then rebuilt from scratch at
//! the next stage, over the replaced view's extensional relations, moved
//! whole, plus the maintained remote contributions. A stage that fails
//! also bumps the epoch, since it may leave the view part-maintained.
//! Delegation churn does *not* invalidate it (delegated rules are always
//! dynamic), which matters because delegations are re-derived every stage.
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
//! the change — base writes and dynamic facts are maintained
//! differentially, and reads use the view in place. Only a rebuild
//! touches every derived row: it re-derives the intensional rows and
//! compares them with the replaced view's, while the extensional
//! relations move into the new view without a row being copied. Making
//! the dynamic share differential too would need per-source support
//! counting inside the view and is left for a future change.

use crate::{qualify, Peer, RelationKind, RuleId, WBodyItem, WRule};
use std::collections::{HashMap, HashSet};
use wdl_datalog::incremental::MaterializedView;
use wdl_datalog::optimize;
use wdl_datalog::{
    Atom as DAtom, BodyItem as DItem, Database, Fact, Program, Rule as DRule, Symbol,
};

/// The maintained state of the compiled layer. The default is a fresh
/// peer's: the empty program over the empty base, current at epoch 0.
#[derive(Default)]
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
    // reach). Reorder against live cardinalities before validation: the
    // row counts in the current view (extensional facts, remote
    // contributions and the last stage's derivations), read in place.
    let rules = optimize::reorder_rules(&rules, peer.incr.view.database());
    let program = match Program::new(rules) {
        Ok(program) => program,
        Err(_) => {
            compiled.clear();
            Program::new(Vec::new())?
        }
    };
    // The stage-level fixpoint cap (`stage::FIXPOINT_LIMIT`) bounds the
    // compiled layer too. The peer-level engine toggle
    // (`Peer::set_compiled_stage`) rides along: an interpreted peer runs
    // its maintained view on the interpreter too, so the whole stage is one
    // semantic reference.
    let config = wdl_datalog::EvalConfig::default().with_compiled(peer.compiled_stage);
    Ok((
        program
            .with_iteration_limit(crate::stage::FIXPOINT_LIMIT)
            .with_eval_config(config),
        compiled,
    ))
}

impl Peer {
    /// Rebuilds the maintained view if the ruleset epoch moved, and
    /// returns the stage's net change map seeded with what the rebuild
    /// changed in the declared intensional relations `intensional`: −1
    /// for a row only the replaced view holds, +1 for a row only the new
    /// one holds (empty when nothing was rebuilt). The new view's base is
    /// the declared extensional relations, moved out of the replaced view
    /// whole (their cached indexes stay behind, as a copy would drop
    /// them), plus the maintained remote contributions; the stage re-adds
    /// dynamic-layer derivations. A failed rebuild moves the relations
    /// back, so it keeps the replaced view as it was.
    pub(crate) fn ensure_view(
        &mut self,
        intensional: &HashSet<Symbol>,
    ) -> crate::Result<HashMap<Fact, i8>> {
        let mut net = HashMap::new();
        if self.incr.epoch == self.ruleset_epoch {
            return Ok(net);
        }
        let (program, compiled) = compile_local(self)?;
        let mut base = Database::new();
        for (rel, origins) in &self.remote_contrib {
            let q = qualify(*rel, self.name);
            for tuples in origins.values() {
                for t in tuples {
                    base.insert_tuple(q, t.clone())?;
                }
            }
        }
        // Remote contributions feed intensional relations only, so the
        // extensional ones move in beside them without a merge.
        let mut moved = Vec::new();
        let extensional = self
            .schema
            .iter()
            .filter(|d| d.kind == RelationKind::Extensional);
        for decl in extensional {
            let q = qualify(decl.rel, self.name);
            if let Some(rel) = self.incr.view.take_base_relation(q) {
                base.put_relation(q, rel);
                moved.push(q);
            }
        }
        // A rebuild is where a freshly added rule does its first (and in
        // one-shot flows, only) round of derivation, so the construction
        // fixpoint must feed the trace like any maintenance pass would.
        let mut prof = (self.tracer.is_some() && !program.rules().is_empty())
            .then(wdl_datalog::profile::RuleProfile::new);
        let view = match MaterializedView::new_profiled(program, base, prof.as_mut()) {
            Ok(view) => view,
            Err((e, mut base)) => {
                // The compiled program never derives an extensional
                // relation, so each comes back as it went in.
                for q in moved {
                    if let Some(rel) = base.take_relation(q) {
                        self.incr.view.put_base_relation(q, rel);
                    }
                }
                return Err(e.into());
            }
        };
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
        let old = &self.incr.view;
        for &q in intensional {
            let (before, after) = (old.database().relation(q), view.database().relation(q));
            for (from, to, sign) in [(before, after, -1), (after, before, 1)] {
                for tuple in from.iter().flat_map(|r| r.iter()) {
                    if !to.is_some_and(|r| r.contains(&tuple)) {
                        net.insert(Fact { pred: q, tuple }, sign);
                    }
                }
            }
        }
        // The new base holds no dynamic-layer derivation to retract.
        self.prev_dynamic.clear();
        self.incr = IncrementalState {
            view,
            epoch: self.ruleset_epoch,
            compiled,
        };
        Ok(net)
    }
}

//! The WebdamLog computation stage (paper §2):
//!
//! > "A computation stage of the WebdamLog engine is broken down into three
//! > steps. First, the peer loads the inputs received from the remote peers
//! > since the previous stage. Second, the peer runs a fixpoint computation
//! > of its program. Third, the peer sends facts (updates) and rules
//! > (delegations) to other peers."
//!
//! The fixpoint runs on the peer's maintained view (see `maintain.rs`):
//! compiled fully local rules are maintained differentially, and every
//! other rule — own and delegated — is evaluated left to right over it.
//! When evaluation reaches the first non-local atom, the instantiated
//! remainder becomes a [`Delegation`] to that atom's peer. Delegations and
//! remote fact batches are *diffed* against the previous stage so that
//! retractions propagate (install/revoke, add/retract).

use crate::stage_plan::{classify, CompiledRule, Cut, HeadPlan, NameSrc, PlanKey, StagePlans};
use crate::{
    qualify, Delegation, DelegationDecision, DelegationId, FactKind, Message, Payload, Peer,
    RelationKind, Result, WBodyItem, WFact, WRule, WdlError,
};
use std::collections::{HashMap, HashSet};
use wdl_datalog::intern::ValueId;
use wdl_datalog::{eval, Atom as DAtom, Database, Fact as DFact, Subst, Symbol};
use wdl_obs::TraceEvent;

/// Counters describing one stage, for observability and the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Stage number (1-based after the first call).
    pub stage: u64,
    /// Messages ingested in step 1.
    pub ingested_messages: usize,
    /// Buffered extensional self-updates applied at the start of step 2.
    pub applied_updates: usize,
    /// Rounds of the local fixpoint.
    pub fixpoint_rounds: usize,
    /// Head instantiations fired.
    pub derivations: usize,
    /// Facts carried by outgoing messages.
    pub facts_out: usize,
    /// New delegations emitted.
    pub delegations_out: usize,
    /// Delegation revocations emitted.
    pub revocations_out: usize,
    /// Updates rejected during ingestion (schema or ACL violations).
    pub rejected: usize,
    /// Reads by delegated rules blocked by relation grants (the
    /// provenance-derived view policy of the paper's access-control
    /// sketch).
    pub reads_blocked: usize,
}

/// The result of one stage: outgoing messages plus stats.
#[derive(Clone, Debug, Default)]
pub struct StageOutput {
    /// Messages for other peers (the runtime or transport routes them).
    pub messages: Vec<Message>,
    /// Stage counters.
    pub stats: StageStats,
    /// Whether anything observable changed (used for quiescence detection).
    pub changed: bool,
}

/// Everything a fixpoint pass emits besides local intensional facts.
#[derive(Default)]
struct Outcome {
    delegations: HashMap<DelegationId, Delegation>,
    remote_facts: HashMap<Symbol, HashSet<WFact>>,
    local_ext: HashSet<WFact>,
    derivations: usize,
    reads_blocked: usize,
    /// Distinct local facts the dynamic layer derived this stage — feeds
    /// the peer's cumulative `facts_derived` counter. A fact counts (and
    /// costs one more round) even when a remote contribution already
    /// holds it, since the dynamic layer must record its own support.
    local_new: usize,
}

/// Evaluation context threaded through rule walking: who the rule runs for
/// and what that origin may read here.
struct EvalCtx<'a> {
    peer: Symbol,
    schema: &'a crate::Schema,
    grants: &'a crate::RelationGrants,
    /// Static relation-level provenance of local views (for the default
    /// view read policy).
    view_bases: &'a HashMap<Symbol, HashSet<Symbol>>,
    /// `Some(origin)` when evaluating a delegated rule on `origin`'s
    /// behalf; `None` for the peer's own rules (the owner reads freely).
    origin: Option<Symbol>,
}

impl Peer {
    /// Runs one computation stage; see the module documentation.
    pub fn run_stage(&mut self) -> Result<StageOutput> {
        self.stage += 1;
        let mut stats = StageStats {
            stage: self.stage,
            ..StageStats::default()
        };
        // Tracing hooks pay one branch when no sink is installed — no
        // clock reads, no allocations (pinned by `trace_alloc`).
        let t_stage = self.tracer.as_ref().map(|_| std::time::Instant::now());
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(TraceEvent::StageBegin {
                peer: self.name,
                stage: self.stage,
            });
        }

        // ---- Step 1: load inputs received since the previous stage.
        let inbox = std::mem::take(&mut self.inbox);
        stats.ingested_messages = inbox.len();
        let mut base_changed = false;
        for msg in inbox {
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(TraceEvent::MsgDeliver {
                    from: msg.from,
                    to: self.name,
                    to_stage: self.stage,
                    items: msg.payload.item_count() as u64,
                });
            }
            self.ingest(msg, &mut stats, &mut base_changed)?;
        }

        // Apply extensional self-updates buffered by the previous stage's
        // rule heads ("insertions are applied at the following stage").
        let pending = std::mem::take(&mut self.pending_updates);
        for fact in pending {
            self.ensure_extensional(fact.rel, fact.arity())?;
            if self.write_base(fact.rel, fact.tuple, true)? {
                stats.applied_updates += 1;
                base_changed = true;
            }
        }

        // ---- Step 2: local fixpoint — the maintained view of the compiled
        // (fully local) rules plus the dynamic layer over it. See
        // `maintain.rs` for the split. A failure may leave the view
        // part-maintained, so it moves the ruleset epoch: the next stage
        // rebuilds the view from its base.
        let (outcome, rounds, derived_changed) = self
            .fixpoint_incremental()
            .inspect_err(|_| self.ruleset_epoch += 1)?;
        stats.fixpoint_rounds = rounds;
        stats.derivations = outcome.derivations;
        stats.reads_blocked = outcome.reads_blocked;

        // Delegation churn does not bump the plan-cache epochs; drop plans
        // whose delegations are gone so the cache cannot grow unboundedly.
        self.stage_plans.retain_delegations(&self.delegated);

        // ---- Step 3: emit facts and rules.
        let mut messages = std::mem::take(&mut self.outbox_explicit);

        // Buffer extensional self-updates for the next stage.
        let mut self_updates = 0usize;
        for fact in &outcome.local_ext {
            if !self
                .incr
                .view
                .base_relation(fact.qualified())
                .is_some_and(|r| r.contains(&fact.tuple))
            {
                self.pending_updates.push(fact.clone());
                self_updates += 1;
            }
        }

        // Delegation diff: install new, revoke vanished.
        let mut installs: HashMap<Symbol, Vec<Delegation>> = HashMap::new();
        let mut revokes: HashMap<Symbol, Vec<DelegationId>> = HashMap::new();
        for (id, d) in &outcome.delegations {
            if !self.prev_delegations.contains_key(id) {
                installs.entry(d.target).or_default().push(d.clone());
            }
        }
        for (id, d) in &self.prev_delegations {
            if !outcome.delegations.contains_key(id) {
                revokes.entry(d.target).or_default().push(*id);
            }
        }
        // Emit per-target messages in sorted target order: hash-map
        // iteration order varies per map instance, and a stage's message
        // order must be a deterministic function of peer state so that
        // seeded simulation runs replay exactly (`tests/sim_conformance`).
        let mut installs: Vec<(Symbol, Vec<Delegation>)> = installs.into_iter().collect();
        installs.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        for (target, ds) in installs {
            stats.delegations_out += ds.len();
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(TraceEvent::DelegationInstall {
                    origin: self.name,
                    target,
                    from_stage: self.stage,
                    count: ds.len() as u64,
                });
            }
            messages.push(Message::new(self.name, target, Payload::Delegate(ds)));
        }
        let mut revokes: Vec<(Symbol, Vec<DelegationId>)> = revokes.into_iter().collect();
        revokes.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        for (target, ids) in revokes {
            stats.revocations_out += ids.len();
            if let Some(tr) = self.tracer.as_mut() {
                tr.record(TraceEvent::DelegationRevoke {
                    origin: self.name,
                    target,
                    from_stage: self.stage,
                    count: ids.len() as u64,
                });
            }
            messages.push(Message::new(self.name, target, Payload::Revoke(ids)));
        }
        self.prev_delegations = outcome.delegations;

        // Remote fact diff per target.
        let targets: HashSet<Symbol> = outcome
            .remote_facts
            .keys()
            .chain(self.prev_sent.keys())
            .copied()
            .collect();
        let mut targets: Vec<Symbol> = targets.into_iter().collect();
        targets.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        let empty = HashSet::new();
        for target in targets {
            let cur = outcome.remote_facts.get(&target).unwrap_or(&empty);
            let prev = self.prev_sent.get(&target).unwrap_or(&empty);
            let additions: Vec<WFact> = cur.difference(prev).cloned().collect();
            let retractions: Vec<WFact> = prev.difference(cur).cloned().collect();
            if !additions.is_empty() || !retractions.is_empty() {
                stats.facts_out += additions.len() + retractions.len();
                messages.push(Message::new(
                    self.name,
                    target,
                    Payload::Facts {
                        kind: FactKind::Derived,
                        additions,
                        retractions,
                    },
                ));
            }
        }
        self.prev_sent = outcome.remote_facts;

        let changed = stats.ingested_messages > 0
            || stats.applied_updates > 0
            || base_changed
            || derived_changed
            || self_updates > 0
            || !messages.is_empty();

        if let Some(tr) = self.tracer.as_mut() {
            for msg in &messages {
                tr.record(TraceEvent::MsgSend {
                    from: self.name,
                    from_stage: self.stage,
                    to: msg.to,
                    items: msg.payload.item_count() as u64,
                });
            }
            if stats.reads_blocked > 0 {
                tr.record(TraceEvent::BlockedReads {
                    peer: self.name,
                    stage: self.stage,
                    count: stats.reads_blocked as u64,
                });
            }
            if let Some(t0) = t_stage {
                tr.record(TraceEvent::StageEnd {
                    peer: self.name,
                    stage: self.stage,
                    dur_ns: t0.elapsed().as_nanos() as u64,
                    derivations: stats.derivations as u64,
                    rounds: stats.fixpoint_rounds as u64,
                    msgs_in: stats.ingested_messages as u64,
                });
            }
        }
        self.last_stats = stats;
        self.cum_eval.iterations += stats.fixpoint_rounds;
        self.cum_eval.derivations += stats.derivations;
        self.cum_eval.facts_derived += outcome.local_new;

        // Group commit: everything this stage changed becomes durable
        // before its messages are handed to the transport, so a peer never
        // tells the world about state it could lose in a crash.
        self.sync_durability()?;

        Ok(StageOutput {
            messages,
            stats,
            changed,
        })
    }

    /// The stage fixpoint: the compiled rules' materialization is
    /// *maintained* under the base writes made since the previous stage,
    /// and only the dynamic rules (delegations, remote atoms, variable
    /// names, extensional heads — every rule, for a peer whose program is
    /// empty) are re-evaluated — their local derivations feed the view as
    /// base facts with external support, and derivations that stop
    /// holding are retracted through the view at the start of the next
    /// stage (per-stage soft state, as in the paper).
    ///
    /// The flag is whether a declared intensional relation changed.
    fn fixpoint_incremental(&mut self) -> Result<(Outcome, usize, bool)> {
        use wdl_datalog::incremental::{Delta, MaterializedView};

        // Net membership changes of the intensional relations this stage:
        // +1 appeared, -1 disappeared (never beyond ±1 after netting). A
        // rebuild seeds it with what the rebuild changed.
        let intensional: HashSet<Symbol> = self
            .schema
            .iter()
            .filter(|d| d.kind == RelationKind::Intensional)
            .map(|d| qualify(d.rel, self.name))
            .collect();
        let mut net = self.ensure_view(&intensional)?;
        // When traced, the view's differential maintenance records
        // per-rule costs here; they become `RuleEval` events below. An
        // empty program has no rules to profile.
        let mut view_prof = (self.tracer.is_some() && !self.incr.view.program().rules().is_empty())
            .then(wdl_datalog::profile::RuleProfile::new);
        let mut apply = |view: &mut MaterializedView, delta: &Delta| -> Result<()> {
            let out = view.apply_profiled(delta, view_prof.as_mut())?;
            let signed = out
                .inserts
                .into_iter()
                .map(|f| (f, 1))
                .chain(out.deletes.into_iter().map(|f| (f, -1)));
            for (f, sign) in signed {
                if !intensional.contains(&f.pred) {
                    continue;
                }
                match net.entry(f) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        *e.get_mut() += sign;
                        if *e.get() == 0 {
                            e.remove();
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(sign);
                    }
                }
            }
            Ok(())
        };

        // The base writes since the last stage are pending in the view;
        // maintain them together with the retraction of the previous
        // stage's dynamic-layer derivations (soft state: what the dynamic
        // rules still support gets re-added below).
        //
        // The view's base is a set, so a fact can carry external support
        // from *two* sources at once: the dynamic layer and a maintained
        // remote contribution. Retract the dynamic share only when no
        // contribution still stands, otherwise the fact (and everything
        // compiled on top of it) would vanish while a remote peer still
        // asserts it.
        let mut delta = Delta::new();
        let prev_dynamic = std::mem::take(&mut self.prev_dynamic);
        let contrib_by_pred: HashMap<Symbol, _> = self
            .remote_contrib
            .iter()
            .map(|(rel, origins)| (qualify(*rel, self.name), origins))
            .collect();
        for fact in prev_dynamic {
            let contributed = contrib_by_pred
                .get(&fact.pred)
                .is_some_and(|origins| origins.values().any(|s| s.contains(&fact.tuple)));
            if !contributed {
                delta.delete(fact);
            }
        }
        apply(&mut self.incr.view, &delta)?;

        // Dynamic layer: evaluate non-compiled rules against the
        // materialization until no new local facts appear; each round's
        // fresh facts are folded into the view (so compiled rules react to
        // them) before the next round.
        let view_bases = crate::grants::view_base_relations(
            self.name,
            self.rules.iter().map(|e| e.rule.clone()),
        );
        let mut plans = std::mem::take(&mut self.stage_plans);
        plans.ensure_epoch(self.ruleset_epoch, self.grants_epoch);
        let use_plans = self.compiled_stage;

        let mut outcome = Outcome::default();
        let mut dyn_cur: HashSet<DFact> = HashSet::new();
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            if rounds > self.fixpoint_limit {
                return Err(WdlError::Datalog(
                    wdl_datalog::DatalogError::IterationLimit(self.fixpoint_limit),
                ));
            }
            let mut new_local: Vec<DFact> = Vec::new();
            let own = self
                .rules
                .iter()
                .filter(|e| !self.incr.compiled.contains(&e.id))
                .map(|e| {
                    (
                        &e.rule,
                        None,
                        use_plans.then_some(PlanKey::Own(e.id)),
                        PlanKey::Own(e.id),
                    )
                });
            let delegated = self.delegated.iter().map(|d| {
                (
                    &d.rule,
                    Some(d.origin),
                    use_plans.then_some(PlanKey::Delegated(d.id)),
                    PlanKey::Delegated(d.id),
                )
            });
            for (rule, origin, key, trace_key) in own.chain(delegated) {
                let ctx = EvalCtx {
                    peer: self.name,
                    schema: &self.schema,
                    grants: &self.grants,
                    view_bases: &view_bases,
                    origin,
                };
                let t0 = self.tracer.as_ref().map(|_| std::time::Instant::now());
                let d0 = outcome.derivations;
                eval_rule(
                    &ctx,
                    self.incr.view.database(),
                    rule,
                    key,
                    &mut plans,
                    &mut outcome,
                    &mut new_local,
                )?;
                if let (Some(tr), Some(t0)) = (self.tracer.as_mut(), t0) {
                    let label = tr.rule_label(trace_key, self.name, rule);
                    tr.record(TraceEvent::RuleEval {
                        peer: self.name,
                        stage: self.stage,
                        rule: label,
                        dur_ns: t0.elapsed().as_nanos() as u64,
                        delta_in: 0,
                        derived: (outcome.derivations - d0) as u64,
                    });
                }
            }
            let fresh: Vec<DFact> = new_local
                .into_iter()
                .filter(|f| dyn_cur.insert(f.clone()))
                .collect();
            if fresh.is_empty() {
                break;
            }
            outcome.local_new += fresh.len();
            let mut d = Delta::new();
            for f in fresh {
                d.insert(f);
            }
            apply(&mut self.incr.view, &d)?;
        }
        self.stage_plans = plans;
        self.prev_dynamic = dyn_cur;
        // Fold the view layer's per-rule maintenance costs into the
        // trace, labelled by the maintained head predicate.
        if let (Some(mut prof), Some(tr)) = (view_prof.take(), self.tracer.as_mut()) {
            for (head, c) in prof.drain() {
                tr.record(TraceEvent::RuleEval {
                    peer: self.name,
                    stage: self.stage,
                    rule: head,
                    dur_ns: c.ns,
                    delta_in: c.delta_in,
                    derived: c.derived,
                });
            }
        }

        Ok((outcome, rounds, !net.is_empty()))
    }

    fn ingest(
        &mut self,
        msg: Message,
        stats: &mut StageStats,
        base_changed: &mut bool,
    ) -> Result<()> {
        match msg.payload {
            Payload::Facts {
                kind,
                additions,
                retractions,
            } => {
                for fact in additions {
                    if fact.peer != self.name {
                        stats.rejected += 1;
                        continue;
                    }
                    if !self.grants.can_write(fact.rel, msg.from) {
                        stats.rejected += 1;
                        continue;
                    }
                    match (kind, self.local_kind_or_declare(&fact)?) {
                        (_, RelationKind::Extensional) => {
                            if self.write_base(fact.rel, fact.tuple, true)? {
                                *base_changed = true;
                            }
                        }
                        (FactKind::Derived, RelationKind::Intensional) => {
                            let entry = self
                                .remote_contrib
                                .entry(fact.rel)
                                .or_default()
                                .entry(msg.from)
                                .or_default();
                            if entry.insert(fact.tuple.clone()) {
                                *base_changed = true;
                                self.write_base(fact.rel, fact.tuple, true)?;
                            }
                        }
                        (FactKind::Persistent, RelationKind::Intensional) => {
                            // Explicit updates may not write views.
                            stats.rejected += 1;
                        }
                    }
                }
                for fact in retractions {
                    if fact.peer != self.name {
                        stats.rejected += 1;
                        continue;
                    }
                    if !self.grants.can_write(fact.rel, msg.from) {
                        stats.rejected += 1;
                        continue;
                    }
                    #[allow(clippy::collapsible_match)]
                    match (kind, self.schema.kind_of(fact.rel)) {
                        (FactKind::Persistent, Some(RelationKind::Extensional)) => {
                            if self.write_base(fact.rel, fact.tuple, false)? {
                                *base_changed = true;
                            }
                        }
                        (FactKind::Derived, Some(RelationKind::Intensional)) => {
                            let Some(origins) = self.remote_contrib.get_mut(&fact.rel) else {
                                continue;
                            };
                            if !origins
                                .get_mut(&msg.from)
                                .is_some_and(|set| set.remove(&fact.tuple))
                            {
                                continue;
                            }
                            *base_changed = true;
                            // The base fact stands while *any* origin still
                            // contributes it.
                            if !origins.values().any(|s| s.contains(&fact.tuple)) {
                                self.write_base(fact.rel, fact.tuple, false)?;
                            }
                        }
                        // Derived retractions against extensional relations
                        // are ignored: derivations into stored relations are
                        // monotone insertion updates (PODS'11 semantics).
                        _ => {}
                    }
                }
            }
            Payload::Delegate(ds) => {
                for d in ds {
                    if d.target != self.name || d.origin != msg.from {
                        stats.rejected += 1;
                        continue;
                    }
                    if d.rule.check_safety().is_err() {
                        stats.rejected += 1;
                        continue;
                    }
                    match self.acl.decide(d.origin) {
                        DelegationDecision::Install => self.install_delegation(d),
                        DelegationDecision::Queue => self.acl.push_pending(d, self.stage),
                        DelegationDecision::Reject => stats.rejected += 1,
                    }
                }
            }
            Payload::Revoke(ids) => {
                for id in ids {
                    let removed = self.remove_delegation(id);
                    let dropped = self.acl.drop_pending(id);
                    if !removed && !dropped {
                        stats.rejected += 1;
                    }
                }
            }
            // Session frames are transport-internal: a session endpoint
            // consumes them before the app layer, so one reaching the
            // stage loop means the peer runs without sessions against a
            // sessioned correspondent. Drop it — the sub-protocol
            // carries no application state.
            Payload::Session(_) => {
                stats.rejected += 1;
            }
        }
        Ok(())
    }

    fn local_kind_or_declare(&mut self, fact: &WFact) -> Result<RelationKind> {
        match self.schema.kind_of(fact.rel) {
            Some(k) => Ok(k),
            None => {
                // Open world: unknown relations materialize as extensional
                // ("peers may discover ... new relations", §2).
                self.declare(fact.rel, fact.arity(), RelationKind::Extensional)?;
                Ok(RelationKind::Extensional)
            }
        }
    }
}

/// Evaluates one rule over `working`.
///
/// With `key` set (compiled stage evaluation), the rule's classified plan
/// is fetched from — or compiled into — `plans`, the local prefix runs as
/// a register-file plan, and the cut action fires heads / counts blocked
/// reads / emits delegations from the yielded registers (see
/// `stage_plan.rs`). With `key == None`, the `Subst` reference interpreter
/// ([`walk`]) evaluates the whole rule: local positive atoms join through
/// the datalog matcher and the first non-local atom turns the remainder
/// into a delegation. When the rule is a delegation (`ctx.origin` set),
/// every local relation it reads is gated by the owner's relation grants
/// under the provenance-derived view policy — hoisted to classification
/// time on the compiled path, checked per literal visit by the
/// interpreter; both count the same blocked reads.
fn eval_rule(
    ctx: &EvalCtx<'_>,
    working: &Database,
    rule: &WRule,
    key: Option<PlanKey>,
    plans: &mut StagePlans,
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) -> Result<()> {
    let Some(key) = key else {
        return walk(ctx, working, rule, 0, Subst::new(), outcome, new_local);
    };
    let StagePlans {
        own,
        delegated,
        scratch,
        ..
    } = plans;
    let srp = match key {
        PlanKey::Own(id) => own
            .entry(id)
            .or_insert_with(|| classify(rule, ctx.peer, ctx.origin, ctx.grants, ctx.view_bases)),
        PlanKey::Delegated(id) => delegated
            .entry(id)
            .or_insert_with(|| classify(rule, ctx.peer, ctx.origin, ctx.grants, ctx.view_bases)),
    };
    match srp {
        crate::stage_plan::StageRulePlan::Interpreted => {
            walk(ctx, working, rule, 0, Subst::new(), outcome, new_local)
        }
        crate::stage_plan::StageRulePlan::Compiled(c) => {
            run_compiled(ctx, working, rule, c, scratch, outcome, new_local)
        }
    }
}

/// Runs a compiled prefix plan, tunneling stage-layer errors through the
/// datalog executor's error channel (the emit callback aborts the walk
/// with a sentinel; the real error is returned to the caller).
fn run_prefix(
    plan: &wdl_datalog::eval::BodyPlan,
    working: &Database,
    scratch: &mut wdl_datalog::eval::BodyScratch,
    emit: &mut dyn FnMut(&[ValueId]) -> Result<()>,
) -> Result<()> {
    const ABORT: usize = usize::MAX - 1;
    let mut werr: Option<WdlError> = None;
    let r = plan.run(working, scratch, &[], &mut |regs| match emit(regs) {
        Ok(()) => Ok(()),
        Err(e) => {
            werr = Some(e);
            Err(wdl_datalog::DatalogError::IterationLimit(ABORT))
        }
    });
    if let Some(e) = werr {
        return Err(e);
    }
    r.map_err(WdlError::from)
}

/// Executes one classified rule: prefix plan, then the cut action per
/// yielded register file.
fn run_compiled(
    ctx: &EvalCtx<'_>,
    working: &Database,
    rule: &WRule,
    c: &CompiledRule,
    scratch: &mut wdl_datalog::eval::BodyScratch,
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) -> Result<()> {
    match &c.cut {
        Cut::Head(h) => run_prefix(&c.plan, working, scratch, &mut |regs| {
            fire_head_from_regs(ctx, h, regs, outcome, new_local)
        }),
        Cut::Blocked => run_prefix(&c.plan, working, scratch, &mut |_regs| {
            outcome.reads_blocked += 1;
            Ok(())
        }),
        Cut::Delegate { idx, live } => {
            // Identical projections of the live registers instantiate
            // identical remainders (and hence identical content-addressed
            // delegations): dedup before paying for instantiation. The
            // continuation emits no counters, so dedup is exactly
            // semantics-preserving.
            let mut seen: HashSet<Box<[ValueId]>> = HashSet::new();
            run_prefix(&c.plan, working, scratch, &mut |regs| {
                if seen.insert(CompiledRule::live_key(live, regs)) {
                    let subst = CompiledRule::live_subst(live, regs);
                    walk(ctx, working, rule, *idx, subst, outcome, new_local)?;
                }
                Ok(())
            })
        }
        Cut::Resume { idx, live } => run_prefix(&c.plan, working, scratch, &mut |regs| {
            // No dedup: the interpreter continuation may fire heads and
            // count per-binding, and parity requires one continuation per
            // yielded binding.
            let subst = CompiledRule::live_subst(live, regs);
            walk(ctx, working, rule, *idx, subst, outcome, new_local)
        }),
    }
}

/// Resolves a head-position name from the register file, with the same
/// string-typing rule (and error text) as [`crate::NameTerm::resolve`].
fn resolve_name_src(src: &NameSrc, regs: &[ValueId]) -> Result<Symbol> {
    match src {
        NameSrc::Const(s) => Ok(*s),
        NameSrc::Reg(r, var) => match regs[*r as usize].value() {
            wdl_datalog::Value::Str(s) => Ok(Symbol::intern(&s)),
            other => Err(WdlError::BadNameBinding(format!(
                "variable ${var} used as a name is bound to {other} (a {}), expected a string",
                other.type_name()
            ))),
        },
    }
}

/// Fires a fully-local rule's head straight from the register file —
/// the compiled counterpart of [`fire_head`], sharing its routing.
fn fire_head_from_regs(
    ctx: &EvalCtx<'_>,
    h: &HeadPlan,
    regs: &[ValueId],
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) -> Result<()> {
    outcome.derivations += 1;
    let rel = resolve_name_src(&h.rel, regs)?;
    let peer = resolve_name_src(&h.peer, regs)?;
    let mut values = Vec::with_capacity(h.args.len());
    for a in &h.args {
        values.push(match a {
            crate::stage_plan::ArgSrc::Const(v) => v.clone(),
            crate::stage_plan::ArgSrc::Reg(r) => regs[*r as usize].value(),
        });
    }
    route_head_fact(
        ctx,
        WFact {
            rel,
            peer,
            tuple: values.into(),
        },
        outcome,
        new_local,
    );
    Ok(())
}

/// Shared head-fact routing: local extensional heads buffer self-updates,
/// local intensional (or undeclared) heads derive in place, remote heads
/// ship as derived facts. Used by both the interpreter and the compiled
/// path so the two cannot drift.
fn route_head_fact(
    ctx: &EvalCtx<'_>,
    fact: WFact,
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) {
    if fact.peer == ctx.peer {
        // Default kind for rule-written local relations is intensional (a
        // rule head defines a view unless declared otherwise).
        match ctx.schema.kind_of(fact.rel) {
            Some(RelationKind::Extensional) => {
                outcome.local_ext.insert(fact);
            }
            _ => {
                new_local.push(DFact {
                    pred: fact.qualified(),
                    tuple: fact.tuple,
                });
            }
        }
    } else {
        outcome
            .remote_facts
            .entry(fact.peer)
            .or_default()
            .insert(fact);
    }
}

fn walk(
    ctx: &EvalCtx<'_>,
    working: &Database,
    rule: &WRule,
    idx: usize,
    subst: Subst,
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) -> Result<()> {
    let Some(item) = rule.body.get(idx) else {
        return fire_head(ctx, rule, &subst, outcome, new_local);
    };
    match item {
        WBodyItem::Cmp { op, lhs, rhs } => {
            let l = lhs.resolve(&subst).ok_or_else(|| {
                WdlError::UnsafeDistribution(format!("unbound {lhs} in comparison of {rule}"))
            })?;
            let r = rhs.resolve(&subst).ok_or_else(|| {
                WdlError::UnsafeDistribution(format!("unbound {rhs} in comparison of {rule}"))
            })?;
            if op.eval(&l, &r)? {
                walk(ctx, working, rule, idx + 1, subst, outcome, new_local)?;
            }
            Ok(())
        }
        WBodyItem::Assign { var, expr } => {
            let value = expr.eval(&subst)?;
            let mut s = subst;
            if !s.unify_var(*var, &value) {
                return Ok(());
            }
            walk(ctx, working, rule, idx + 1, s, outcome, new_local)
        }
        WBodyItem::Literal(lit) => {
            let atom_peer = lit.atom.peer.resolve(&subst)?.ok_or_else(|| {
                WdlError::UnsafeDistribution(format!(
                    "peer of {} unresolved at evaluation (rule {rule})",
                    lit.atom
                ))
            })?;
            if atom_peer == ctx.peer {
                let rel = lit.atom.rel.resolve(&subst)?.ok_or_else(|| {
                    WdlError::UnsafeDistribution(format!(
                        "relation of {} unresolved at evaluation (rule {rule})",
                        lit.atom
                    ))
                })?;
                // Read gate for delegated rules: the origin must be allowed
                // to read this relation (directly, and through the
                // provenance-derived policy for views).
                if let Some(origin) = ctx.origin {
                    if !ctx.grants.can_read(rel, origin, ctx.view_bases) {
                        outcome.reads_blocked += 1;
                        return Ok(());
                    }
                }
                let datom = DAtom::new(qualify(rel, ctx.peer), lit.atom.args.clone());
                if lit.negated {
                    let fact = datom.ground(&subst).ok_or_else(|| {
                        WdlError::UnsafeDistribution(format!(
                            "negated atom {} not ground (rule {rule})",
                            lit.atom
                        ))
                    })?;
                    if !working.contains(&fact) {
                        walk(ctx, working, rule, idx + 1, subst, outcome, new_local)?;
                    }
                    Ok(())
                } else {
                    let matches = eval::evaluate_body(working, &[datom.into()], subst)?;
                    for s in matches {
                        walk(ctx, working, rule, idx + 1, s, outcome, new_local)?;
                    }
                    Ok(())
                }
            } else {
                // First non-local atom: delegate the instantiated remainder.
                let mut body = Vec::with_capacity(rule.body.len() - idx);
                for item in &rule.body[idx..] {
                    body.push(item.apply(&subst)?);
                }
                let head = rule.head.apply(&subst)?;
                // Onward delegation of a delegated rule is attributed to
                // *this* peer, so access control chains hop by hop — the
                // conservative reading of the paper's model.
                let d = Delegation::new(ctx.peer, atom_peer, WRule::new(head, body));
                outcome.delegations.entry(d.id).or_insert(d);
                Ok(())
            }
        }
    }
}

fn fire_head(
    ctx: &EvalCtx<'_>,
    rule: &WRule,
    subst: &Subst,
    outcome: &mut Outcome,
    new_local: &mut Vec<DFact>,
) -> Result<()> {
    outcome.derivations += 1;
    let fact = rule
        .head
        .ground(subst)?
        .ok_or_else(|| WdlError::UnsafeDistribution(format!("head of {rule} not fully bound")))?;
    route_head_fact(ctx, fact, outcome, new_local);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NameTerm, RuleId, WAtom};
    use wdl_datalog::{Term, Value};

    fn peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.acl_mut()
            .set_untrusted_policy(crate::acl::UntrustedPolicy::Accept);
        p
    }

    /// Fully-local rule: derives into an intensional relation in one stage.
    #[test]
    fn local_view_rule() {
        let mut p = peer("a");
        p.declare("good", 1, RelationKind::Intensional).unwrap();
        p.insert_local("rate", vec![Value::from(1), Value::from(5)])
            .unwrap();
        p.insert_local("rate", vec![Value::from(2), Value::from(2)])
            .unwrap();
        p.add_rule(WRule::new(
            WAtom::at("good", "a", vec![Term::var("id")]),
            vec![
                WAtom::at("rate", "a", vec![Term::var("id"), Term::var("r")]).into(),
                WBodyItem::cmp(wdl_datalog::CmpOp::Ge, Term::var("r"), Term::cst(4)),
            ],
        ))
        .unwrap();
        let out = p.run_stage().unwrap();
        assert!(out.changed);
        assert_eq!(p.relation_facts("good").len(), 1);
        assert!(out.messages.is_empty());
    }

    /// Rule with extensional head: insertion lands at the *next* stage.
    #[test]
    fn extensional_head_applies_next_stage() {
        let mut p = peer("a");
        p.declare("archive", 1, RelationKind::Extensional).unwrap();
        p.insert_local("item", vec![Value::from(7)]).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("archive", "a", vec![Term::var("x")]),
            vec![WAtom::at("item", "a", vec![Term::var("x")]).into()],
        ))
        .unwrap();
        p.run_stage().unwrap();
        assert!(
            p.relation_facts("archive").is_empty(),
            "buffered, not applied"
        );
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("archive").len(), 1);
    }

    /// First non-local atom produces a delegation, not local evaluation.
    #[test]
    fn remote_atom_delegates() {
        let mut p = peer("jules");
        p.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        p.insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        p.add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        let out = p.run_stage().unwrap();
        let delegs: Vec<&Message> = out
            .messages
            .iter()
            .filter(|m| matches!(m.payload, Payload::Delegate(_)))
            .collect();
        assert_eq!(delegs.len(), 1);
        assert_eq!(delegs[0].to.as_str(), "emilien");
        if let Payload::Delegate(ds) = &delegs[0].payload {
            // The delegated rule is the paper's: attendeePictures@jules(...)
            // :- pictures@emilien(...)
            assert_eq!(
                ds[0].rule.to_string(),
                "attendeePictures@jules($id, $name, $owner, $data) :- \
                 pictures@emilien($id, $name, $owner, $data)"
            );
        }
    }

    /// Deselecting the attendee revokes the delegation (per-stage re-derivation).
    #[test]
    fn delegation_revoked_when_support_disappears() {
        let mut p = peer("jules");
        p.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        p.insert_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        p.add_rule(WRule::example_attendee_pictures("jules"))
            .unwrap();
        p.run_stage().unwrap();
        p.delete_local("selectedAttendee", vec![Value::from("emilien")])
            .unwrap();
        let out = p.run_stage().unwrap();
        let revokes: Vec<&Message> = out
            .messages
            .iter()
            .filter(|m| matches!(m.payload, Payload::Revoke(_)))
            .collect();
        assert_eq!(revokes.len(), 1);
    }

    /// A stage with nothing to do reports no change.
    #[test]
    fn quiescent_stage_reports_unchanged() {
        let mut p = peer("idle");
        p.insert_local("r", vec![Value::from(1)]).unwrap();
        let first = p.run_stage().unwrap();
        assert!(first.changed || first.messages.is_empty());
        let second = p.run_stage().unwrap();
        assert!(!second.changed);
        assert!(second.messages.is_empty());
    }

    /// Derived facts received for an intensional relation are maintained
    /// per origin and retract when the origin retracts.
    #[test]
    fn derived_contributions_retract() {
        let mut p = peer("jules");
        p.declare("attendeePictures", 1, RelationKind::Intensional)
            .unwrap();
        let add = Message::new(
            Symbol::intern("emilien"),
            Symbol::intern("jules"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![WFact::new(
                    "attendeePictures",
                    "jules",
                    vec![Value::from(1)],
                )],
                retractions: vec![],
            },
        );
        p.enqueue(add);
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("attendeePictures").len(), 1);
        let retract = Message::new(
            Symbol::intern("emilien"),
            Symbol::intern("jules"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![],
                retractions: vec![WFact::new(
                    "attendeePictures",
                    "jules",
                    vec![Value::from(1)],
                )],
            },
        );
        p.enqueue(retract);
        p.run_stage().unwrap();
        assert!(p.relation_facts("attendeePictures").is_empty());
    }

    /// Derived facts received for an extensional relation persist (monotone
    /// insertion updates) and ignore retractions.
    #[test]
    fn derived_into_extensional_is_monotone() {
        let mut p = peer("inbox");
        p.declare("email", 1, RelationKind::Extensional).unwrap();
        let f = WFact::new("email", "inbox", vec![Value::from("hello")]);
        p.enqueue(Message::new(
            Symbol::intern("x"),
            Symbol::intern("inbox"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![f.clone()],
                retractions: vec![],
            },
        ));
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("email").len(), 1);
        p.enqueue(Message::new(
            Symbol::intern("x"),
            Symbol::intern("inbox"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![],
                retractions: vec![f],
            },
        ));
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("email").len(), 1, "retraction ignored");
    }

    /// Facts addressed to the wrong peer are rejected.
    #[test]
    fn misaddressed_facts_rejected() {
        let mut p = peer("right");
        p.enqueue(Message::new(
            Symbol::intern("x"),
            Symbol::intern("right"),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new("r", "WRONG", vec![Value::from(1)])],
                retractions: vec![],
            },
        ));
        let out = p.run_stage().unwrap();
        assert_eq!(out.stats.rejected, 1);
    }

    /// ACL queueing: untrusted delegation waits; approval installs it.
    #[test]
    fn untrusted_delegation_queues_until_approved() {
        let mut p = Peer::new("jules"); // default policy: queue
        p.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        let d = Delegation::new(
            Symbol::intern("julia"),
            Symbol::intern("jules"),
            WRule::new(
                WAtom::at(
                    "attendeePictures",
                    "jules",
                    vec![
                        Term::var("a"),
                        Term::var("b"),
                        Term::var("c"),
                        Term::var("d"),
                    ],
                ),
                vec![WAtom::at(
                    "pictures",
                    "jules",
                    vec![
                        Term::var("a"),
                        Term::var("b"),
                        Term::var("c"),
                        Term::var("d"),
                    ],
                )
                .into()],
            ),
        );
        let id = d.id;
        p.enqueue(Message::new(
            Symbol::intern("julia"),
            Symbol::intern("jules"),
            Payload::Delegate(vec![d]),
        ));
        p.insert_local(
            "pictures",
            vec![
                Value::from(1),
                Value::from("x.jpg"),
                Value::from("julia"),
                Value::bytes(&[1]),
            ],
        )
        .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.pending_delegations().len(), 1);
        assert!(p.relation_facts("attendeePictures").is_empty());
        p.approve_delegation(id).unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.installed_delegations().len(), 1);
        assert_eq!(p.relation_facts("attendeePictures").len(), 1);
    }

    /// Unsafe delegated rules are rejected at ingestion.
    #[test]
    fn unsafe_delegation_rejected() {
        let mut p = peer("t");
        let bad_rule = WRule::new(WAtom::at("out", "t", vec![Term::var("x")]), vec![]);
        let d = Delegation::new(Symbol::intern("o"), Symbol::intern("t"), bad_rule);
        p.enqueue(Message::new(
            Symbol::intern("o"),
            Symbol::intern("t"),
            Payload::Delegate(vec![d]),
        ));
        let out = p.run_stage().unwrap();
        assert_eq!(out.stats.rejected, 1);
        assert!(p.installed_delegations().is_empty());
    }

    /// Revoking removes installed delegations.
    #[test]
    fn revoke_removes_installed() {
        let mut p = peer("t");
        let d = Delegation::new(
            Symbol::intern("o"),
            Symbol::intern("t"),
            WRule::new(
                WAtom::at("v", "o", vec![Term::var("x")]),
                vec![WAtom::at("r", "t", vec![Term::var("x")]).into()],
            ),
        );
        let id = d.id;
        p.enqueue(Message::new(
            Symbol::intern("o"),
            Symbol::intern("t"),
            Payload::Delegate(vec![d]),
        ));
        p.run_stage().unwrap();
        assert_eq!(p.installed_delegations().len(), 1);
        p.enqueue(Message::new(
            Symbol::intern("o"),
            Symbol::intern("t"),
            Payload::Revoke(vec![id]),
        ));
        p.run_stage().unwrap();
        assert!(p.installed_delegations().is_empty());
    }

    /// Head with variable relation name: the paper's protocol-dispatch rule.
    #[test]
    fn variable_relation_head_dispatches() {
        let mut p = peer("jules");
        // $protocol@jules($n) :- communicate@jules($protocol), sel@jules($n)
        p.add_rule(WRule::new(
            WAtom::new(
                NameTerm::var("protocol"),
                NameTerm::name("jules"),
                vec![Term::var("n")],
            ),
            vec![
                WAtom::at("communicate", "jules", vec![Term::var("protocol")]).into(),
                WAtom::at("sel", "jules", vec![Term::var("n")]).into(),
            ],
        ))
        .unwrap();
        p.declare("email", 1, RelationKind::Intensional).unwrap();
        p.insert_local("communicate", vec![Value::from("email")])
            .unwrap();
        p.insert_local("sel", vec![Value::from("pic1")]).unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("email").len(), 1);
    }

    /// Recursive local rules reach a fixpoint within one stage.
    #[test]
    fn recursive_local_fixpoint() {
        let mut p = peer("g");
        p.declare("path", 2, RelationKind::Intensional).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            p.insert_local("edge", vec![Value::from(a), Value::from(b)])
                .unwrap();
        }
        p.add_rule(WRule::new(
            WAtom::at("path", "g", vec![Term::var("x"), Term::var("y")]),
            vec![WAtom::at("edge", "g", vec![Term::var("x"), Term::var("y")]).into()],
        ))
        .unwrap();
        p.add_rule(WRule::new(
            WAtom::at("path", "g", vec![Term::var("x"), Term::var("z")]),
            vec![
                WAtom::at("edge", "g", vec![Term::var("x"), Term::var("y")]).into(),
                WAtom::at("path", "g", vec![Term::var("y"), Term::var("z")]).into(),
            ],
        ))
        .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("path").len(), 6);
    }

    /// Fully local rules are compiled into a maintained materialization;
    /// deletions between stages are maintained incrementally and reach the
    /// same state as recomputation.
    #[test]
    fn compiled_view_maintains_deletions_across_stages() {
        let mut p = peer("inc");
        p.declare("visible", 1, RelationKind::Intensional).unwrap();
        let id = p
            .add_rule(WRule::new(
                WAtom::at("visible", "inc", vec![Term::var("x")]),
                vec![
                    WAtom::at("item", "inc", vec![Term::var("x")]).into(),
                    WBodyItem::not_atom(WAtom::at("hidden", "inc", vec![Term::var("x")])),
                ],
            ))
            .unwrap();
        for i in 0..10 {
            p.insert_local("item", vec![Value::from(i)]).unwrap();
        }
        p.insert_local("hidden", vec![Value::from(3)]).unwrap();
        p.run_stage().unwrap();
        assert_compiled_view(&p, &[id]);
        assert_eq!(p.relation_facts("visible").len(), 9);

        // A deletion is maintained, not recomputed: the view survives.
        p.delete_local("item", vec![Value::from(5)]).unwrap();
        let out = p.run_stage().unwrap();
        assert!(out.changed);
        assert_eq!(p.relation_facts("visible").len(), 8);
        assert_compiled_view(&p, &[id]);

        // Un-hiding via deletion from a negated relation *adds* facts.
        p.delete_local("hidden", vec![Value::from(3)]).unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("visible").len(), 9);

        // Quiescent stage after the churn reports no change.
        let quiet = p.run_stage().unwrap();
        assert!(!quiet.changed);
    }

    /// Recursive local rules stay correct under incremental deletion (the
    /// DRed path of the maintained view).
    #[test]
    fn compiled_view_maintains_recursion() {
        let mut p = peer("rec");
        p.declare("path", 2, RelationKind::Intensional).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            p.insert_local("edge", vec![Value::from(a), Value::from(b)])
                .unwrap();
        }
        let base = p
            .add_rule(WRule::new(
                WAtom::at("path", "rec", vec![Term::var("x"), Term::var("y")]),
                vec![WAtom::at("edge", "rec", vec![Term::var("x"), Term::var("y")]).into()],
            ))
            .unwrap();
        let step = p
            .add_rule(WRule::new(
                WAtom::at("path", "rec", vec![Term::var("x"), Term::var("z")]),
                vec![
                    WAtom::at("edge", "rec", vec![Term::var("x"), Term::var("y")]).into(),
                    WAtom::at("path", "rec", vec![Term::var("y"), Term::var("z")]).into(),
                ],
            ))
            .unwrap();
        p.run_stage().unwrap();
        assert_compiled_view(&p, &[base, step]);
        assert_eq!(p.relation_facts("path").len(), 6);

        p.delete_local("edge", vec![Value::from(2), Value::from(3)])
            .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("path").len(), 2);

        p.insert_local("edge", vec![Value::from(2), Value::from(3)])
            .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("path").len(), 6);
    }

    /// Adding or removing a rule invalidates the compiled view (epoch
    /// bump) and the rebuilt materialization is correct.
    #[test]
    fn rule_changes_rebuild_compiled_view() {
        let mut p = peer("rb");
        p.declare("a", 1, RelationKind::Intensional).unwrap();
        p.insert_local("base", vec![Value::from(1)]).unwrap();
        let id = p
            .add_rule(WRule::new(
                WAtom::at("a", "rb", vec![Term::var("x")]),
                vec![WAtom::at("base", "rb", vec![Term::var("x")]).into()],
            ))
            .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("a").len(), 1);

        p.declare("b", 1, RelationKind::Intensional).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("b", "rb", vec![Term::var("x")]),
            vec![WAtom::at("a", "rb", vec![Term::var("x")]).into()],
        ))
        .unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("b").len(), 1);

        p.remove_rule(id).unwrap();
        p.run_stage().unwrap();
        assert!(p.relation_facts("a").is_empty());
        assert!(p.relation_facts("b").is_empty());
    }

    /// Dynamic-layer derivations (here: a delegated rule) feed the
    /// compiled layer as external support and retract when their own
    /// support disappears.
    #[test]
    fn dynamic_layer_feeds_compiled_layer() {
        let mut p = peer("mix");
        p.declare("feed", 1, RelationKind::Intensional).unwrap();
        p.declare("echo", 1, RelationKind::Intensional).unwrap();
        // Compiled: echo(x) :- feed(x).
        let echo = p
            .add_rule(WRule::new(
                WAtom::at("echo", "mix", vec![Term::var("x")]),
                vec![WAtom::at("feed", "mix", vec![Term::var("x")]).into()],
            ))
            .unwrap();
        // Dynamic (delegated): feed(x) :- src(x).
        let d = Delegation::new(
            Symbol::intern("origin"),
            Symbol::intern("mix"),
            WRule::new(
                WAtom::at("feed", "mix", vec![Term::var("x")]),
                vec![WAtom::at("src", "mix", vec![Term::var("x")]).into()],
            ),
        );
        p.install_delegation(d);
        p.insert_local("src", vec![Value::from(7)]).unwrap();
        p.run_stage().unwrap();
        // Only the own rule compiled; the delegated one stays dynamic.
        assert_compiled_view(&p, &[echo]);
        assert_eq!(p.relation_facts("feed").len(), 1);
        assert_eq!(p.relation_facts("echo").len(), 1);

        // Remove the dynamic rule's support: both layers retract.
        p.delete_local("src", vec![Value::from(7)]).unwrap();
        p.run_stage().unwrap();
        assert!(p.relation_facts("feed").is_empty());
        assert!(p.relation_facts("echo").is_empty());
    }

    /// A fact can carry external support from a remote contribution *and*
    /// the dynamic layer at once; losing the dynamic share must not retract
    /// it while the contribution still stands (and vice versa).
    #[test]
    fn dual_support_contribution_outlives_dynamic_share() {
        let mut p = peer("dual");
        p.declare("feed", 1, RelationKind::Intensional).unwrap();
        p.declare("echo", 1, RelationKind::Intensional).unwrap();
        // Compiled consumer of feed.
        let echo = p
            .add_rule(WRule::new(
                WAtom::at("echo", "dual", vec![Term::var("x")]),
                vec![WAtom::at("feed", "dual", vec![Term::var("x")]).into()],
            ))
            .unwrap();
        // Dynamic (delegated) producer of feed.
        p.install_delegation(Delegation::new(
            Symbol::intern("origin"),
            Symbol::intern("dual"),
            WRule::new(
                WAtom::at("feed", "dual", vec![Term::var("x")]),
                vec![WAtom::at("src", "dual", vec![Term::var("x")]).into()],
            ),
        ));
        p.insert_local("src", vec![Value::from(7)]).unwrap();
        // Remote contribution asserting the same fact.
        p.enqueue(Message::new(
            Symbol::intern("remote"),
            Symbol::intern("dual"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![WFact::new("feed", "dual", vec![Value::from(7)])],
                retractions: vec![],
            },
        ));
        p.run_stage().unwrap();
        assert_compiled_view(&p, &[echo]);
        assert_eq!(p.relation_facts("feed").len(), 1);
        assert_eq!(p.relation_facts("echo").len(), 1);

        // Dynamic support disappears; the contribution still stands.
        p.delete_local("src", vec![Value::from(7)]).unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("feed").len(), 1, "contribution holds");
        assert_eq!(p.relation_facts("echo").len(), 1);

        // Contribution retracts too: now the fact (and its consequence) go.
        p.enqueue(Message::new(
            Symbol::intern("remote"),
            Symbol::intern("dual"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![],
                retractions: vec![WFact::new("feed", "dual", vec![Value::from(7)])],
            },
        ));
        p.run_stage().unwrap();
        assert!(p.relation_facts("feed").is_empty());
        assert!(p.relation_facts("echo").is_empty());
    }

    /// The mirror ordering: contribution arrives first, dynamic share
    /// second, then the contribution retracts — the dynamic share must
    /// keep the fact alive.
    #[test]
    fn dual_support_dynamic_share_outlives_contribution() {
        let mut p = peer("dual2");
        p.declare("feed", 1, RelationKind::Intensional).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("keep", "dual2", vec![Term::var("x")]),
            vec![WAtom::at("feed", "dual2", vec![Term::var("x")]).into()],
        ))
        .unwrap();
        p.declare("keep", 1, RelationKind::Intensional).unwrap();
        p.enqueue(Message::new(
            Symbol::intern("remote"),
            Symbol::intern("dual2"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![WFact::new("feed", "dual2", vec![Value::from(1)])],
                retractions: vec![],
            },
        ));
        p.run_stage().unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("origin"),
            Symbol::intern("dual2"),
            WRule::new(
                WAtom::at("feed", "dual2", vec![Term::var("x")]),
                vec![WAtom::at("src", "dual2", vec![Term::var("x")]).into()],
            ),
        ));
        p.insert_local("src", vec![Value::from(1)]).unwrap();
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("feed").len(), 1);

        // Contribution retracts; the dynamic derivation still supports it.
        p.enqueue(Message::new(
            Symbol::intern("remote"),
            Symbol::intern("dual2"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![],
                retractions: vec![WFact::new("feed", "dual2", vec![Value::from(1)])],
            },
        ));
        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("feed").len(), 1, "dynamic share holds");
        assert_eq!(p.relation_facts("keep").len(), 1);

        // And when the dynamic share goes too, everything retracts.
        p.delete_local("src", vec![Value::from(1)]).unwrap();
        p.run_stage().unwrap();
        assert!(p.relation_facts("feed").is_empty());
        assert!(p.relation_facts("keep").is_empty());
    }

    /// Retractions propagate peer to peer: when the source peer's
    /// derivation stops holding, the target peer's maintained view drops
    /// the fact at its next stage (delete_remote flowing just like
    /// insertions).
    #[test]
    fn retraction_propagates_through_maintained_views() {
        let mut source = peer("src-p");
        // Remote-head rule (dynamic layer): ships derived facts to tgt-p.
        source
            .add_rule(WRule::new(
                WAtom::at("mirror", "tgt-p", vec![Term::var("x")]),
                vec![WAtom::at("local", "src-p", vec![Term::var("x")]).into()],
            ))
            .unwrap();
        source.insert_local("local", vec![Value::from(1)]).unwrap();

        let mut target = peer("tgt-p");
        target
            .declare("mirror", 1, RelationKind::Intensional)
            .unwrap();
        target
            .declare("twice", 1, RelationKind::Intensional)
            .unwrap();
        // Compiled rule downstream of the remote contribution.
        target
            .add_rule(WRule::new(
                WAtom::at("twice", "tgt-p", vec![Term::var("x")]),
                vec![WAtom::at("mirror", "tgt-p", vec![Term::var("x")]).into()],
            ))
            .unwrap();

        let out = source.run_stage().unwrap();
        for m in out.messages {
            target.enqueue(m);
        }
        target.run_stage().unwrap();
        assert_eq!(target.relation_facts("mirror").len(), 1);
        assert_eq!(target.relation_facts("twice").len(), 1);

        // Source-side deletion → retraction message → target's maintained
        // view drops both the contribution and its consequence.
        source.delete_local("local", vec![Value::from(1)]).unwrap();
        let out = source.run_stage().unwrap();
        let retractions: usize = out
            .messages
            .iter()
            .filter_map(|m| match &m.payload {
                Payload::Facts { retractions, .. } => Some(retractions.len()),
                _ => None,
            })
            .sum();
        assert_eq!(retractions, 1, "source emits the retraction");
        for m in out.messages {
            target.enqueue(m);
        }
        target.run_stage().unwrap();
        assert!(target.relation_facts("mirror").is_empty());
        assert!(target.relation_facts("twice").is_empty());
    }

    /// The join-order optimizer runs when fully local rules compile: the
    /// compiled body is reordered against live cardinalities (smaller
    /// relation first) and derives exactly the same facts as the written
    /// order.
    #[test]
    fn compile_applies_join_order_optimizer() {
        let body = |me: &str| {
            vec![
                WAtom::at("r", me, vec![Term::var("x"), Term::var("y")]).into(),
                WAtom::at("s", me, vec![Term::var("x"), Term::var("y")]).into(),
            ]
        };
        let load = |p: &mut Peer| {
            for i in 0..50 {
                p.insert_local("r", vec![Value::from(i), Value::from(i)])
                    .unwrap();
            }
            p.insert_local("s", vec![Value::from(1), Value::from(1)])
                .unwrap();
            p.insert_local("s", vec![Value::from(999), Value::from(999)])
                .unwrap();
        };

        let mut p = peer("opt");
        p.declare("both", 2, RelationKind::Intensional).unwrap();
        load(&mut p);
        p.add_rule(WRule::new(
            WAtom::at("both", "opt", vec![Term::var("x"), Term::var("y")]),
            body("opt"),
        ))
        .unwrap();
        p.run_stage().unwrap();

        // The compiled body leads with the *small* relation even though the
        // rule was written big-first.
        let state = &p.incr;
        let first = state.view.program().rules()[0].body[0]
            .as_positive_atom()
            .expect("positive atom leads");
        assert_eq!(first.pred.as_str(), "s@opt");

        // Identical substitutions to the written order: evaluate the
        // original body as an ad-hoc query and compare.
        let via_query = p.query(&body("opt")).unwrap();
        let facts = p.relation_facts("both");
        assert_eq!(facts.len(), via_query.len());
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0][0], Value::from(1));
    }

    /// The classified-plan cache follows grants changes: restricting a
    /// relation after a delegated rule compiled must re-hoist the ACL read
    /// gate (blocked reads appear), and the compiled path counts them like
    /// the interpreter.
    #[test]
    fn grants_change_invalidates_hoisted_read_gate() {
        let build = || {
            let mut p = peer("gate");
            p.declare("feed", 1, RelationKind::Intensional).unwrap();
            p.insert_local("secret", vec![Value::from(7)]).unwrap();
            p.install_delegation(Delegation::new(
                Symbol::intern("spy"),
                Symbol::intern("gate"),
                WRule::new(
                    WAtom::at("feed", "gate", vec![Term::var("x")]),
                    vec![WAtom::at("secret", "gate", vec![Term::var("x")]).into()],
                ),
            ));
            p
        };
        for compiled in [true, false] {
            let mut p = build();
            p.set_compiled_stage(compiled);
            let out = p.run_stage().unwrap();
            assert_eq!(out.stats.reads_blocked, 0, "compiled={compiled}");
            assert_eq!(p.relation_facts("feed").len(), 1);

            // Restrict reads: the next stage must block the delegated read
            // (and retract the derivation) on both engines.
            p.grants_mut().restrict_read("secret");
            let out = p.run_stage().unwrap();
            assert_eq!(out.stats.reads_blocked, 1, "compiled={compiled}");
            assert!(p.relation_facts("feed").is_empty());
        }
    }

    /// The classifier actually compiles (it must not silently fall back to
    /// the interpreter for the shapes the fast path exists for), and picks
    /// the expected cut per body shape.
    #[test]
    fn classifier_compiles_expected_cut_shapes() {
        use crate::stage_plan::{classify, Cut, StageRulePlan};
        let me = Symbol::intern("shape");
        let grants = crate::RelationGrants::new();
        let vb = HashMap::new();
        let item = |peer: &str| WAtom::at("item", peer, vec![Term::var("x")]);

        // Fully local body → Cut::Head.
        let fully_local = WRule::new(
            WAtom::at("v", "shape", vec![Term::var("x")]),
            vec![
                item("shape").into(),
                WBodyItem::not_atom(WAtom::at("blocked", "shape", vec![Term::var("x")])),
            ],
        );
        let StageRulePlan::Compiled(c) = classify(&fully_local, me, None, &grants, &vb) else {
            panic!("fully local rule must compile");
        };
        assert!(matches!(c.cut, Cut::Head(_)));

        // Constant remote peer at position 1 → Cut::Delegate at 1.
        let remote = WRule::new(
            WAtom::at("v", "shape", vec![Term::var("x")]),
            vec![item("shape").into(), item("elsewhere").into()],
        );
        let StageRulePlan::Compiled(c) = classify(&remote, me, None, &grants, &vb) else {
            panic!("split rule must compile");
        };
        assert!(matches!(c.cut, Cut::Delegate { idx: 1, .. }));

        // Variable peer at position 1 → Cut::Resume at 1.
        let varpeer = WRule::new(
            WAtom::at("v", "shape", vec![Term::var("x")]),
            vec![
                WAtom::at("sel", "shape", vec![Term::var("p")]).into(),
                WAtom::new(
                    NameTerm::name("item"),
                    NameTerm::var("p"),
                    vec![Term::var("x")],
                )
                .into(),
            ],
        );
        let StageRulePlan::Compiled(c) = classify(&varpeer, me, None, &grants, &vb) else {
            panic!("variable-peer rule must compile its prefix");
        };
        assert!(matches!(c.cut, Cut::Resume { idx: 1, .. }));

        // Delegated rule reading a restricted relation → Cut::Blocked.
        let mut restricted = crate::RelationGrants::new();
        restricted.restrict_read("item");
        let gated = WRule::new(
            WAtom::at("v", "origin", vec![Term::var("x")]),
            vec![item("shape").into()],
        );
        let StageRulePlan::Compiled(c) =
            classify(&gated, me, Some(Symbol::intern("origin")), &restricted, &vb)
        else {
            panic!("gated rule must compile");
        };
        assert!(matches!(c.cut, Cut::Blocked));

        // A stage evaluation populates the cache with compiled entries.
        let mut p = peer("shape");
        p.declare("v", 1, RelationKind::Intensional).unwrap();
        p.insert_local("item", vec![Value::from(1)]).unwrap();
        p.add_rule(remote).unwrap();
        p.run_stage().unwrap();
        assert!(
            p.stage_plans
                .own
                .values()
                .any(|srp| matches!(srp, StageRulePlan::Compiled(_))),
            "stage evaluation caches compiled plans"
        );
    }

    /// Local negation within a stage.
    #[test]
    fn local_negation() {
        let mut p = peer("n");
        p.declare("keep", 1, RelationKind::Intensional).unwrap();
        p.insert_local("item", vec![Value::from(1)]).unwrap();
        p.insert_local("item", vec![Value::from(2)]).unwrap();
        p.insert_local("blocked", vec![Value::from(2)]).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("keep", "n", vec![Term::var("x")]),
            vec![
                WAtom::at("item", "n", vec![Term::var("x")]).into(),
                WBodyItem::not_atom(WAtom::at("blocked", "n", vec![Term::var("x")])),
            ],
        ))
        .unwrap();
        p.run_stage().unwrap();
        let facts = p.relation_facts("keep");
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0][0], Value::from(1));
    }

    /// Asserts the peer's view maintains exactly the own rules `ids`: they
    /// compiled, and nothing else (no delegated rule) entered the program.
    fn assert_compiled_view(p: &Peer, ids: &[RuleId]) {
        let state = &p.incr;
        let want: HashSet<RuleId> = ids.iter().copied().collect();
        assert_eq!(state.compiled, want, "exactly these rules compile");
        assert_eq!(state.view.program().rules().len(), ids.len());
    }

    /// Asserts the peer runs a maintained view over the empty program:
    /// nothing compiled, every rule in the dynamic layer.
    fn assert_empty_program_view(p: &Peer) {
        let state = &p.incr;
        assert!(state.compiled.is_empty());
        assert!(state.view.program().rules().is_empty());
    }

    /// A peer with no compilable rule — a remote-head rule plus a
    /// delegated local rule — runs the same maintained view as every other
    /// peer, over the empty program. Per round: the `view` contents, the
    /// `mirror@elsewhere` diff and the `changed` flag, through an
    /// insert/delete of one fact in a single window, a base insert of a
    /// fact already present, and a contribution added then retracted. A
    /// hub with no rules holds the same kind of view.
    #[test]
    fn uncompilable_peer_runs_empty_program_view() {
        let mut p = peer("uncomp");
        p.declare("view", 1, RelationKind::Intensional).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("mirror", "elsewhere", vec![Term::var("x")]),
            vec![WAtom::at("item", "uncomp", vec![Term::var("x")]).into()],
        ))
        .unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("origin"),
            Symbol::intern("uncomp"),
            WRule::new(
                WAtom::at("view", "uncomp", vec![Term::var("x")]),
                vec![WAtom::at("item", "uncomp", vec![Term::var("x")]).into()],
            ),
        ));
        let contrib = |v: i64, add: bool| {
            let facts = vec![WFact::new("view", "uncomp", vec![Value::from(v)])];
            let (additions, retractions) = if add {
                (facts, vec![])
            } else {
                (vec![], facts)
            };
            Message::new(
                Symbol::intern("origin"),
                Symbol::intern("uncomp"),
                Payload::Facts {
                    kind: FactKind::Derived,
                    additions,
                    retractions,
                },
            )
        };
        // First column of unary integer rows, sorted.
        let ints = |rows: &mut dyn Iterator<Item = &wdl_datalog::Tuple>| -> Vec<i64> {
            let mut v: Vec<i64> = rows.map(|t| t[0].as_int().expect("int")).collect();
            v.sort();
            v
        };
        // (changed, view, mirror additions, mirror retractions)
        type Round = (bool, &'static [i64], &'static [i64], &'static [i64]);
        let expected: [Round; 6] = [
            (true, &[1, 2], &[1, 2], &[]),
            (true, &[2, 77], &[], &[1]),
            (false, &[2, 77], &[], &[]),
            (true, &[2], &[], &[]),
            (true, &[1, 2], &[1], &[]),
            (false, &[1, 2], &[], &[]),
        ];
        for (round, (changed, view, adds, rets)) in expected.into_iter().enumerate() {
            match round {
                0 => {
                    p.insert_local("item", vec![Value::from(1)]).unwrap();
                    p.insert_local("item", vec![Value::from(2)]).unwrap();
                }
                1 => {
                    p.delete_local("item", vec![Value::from(1)]).unwrap();
                    p.enqueue(contrib(77, true));
                }
                2 => {
                    // Insert and delete the same fact within one window.
                    p.insert_local("item", vec![Value::from(9)]).unwrap();
                    p.delete_local("item", vec![Value::from(9)]).unwrap();
                    // Base-insert a fact that is already present.
                    assert!(!p.insert_local("item", vec![Value::from(2)]).unwrap());
                }
                3 => p.enqueue(contrib(77, false)),
                4 => {
                    p.insert_local("item", vec![Value::from(1)]).unwrap();
                }
                _ => {}
            }
            let out = p.run_stage().unwrap();
            assert_empty_program_view(&p);
            assert_eq!(out.changed, changed, "round {round}");
            let got_view = ints(&mut p.relation_facts("view").iter());
            assert_eq!(got_view, view, "round {round}");
            let (mut got_adds, mut got_rets) = (Vec::new(), Vec::new());
            for m in &out.messages {
                assert_eq!(m.to.as_str(), "elsewhere", "round {round}");
                let Payload::Facts {
                    additions,
                    retractions,
                    ..
                } = &m.payload
                else {
                    panic!("round {round}: unexpected payload {:?}", m.payload);
                };
                got_adds.extend(ints(&mut additions.iter().map(|f| &f.tuple)));
                got_rets.extend(ints(&mut retractions.iter().map(|f| &f.tuple)));
            }
            assert_eq!(got_adds, adds, "round {round}");
            assert_eq!(got_rets, rets, "round {round}");
        }

        let mut hub = peer("hub");
        hub.declare("attendeePictures", 1, RelationKind::Intensional)
            .unwrap();
        hub.insert_local("x", vec![Value::from(1)]).unwrap();
        for _ in 0..2 {
            let out = hub.run_stage().unwrap();
            assert!(!out.changed);
            assert_eq!(out.stats.fixpoint_rounds, 1);
            assert_empty_program_view(&hub);
        }
    }

    /// Own rules the kernel cannot stratify (`p :- b, not q` and
    /// `q :- b, not p`) make `Program::new` reject the compiled subset, so
    /// the whole peer runs the naive monotone loop in the dynamic layer:
    /// both heads fire in round one and nothing is retracted within a
    /// stage.
    #[test]
    fn unstratifiable_own_rules_run_the_monotone_loop() {
        let mut p = peer("unstrat");
        p.declare("p", 1, RelationKind::Intensional).unwrap();
        p.declare("q", 1, RelationKind::Intensional).unwrap();
        p.insert_local("b", vec![Value::from(1)]).unwrap();
        for (head, negated) in [("p", "q"), ("q", "p")] {
            p.add_rule(WRule::new(
                WAtom::at(head, "unstrat", vec![Term::var("x")]),
                vec![
                    WAtom::at("b", "unstrat", vec![Term::var("x")]).into(),
                    WBodyItem::not_atom(WAtom::at(negated, "unstrat", vec![Term::var("x")])),
                ],
            ))
            .unwrap();
        }
        let tuples = |xs: &[i64]| -> Vec<wdl_datalog::Tuple> {
            xs.iter().map(|&x| vec![Value::from(x)].into()).collect()
        };
        // (stage, derivations, p = q)
        let expected: [(u64, usize, &[i64]); 3] = [(1, 2, &[1]), (2, 4, &[1, 2]), (3, 2, &[2])];
        for (stage, derivations, facts) in expected {
            match stage {
                2 => assert!(p.insert_local("b", vec![Value::from(2)]).unwrap()),
                3 => assert!(p.delete_local("b", vec![Value::from(1)]).unwrap()),
                _ => {}
            }
            let out = p.run_stage().unwrap();
            assert_empty_program_view(&p);
            assert!(out.changed, "stage {stage}");
            assert_eq!(
                out.stats,
                StageStats {
                    stage,
                    fixpoint_rounds: 2,
                    derivations,
                    ..StageStats::default()
                }
            );
            for rel in ["p", "q"] {
                let mut got = p.relation_facts(rel);
                got.sort();
                assert_eq!(got, tuples(facts), "stage {stage} {rel}");
            }
        }
    }
}

//! A WebdamLog peer: schema, storage, rules, delegations, ACL state.

use crate::acl::AccessControl;
use crate::stage::StageStats;
use crate::{
    qualify, Delegation, DelegationId, FactKind, Message, Payload, RelationKind, Result, Schema,
    WFact, WRule, WdlError,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use wdl_datalog::{Database, Symbol, Tuple, Value};

/// Identifier of a rule owned by a peer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RuleId {
    /// The owning peer.
    pub peer: Symbol,
    /// Per-peer counter.
    pub idx: u32,
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.peer, self.idx)
    }
}

/// A rule owned by the peer, with its id (the demo UI lists rules this way,
/// Figure 3).
#[derive(Clone, Debug)]
pub struct RuleEntry {
    /// Identifier (stable across removals).
    pub id: RuleId,
    /// The rule.
    pub rule: WRule,
}

/// A WebdamLog peer.
///
/// A peer hosts relations (extensional and intensional), runs its own rules
/// plus rules delegated to it, and exchanges facts and rules with other
/// peers through [`Peer::run_stage`] / [`Peer::enqueue`]. See the crate
/// documentation for the full model.
pub struct Peer {
    pub(crate) name: Symbol,
    pub(crate) schema: Schema,
    /// Maintained contributions received from other peers for intensional
    /// relations: `rel -> origin -> tuples`.
    pub(crate) remote_contrib: HashMap<Symbol, HashMap<Symbol, HashSet<Tuple>>>,
    pub(crate) rules: Vec<RuleEntry>,
    pub(crate) next_rule_idx: u32,
    /// Delegations installed here by other peers.
    pub(crate) delegated: Vec<Delegation>,
    pub(crate) acl: AccessControl,
    pub(crate) inbox: Vec<Message>,
    /// Extensional self-updates derived by rules, applied at next stage.
    pub(crate) pending_updates: Vec<WFact>,
    /// Explicit API-driven messages to other peers, flushed at next stage.
    pub(crate) outbox_explicit: Vec<Message>,
    /// Delegations this peer emitted at its previous stage (for diffing).
    pub(crate) prev_delegations: HashMap<DelegationId, Delegation>,
    /// Derived facts sent to each target at the previous stage (for diffing).
    pub(crate) prev_sent: HashMap<Symbol, HashSet<WFact>>,
    pub(crate) stage: u64,
    /// The maintained view every stage runs on, and the peer's only
    /// database: the materialization of the compilable (fully local)
    /// rules — the empty program when none compile — over every base fact
    /// the peer holds, stored under qualified predicates `rel@peer` (see
    /// `maintain.rs`). Base writes enter it at once; intensional rows are
    /// as of the last completed stage.
    pub(crate) incr: crate::maintain::IncrementalState,
    /// Bumped by every mutation that changes rule compilation (rule
    /// add/remove/replace, schema declarations); the view rebuilds when it
    /// trails this counter.
    pub(crate) ruleset_epoch: u64,
    /// Local facts the dynamic rule layer derived at the previous stage
    /// (fed to the view as external support; retracted when re-derivation
    /// stops producing them).
    pub(crate) prev_dynamic: HashSet<wdl_datalog::Fact>,
    /// Whether stage-layer rules run as compiled register-file prefix
    /// plans (default) or on the `Subst` reference interpreter.
    pub(crate) compiled_stage: bool,
    /// Bumped on every access to the mutable policy handle: the hoisted
    /// per-origin read gates of cached stage plans must be re-derived
    /// when the policy may have changed.
    pub(crate) policy_epoch: u64,
    /// Cached classified stage plans (see `stage_plan.rs`).
    pub(crate) stage_plans: crate::stage_plan::StagePlans,
    /// Trace sink + label cache when tracing is enabled; `None` (the
    /// default) keeps every hook a single branch with zero allocations
    /// and no clock reads (see `trace.rs`).
    pub(crate) tracer: Option<Box<crate::trace::PeerTracer>>,
    /// Counters of the last completed stage (for `stats` reporting).
    pub(crate) last_stats: StageStats,
    /// Fixpoint work accumulated across all stages (for `report`).
    pub(crate) cum_eval: wdl_datalog::EvalStats,
    /// Durability sink, when this peer persists its state (see
    /// `durability.rs`). `None` (the default) keeps the peer fully
    /// in-memory with zero overhead on the mutation paths.
    pub(crate) durability: Option<Box<dyn crate::DurabilitySink>>,
    /// Structural (non-fact) state changed since the last durability sync;
    /// the next group commit logs the peer's meta image.
    pub(crate) meta_dirty: bool,
    /// Session-layer delivery watermarks, keyed by `(remote peer,
    /// direction)` where direction 0 = delivered (frames from `remote`
    /// this peer has applied) and 1 = acked (frames to `remote` the
    /// remote has durably applied); the value is `(remote incarnation,
    /// cumulative sequence number)`. Persisted through the durability
    /// sink so a recovered peer resumes its sessions without re-applying
    /// (or losing) in-flight traffic.
    pub(crate) session_watermarks: BTreeMap<(Symbol, u8), (u64, u64)>,
}

impl Peer {
    /// Creates a peer named `name`.
    pub fn new(name: impl Into<Symbol>) -> Peer {
        Peer {
            name: name.into(),
            schema: Schema::new(),
            remote_contrib: HashMap::new(),
            rules: Vec::new(),
            next_rule_idx: 0,
            delegated: Vec::new(),
            acl: AccessControl::new(),
            inbox: Vec::new(),
            pending_updates: Vec::new(),
            outbox_explicit: Vec::new(),
            prev_delegations: HashMap::new(),
            prev_sent: HashMap::new(),
            stage: 0,
            incr: Default::default(),
            ruleset_epoch: 0,
            prev_dynamic: HashSet::new(),
            compiled_stage: true,
            policy_epoch: 0,
            stage_plans: crate::stage_plan::StagePlans::default(),
            tracer: None,
            last_stats: StageStats::default(),
            cum_eval: wdl_datalog::EvalStats::default(),
            durability: None,
            meta_dirty: false,
            session_watermarks: BTreeMap::new(),
        }
    }

    /// The peer's name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// Stages completed so far.
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// The peer's access policy: trust, the approval queue, relation
    /// grants and declassified views.
    pub fn acl(&self) -> &AccessControl {
        &self.acl
    }

    /// The peer's access policy, mutably (trust peers, change the
    /// untrusted policy, restrict/grant/declassify relations).
    ///
    /// Any access through this handle may change what delegated rules can
    /// read, so it conservatively bumps the policy epoch — cached stage
    /// plans (whose per-literal read gates are hoisted to compile time)
    /// re-classify at the next stage — and marks the peer structurally
    /// dirty, so the next group commit logs the policy.
    pub fn acl_mut(&mut self) -> &mut AccessControl {
        self.policy_epoch += 1;
        self.meta_dirty = true;
        &mut self.acl
    }

    /// Selects compiled register-file evaluation for this peer's stage
    /// loop (`true`, the default) or the symbol-keyed `Subst` interpreter
    /// (`false`) — the stage-layer mirror of the datalog kernel's
    /// `EvalConfig::with_compiled(false)`. Both paths compute identical
    /// outcomes, delegations and blocked-read counts (property-tested in
    /// `tests/stage_parity.rs`); the interpreter is retained as the
    /// semantic reference and bench baseline. The toggle also selects the
    /// engine of the maintained local view, so the whole stage runs one
    /// engine. Ad-hoc reads ([`Peer::query`], [`Peer::aggregate`]) always
    /// run compiled plans.
    ///
    /// This is a runtime setting, **not durable state**: the peer image
    /// (`wdl_net::snapshot`) carries semantic state only, so a restored
    /// peer starts back on the default (compiled) engine — re-apply the
    /// toggle after restore when pinning the interpreter matters.
    pub fn set_compiled_stage(&mut self, compiled: bool) {
        if self.compiled_stage != compiled {
            self.compiled_stage = compiled;
            // The maintained view's program carries the engine choice;
            // force a rebuild.
            self.ruleset_epoch += 1;
        }
    }

    /// Whether the stage loop runs compiled plans (see
    /// [`Peer::set_compiled_stage`]).
    pub fn compiled_stage(&self) -> bool {
        self.compiled_stage
    }

    /// Installs a trace sink: every subsequent stage records
    /// [`crate::TraceEvent`]s (stage timings, per-rule costs, message
    /// causality, delegation churn, blocked reads) into it. Replaces
    /// any previously installed sink.
    ///
    /// Like [`Peer::set_compiled_stage`], this is a runtime tuning
    /// knob, **not durable state**: the peer image (`wdl_net::snapshot`)
    /// carries semantic state only, so a restored peer comes up untraced.
    /// Tracing never changes what a stage computes (pinned by the
    /// `trace_parity` suite); with no sink installed every hook is one
    /// branch, zero allocations and no clock reads (pinned by
    /// `trace_alloc`).
    pub fn set_trace_sink(&mut self, sink: Box<dyn crate::TraceSink>) {
        self.tracer = Some(crate::trace::PeerTracer::new(sink));
    }

    /// Removes the trace sink, returning the peer to the zero-cost
    /// untraced path.
    pub fn clear_trace_sink(&mut self) {
        self.tracer = None;
    }

    /// Whether a trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records a session-layer retransmission batch toward `to` (called
    /// by the transport driver; a no-op when untraced).
    pub fn trace_session_retransmits(&mut self, to: Symbol, count: u64) {
        if count == 0 {
            return;
        }
        let from = self.name;
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(crate::TraceEvent::SessionRetransmit { from, to, count });
        }
    }

    /// Records a session liveness transition for `remote`
    /// (0 = Up, 1 = Suspect, 2 = Down); a no-op when untraced.
    pub fn trace_session_health(&mut self, remote: Symbol, state: u8) {
        let observer = self.name;
        if let Some(tr) = self.tracer.as_mut() {
            tr.record(crate::TraceEvent::SessionHealth {
                observer,
                remote,
                state,
            });
        }
    }

    /// Drains buffered trace events from the installed sink (empty when
    /// untraced or the sink does not buffer). Runtimes call this once
    /// per round to feed their aggregator.
    pub fn drain_trace(&mut self) -> Vec<crate::TraceEvent> {
        match &mut self.tracer {
            Some(t) => t.sink.drain(),
            None => Vec::new(),
        }
    }

    /// [`Peer::drain_trace`], but appending onto `out` so the sink keeps
    /// its buffer capacity — the runtimes' once-per-round drain of a
    /// large fleet stays allocation-free in the steady state.
    pub fn drain_trace_into(&mut self, out: &mut Vec<crate::TraceEvent>) {
        if let Some(t) = &mut self.tracer {
            t.sink.drain_into(out);
        }
    }

    /// Counters of the peer's last completed stage (all zeros before
    /// the first stage runs).
    pub fn last_stage_stats(&self) -> crate::StageStats {
        self.last_stats
    }

    /// Fixpoint work accumulated across every stage this peer has run:
    /// `iterations` sums fixpoint rounds, `derivations` head
    /// instantiations, `facts_derived` locally new facts.
    pub fn cumulative_eval_stats(&self) -> wdl_datalog::EvalStats {
        self.cum_eval
    }

    /// Messages queued for ingestion at the next stage, in arrival order.
    /// Observability for runtimes and parity tests — the inbox is consumed
    /// by [`Peer::run_stage`].
    pub fn inbox(&self) -> &[Message] {
        &self.inbox
    }

    /// The peer's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Declares a local relation.
    pub fn declare(
        &mut self,
        rel: impl Into<Symbol>,
        arity: usize,
        kind: RelationKind,
    ) -> Result<()> {
        let rel = rel.into();
        self.schema.declare(rel, arity, kind)?;
        if kind == RelationKind::Extensional {
            // Rows a rule derived into the formerly undeclared relation
            // are soft state, not extensional facts: retract them.
            let q = qualify(rel, self.name);
            for fact in self.prev_dynamic.extract_if(|f| f.pred == q) {
                self.incr.view.write_base(&fact, false)?;
            }
        }
        self.ruleset_epoch += 1;
        self.meta_dirty = true;
        Ok(())
    }

    /// Installs a whole program batch atomically, vetted by a static
    /// checker (normally `wdl-analyze`'s `StaticChecker`; use
    /// [`crate::NoCheck`] to opt out).
    ///
    /// Order of operations:
    ///
    /// 1. the checker analyzes the batch against this peer's current
    ///    state; any [`crate::Severity::Error`] diagnostic rejects the
    ///    whole batch with [`WdlError::Rejected`] **before any fact,
    ///    rule or declaration is applied** (and hence before anything
    ///    can be emitted to other peers);
    /// 2. the batch is validated against the engine's intrinsic rules
    ///    (schema compatibility, fact ownership and arity,
    ///    [`WRule::validate`]) on scratch state — a validation failure
    ///    also leaves the peer untouched;
    /// 3. declarations, rules and facts are applied, in that order.
    ///
    /// Warnings do not block: they are returned in the
    /// [`crate::InstallReport`] and recorded on the trace stream as
    /// [`crate::TraceEvent::AnalyzerDiagnostic`] events when a sink is
    /// installed.
    pub fn install(
        &mut self,
        batch: crate::ProgramBatch,
        check: &dyn crate::ProgramCheck,
    ) -> Result<crate::InstallReport> {
        let diags = check.check(self, &batch);
        if diags.iter().any(|d| d.is_error()) {
            return Err(WdlError::Rejected(diags));
        }

        // Validate the whole batch on scratch state before mutating.
        let mut scratch = self.schema.clone();
        for &(rel, arity, kind) in &batch.declarations {
            scratch.declare(rel, arity, kind)?;
        }
        for fact in &batch.facts {
            if fact.peer != self.name {
                return Err(WdlError::SchemaViolation(format!(
                    "fact {fact} is addressed to peer {}, not {}",
                    fact.peer, self.name
                )));
            }
            match scratch.get(fact.rel) {
                Some(decl) if decl.kind != RelationKind::Extensional => {
                    return Err(WdlError::SchemaViolation(format!(
                        "fact {fact} targets intensional relation {}",
                        fact.rel
                    )));
                }
                Some(decl) if decl.arity != fact.tuple.len() => {
                    return Err(WdlError::SchemaViolation(format!(
                        "fact {fact} has arity {}, relation {} is declared with {}",
                        fact.tuple.len(),
                        fact.rel,
                        decl.arity
                    )));
                }
                Some(_) => {}
                // insert_local auto-declares unknown relations as
                // extensional; mirror that here so later facts of the
                // same relation are checked against the first's arity.
                None => scratch.declare(fact.rel, fact.tuple.len(), RelationKind::Extensional)?,
            }
        }
        for (rule, _span) in &batch.rules {
            rule.validate()?;
        }

        // Apply. Every step below is infallible given the validation
        // above succeeded against the same scratch schema.
        let mut report = crate::InstallReport {
            declarations: batch.declarations.len(),
            ..Default::default()
        };
        for (rel, arity, kind) in batch.declarations {
            self.declare(rel, arity, kind)?;
        }
        for (rule, _span) in batch.rules {
            report.rules.push(self.push_rule(rule));
        }
        for fact in batch.facts {
            if self.insert_local(fact.rel, fact.tuple.to_vec())? {
                report.facts += 1;
            }
        }

        let me = self.name;
        if let Some(tr) = self.tracer.as_mut() {
            for d in &diags {
                tr.record(crate::TraceEvent::AnalyzerDiagnostic {
                    peer: me,
                    code: d.code.number(),
                    severity: match d.severity {
                        crate::Severity::Warning => 0,
                        crate::Severity::Error => 1,
                    },
                });
            }
        }
        report.warnings = diags;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Rule management (the demo UI's inspect / add / remove, Figure 3)
    // ------------------------------------------------------------------

    /// Adds a rule after [`WRule::validate`]. Returns its id.
    pub fn add_rule(&mut self, rule: WRule) -> Result<RuleId> {
        rule.validate()?;
        Ok(self.push_rule(rule))
    }

    /// Appends an already validated rule.
    fn push_rule(&mut self, rule: WRule) -> RuleId {
        let id = RuleId {
            peer: self.name,
            idx: self.next_rule_idx,
        };
        self.next_rule_idx += 1;
        self.rules.push(RuleEntry { id, rule });
        self.ruleset_epoch += 1;
        self.meta_dirty = true;
        id
    }

    /// Removes a rule by id. Delegations it produced are revoked at the next
    /// stage (the diff notices their absence).
    pub fn remove_rule(&mut self, id: RuleId) -> Result<WRule> {
        let idx = self
            .rules
            .iter()
            .position(|e| e.id == id)
            .ok_or_else(|| WdlError::UnknownRule(id.to_string()))?;
        self.ruleset_epoch += 1;
        self.meta_dirty = true;
        Ok(self.rules.remove(idx).rule)
    }

    /// Replaces the body/head of an existing rule (the demo's "customize a
    /// rule" flow), keeping its id.
    pub fn replace_rule(&mut self, id: RuleId, rule: WRule) -> Result<WRule> {
        rule.validate()?;
        let entry = self
            .rules
            .iter_mut()
            .find(|e| e.id == id)
            .ok_or_else(|| WdlError::UnknownRule(id.to_string()))?;
        self.ruleset_epoch += 1;
        self.meta_dirty = true;
        Ok(std::mem::replace(&mut entry.rule, rule))
    }

    /// The peer's own rules.
    pub fn rules(&self) -> &[RuleEntry] {
        &self.rules
    }

    /// Rules installed here by other peers.
    pub fn installed_delegations(&self) -> &[Delegation] {
        &self.delegated
    }

    /// Delegations waiting for user approval.
    pub fn pending_delegations(&self) -> &[crate::PendingDelegation] {
        self.acl.pending()
    }

    /// Approves a pending delegation: it becomes an installed rule, effective
    /// at the next stage (the demo: "the program of Jules is changed once the
    /// approval is granted").
    pub fn approve_delegation(&mut self, id: DelegationId) -> Result<()> {
        let d = self
            .acl
            .take_pending(id)
            .ok_or_else(|| WdlError::UnknownRule(format!("pending delegation {id}")))?;
        self.meta_dirty = true;
        self.install_delegation(d)
    }

    /// Rejects (drops) a pending delegation.
    pub fn reject_delegation(&mut self, id: DelegationId) -> Result<()> {
        if self.acl.drop_pending(id) {
            self.meta_dirty = true;
            Ok(())
        } else {
            Err(WdlError::UnknownRule(format!("pending delegation {id}")))
        }
    }

    /// Installs a delegation directly after [`WRule::validate`], bypassing
    /// the approval queue — the owner's prerogative (used by approval
    /// itself, by state restore, and by tests). Remote peers can only
    /// install through messages, which are gated by the ACL. Installing
    /// an already installed delegation is a no-op.
    pub fn install_delegation(&mut self, d: Delegation) -> Result<()> {
        if !self.delegated.iter().any(|x| x.id == d.id) {
            d.rule.validate()?;
            self.delegated.push(d);
            self.meta_dirty = true;
        }
        Ok(())
    }

    pub(crate) fn remove_delegation(&mut self, id: DelegationId) -> bool {
        let before = self.delegated.len();
        self.delegated.retain(|d| d.id != id);
        if self.delegated.len() != before {
            self.meta_dirty = true;
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Fact management
    // ------------------------------------------------------------------

    /// Inserts a fact into a local extensional relation, effective
    /// immediately (used for setup and by the GUI-replacement drivers).
    /// Auto-declares unknown relations as extensional.
    pub fn insert_local(&mut self, rel: impl Into<Symbol>, values: Vec<Value>) -> Result<bool> {
        let rel = rel.into();
        self.ensure_extensional(rel, values.len())?;
        self.write_base(rel, values.into(), true)
    }

    /// Deletes a fact from a local extensional relation.
    pub fn delete_local(&mut self, rel: impl Into<Symbol>, values: Vec<Value>) -> Result<bool> {
        let rel = rel.into();
        if self.schema.kind_of(rel) != Some(RelationKind::Extensional) {
            return Err(WdlError::SchemaViolation(format!(
                "cannot delete from non-extensional relation {rel}"
            )));
        }
        self.write_base(rel, values.into(), false)
    }

    /// Sends an explicit insertion to another peer's extensional relation
    /// (delivered with the next stage's messages).
    pub fn insert_remote(
        &mut self,
        target: impl Into<Symbol>,
        rel: impl Into<Symbol>,
        values: Vec<Value>,
    ) {
        let target = target.into();
        self.outbox_explicit.push(Message::new(
            self.name,
            target,
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new(rel.into(), target, values)],
                retractions: vec![],
            },
        ));
    }

    /// Sends an explicit deletion to another peer's extensional relation.
    pub fn delete_remote(
        &mut self,
        target: impl Into<Symbol>,
        rel: impl Into<Symbol>,
        values: Vec<Value>,
    ) {
        let target = target.into();
        self.outbox_explicit.push(Message::new(
            self.name,
            target,
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![],
                retractions: vec![WFact::new(rel.into(), target, values)],
            },
        ));
    }

    /// Queues an incoming message for the next stage.
    pub fn enqueue(&mut self, msg: Message) {
        self.inbox.push(msg);
    }

    /// True iff messages are waiting to be ingested.
    pub fn has_pending_input(&self) -> bool {
        !self.inbox.is_empty()
            || !self.pending_updates.is_empty()
            || !self.outbox_explicit.is_empty()
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Current tuples of a declared local relation, read from the view:
    /// an extensional relation as of its last write, an intensional one
    /// as of the last completed stage. An undeclared relation reads
    /// nothing.
    pub fn relation_facts(&self, rel: impl Into<Symbol>) -> Vec<Tuple> {
        let rel = rel.into();
        let q = qualify(rel, self.name);
        let view = &self.incr.view;
        let rows = match self.schema.kind_of(rel) {
            Some(RelationKind::Extensional) => view.base_relation(q),
            Some(RelationKind::Intensional) => view.database().relation(q),
            None => None,
        };
        rows.map(|r| r.iter().collect()).unwrap_or_default()
    }

    /// Runs an ad-hoc query — a rule body — against the peer's current
    /// state (the view: extensional facts as of their last write, the
    /// last stage's derivations), and returns every satisfying
    /// substitution. This is the demo's *Query tab* ("launch one of the
    /// pre-defined queries, or write their own WebdamLog queries", §4).
    ///
    /// Queries are local: every atom must name this peer. Querying remote
    /// relations requires a rule (and hence delegation) — queries are
    /// read-only and instantaneous by design.
    ///
    /// The body runs as a compiled register-file plan
    /// ([`wdl_datalog::eval::BodyPlan`]) whatever
    /// [`Peer::set_compiled_stage`] selects; a body the plan compiler
    /// rejects (a variable read before anything binds it) returns that
    /// error.
    pub fn query(&self, body: &[crate::WBodyItem]) -> Result<Vec<wdl_datalog::Subst>> {
        let (compiled, db) = self.local_query(body, "query")?;
        let plan = wdl_datalog::eval::BodyPlan::compile(&compiled, &[])?;
        // Collect every match's registers, then resolve them all under one
        // interner lock: a lock round trip per value costs more than the
        // scan itself.
        let (mut rows, mut ids) = (0usize, Vec::new());
        let mut scratch = wdl_datalog::eval::BodyScratch::new();
        plan.run(db, &mut scratch, &[], &mut |regs| {
            rows += 1;
            ids.extend_from_slice(regs);
            Ok(())
        })?;
        let mut values = wdl_datalog::intern::resolve_row(&ids)
            .into_vec()
            .into_iter();
        // The bindings list every register, in register order: a row's
        // values pair with them one to one.
        let vars = plan.bindings();
        Ok((0..rows)
            .map(|_| vars.iter().map(|&(v, _)| v).zip(values.by_ref()).collect())
            .collect())
    }

    /// Runs a grouped aggregation over a local query body — the engine
    /// behind "select and rank photos based on their annotations" (§3.5).
    /// Same locality rules as [`Peer::query`].
    pub fn aggregate(
        &self,
        body: &[crate::WBodyItem],
        group_by: &[Symbol],
        func: wdl_datalog::aggregate::AggFunc,
        over: Option<Symbol>,
    ) -> Result<Vec<wdl_datalog::aggregate::AggRow>> {
        let (compiled, db) = self.local_query(body, "aggregate")?;
        let q = wdl_datalog::aggregate::AggQuery {
            body: compiled,
            group_by: group_by.to_vec(),
            func,
            over,
        };
        Ok(q.eval(db)?)
    }

    /// Translates a local query body (`what` names the caller in errors)
    /// into a kernel body over qualified predicates, read in place from
    /// the view's database: a query costs its matches, not a copy of the
    /// peer. An atom naming an undeclared relation keeps its bare name,
    /// which no view predicate has (they are all qualified), so it reads
    /// nothing even where a rule derived rows into the relation.
    fn local_query(
        &self,
        body: &[crate::WBodyItem],
        what: &str,
    ) -> Result<(Vec<wdl_datalog::BodyItem>, &Database)> {
        use wdl_datalog::BodyItem as DItem;
        let mut compiled: Vec<DItem> = Vec::with_capacity(body.len());
        for item in body {
            compiled.push(match item {
                crate::WBodyItem::Literal(l) => {
                    let (Some(rel), Some(peer)) = (l.atom.rel.as_name(), l.atom.peer.as_name())
                    else {
                        return Err(WdlError::UnsafeDistribution(format!(
                            "{what} atoms must have constant names: {}",
                            l.atom
                        )));
                    };
                    if peer != self.name {
                        return Err(WdlError::UnsafeDistribution(format!(
                            "{what} atom {} is not local to {} — use a rule for remote data",
                            l.atom, self.name
                        )));
                    }
                    let q = if self.schema.is_declared(rel) {
                        qualify(rel, self.name)
                    } else {
                        rel
                    };
                    let datom = wdl_datalog::Atom::new(q, l.atom.args.clone());
                    if l.negated {
                        DItem::not_atom(datom)
                    } else {
                        DItem::atom(datom)
                    }
                }
                crate::WBodyItem::Cmp { op, lhs, rhs } => DItem::cmp(*op, lhs.clone(), rhs.clone()),
                crate::WBodyItem::Assign { var, expr } => DItem::assign(*var, expr.clone()),
            });
        }
        Ok((compiled, self.incr.view.database()))
    }

    /// Like [`Peer::relation_facts`] but as printable [`WFact`]s.
    pub fn facts_of(&self, rel: impl Into<Symbol>) -> Vec<WFact> {
        let rel = rel.into();
        self.relation_facts(rel)
            .into_iter()
            .map(|tuple| WFact {
                rel,
                peer: self.name,
                tuple,
            })
            .collect()
    }

    /// Adds (`added`) or removes one base fact of local relation `rel` in
    /// the view, and returns whether the base changed. Every base write
    /// goes through here — local inserts and deletes, ingested facts and
    /// contributions, buffered self-updates — and the next stage maintains
    /// what it implies.
    ///
    /// This is also the single durability tap: an attached sink sees each
    /// change of an extensional relation, in order. Remote contributions
    /// to intensional relations pass through too but are transient, so
    /// the sink never sees them.
    pub(crate) fn write_base(&mut self, rel: Symbol, tuple: Tuple, added: bool) -> Result<bool> {
        let decl = self.schema.get(rel).copied();
        let fact = wdl_datalog::Fact {
            pred: qualify(rel, self.name),
            tuple,
        };
        if let Some(d) = decl.filter(|d| added && d.arity != fact.tuple.len()) {
            return Err(wdl_datalog::DatalogError::ArityMismatch {
                relation: fact.pred.to_string(),
                expected: d.arity,
                found: fact.tuple.len(),
            }
            .into());
        }
        let changed = self.incr.view.write_base(&fact, added)?;
        if changed && decl.is_some_and(|d| d.kind == RelationKind::Extensional) {
            if let Some(sink) = &mut self.durability {
                sink.record_fact(fact.pred, &fact.tuple, added);
            }
        }
        Ok(changed)
    }

    // ------------------------------------------------------------------
    // Session watermarks (reliable-delivery layer, `wdl-net::session`)
    // ------------------------------------------------------------------

    /// Records a session watermark observed by the transport layer:
    /// direction 0 = delivered-from-`remote`, 1 = acked-by-`remote`, at
    /// `(inc, seq)`. The update is monotone — an older incarnation, or an
    /// older seq within the same incarnation, is ignored — and is
    /// forwarded to the durability sink so the next group commit makes it
    /// crash-safe together with the facts it covers.
    pub fn note_session_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        if !self.restore_session_watermark(remote, dir, inc, seq) {
            return;
        }
        if let Some(sink) = &mut self.durability {
            sink.record_watermark(remote, dir, inc, seq);
        }
    }

    /// Restores a watermark during recovery (snapshot load or log replay)
    /// without echoing it back into the durability sink. Monotone like
    /// [`Peer::note_session_watermark`]; returns whether it advanced.
    pub fn restore_session_watermark(
        &mut self,
        remote: Symbol,
        dir: u8,
        inc: u64,
        seq: u64,
    ) -> bool {
        let key = (remote, dir);
        let newer = match self.session_watermarks.get(&key) {
            Some(&(old_inc, old_seq)) => inc > old_inc || (inc == old_inc && seq > old_seq),
            None => true,
        };
        if newer {
            self.session_watermarks.insert(key, (inc, seq));
        }
        newer
    }

    /// The peer's session watermarks: `(remote, direction) -> (remote
    /// incarnation, cumulative seq)`; direction 0 = delivered, 1 = acked.
    pub fn session_watermarks(&self) -> &BTreeMap<(Symbol, u8), (u64, u64)> {
        &self.session_watermarks
    }

    /// Forgets what was previously sent to `remote`, so the next stage
    /// re-emits this peer's full derived contribution to it; the delegation
    /// set is not re-sent. Called when the session layer detects that
    /// `remote` restarted with a new incarnation: the restarted peer lost
    /// its transient remote contributions, and the stage diff against
    /// `prev_sent` would otherwise never re-send them.
    pub fn resync_target(&mut self, remote: Symbol) {
        self.prev_sent.remove(&remote);
    }

    pub(crate) fn ensure_extensional(&mut self, rel: Symbol, arity: usize) -> Result<()> {
        match self.schema.kind_of(rel) {
            Some(RelationKind::Extensional) => {
                if self.schema.arity_of(rel) != Some(arity) {
                    return Err(WdlError::SchemaViolation(format!(
                        "relation {rel} has arity {:?}, got {arity}",
                        self.schema.arity_of(rel)
                    )));
                }
                Ok(())
            }
            Some(RelationKind::Intensional) => Err(WdlError::SchemaViolation(format!(
                "relation {rel} is intensional; only rules may write it"
            ))),
            None => self.declare(rel, arity, RelationKind::Extensional),
        }
    }
}

impl fmt::Debug for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Peer")
            .field("name", &self.name)
            .field("stage", &self.stage)
            .field("rules", &self.rules.len())
            .field("delegated", &self.delegated.len())
            .field("facts", &self.incr.view.database().fact_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_insert() {
        let mut p = Peer::new("alice");
        p.declare("pictures", 2, RelationKind::Extensional).unwrap();
        assert!(p
            .insert_local("pictures", vec![Value::from(1), Value::from("a.jpg")])
            .unwrap());
        assert!(!p
            .insert_local("pictures", vec![Value::from(1), Value::from("a.jpg")])
            .unwrap());
        assert_eq!(p.relation_facts("pictures").len(), 1);
        assert_eq!(
            p.facts_of("pictures")[0].to_string(),
            "pictures@alice(1, \"a.jpg\")"
        );
    }

    #[test]
    fn auto_declaration_on_insert() {
        let mut p = Peer::new("bob");
        p.insert_local("notes", vec![Value::from("hi")]).unwrap();
        assert_eq!(
            p.schema().kind_of(Symbol::intern("notes")),
            Some(RelationKind::Extensional)
        );
    }

    #[test]
    fn cannot_insert_into_intensional() {
        let mut p = Peer::new("carol");
        p.declare("view", 1, RelationKind::Intensional).unwrap();
        assert!(matches!(
            p.insert_local("view", vec![Value::from(1)]),
            Err(WdlError::SchemaViolation(_))
        ));
    }

    #[test]
    fn delete_local_works() {
        let mut p = Peer::new("dave");
        p.insert_local("r", vec![Value::from(1)]).unwrap();
        assert!(p.delete_local("r", vec![Value::from(1)]).unwrap());
        assert!(!p.delete_local("r", vec![Value::from(1)]).unwrap());
        assert!(p.relation_facts("r").is_empty());
    }

    #[test]
    fn rule_lifecycle() {
        let mut p = Peer::new("erin");
        let id = p
            .add_rule(WRule::example_attendee_pictures("erin"))
            .unwrap();
        assert_eq!(p.rules().len(), 1);
        let replaced = p
            .replace_rule(id, WRule::example_attendee_pictures("erin"))
            .unwrap();
        assert_eq!(replaced.to_string(), p.rules()[0].rule.to_string());
        p.remove_rule(id).unwrap();
        assert!(p.rules().is_empty());
        assert!(p.remove_rule(id).is_err());
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut p = Peer::new("frank");
        let bad = WRule::new(
            crate::WAtom::at("out", "frank", vec![wdl_datalog::Term::var("x")]),
            vec![],
        );
        assert!(p.add_rule(bad).is_err());
    }

    #[test]
    fn arity_enforced_on_insert() {
        let mut p = Peer::new("gina");
        p.declare("r", 2, RelationKind::Extensional).unwrap();
        assert!(p.insert_local("r", vec![Value::from(1)]).is_err());
    }

    /// Ids bound by `body` on `p`, sorted.
    fn query_ids(p: &Peer, body: &[crate::WBodyItem]) -> Vec<Value> {
        let mut ids: Vec<Value> = p
            .query(body)
            .unwrap()
            .iter()
            .map(|s| s.get(Symbol::intern("id")).unwrap().clone())
            .collect();
        ids.sort();
        ids
    }

    fn sorted_facts(p: &Peer, rel: &str) -> Vec<Tuple> {
        let mut rows = p.relation_facts(rel);
        rows.sort();
        rows
    }

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::from(v)).collect()
    }

    /// Queries read extensional and intensional atoms, alone or joined,
    /// from the one database. Extensional writes show at once;
    /// intensional rows stay at the last stage until the next one.
    #[test]
    fn query_reads_store_and_derived() {
        use crate::{WAtom, WBodyItem, WLiteral};
        use wdl_datalog::{CmpOp, Term};
        let mut p = Peer::new("query-peer");
        p.declare("good", 1, RelationKind::Intensional).unwrap();
        for (id, r) in [(1, 5), (2, 2), (3, 4)] {
            p.insert_local("rate", ints(&[id, r])).unwrap();
        }
        let rate: WBodyItem =
            WAtom::at("rate", "query-peer", vec![Term::var("id"), Term::var("r")]).into();
        let high = WBodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4));
        let good = WAtom::at("good", "query-peer", vec![Term::var("id")]);
        p.add_rule(WRule::new(good.clone(), vec![rate.clone(), high.clone()]))
            .unwrap();
        p.run_stage().unwrap();
        let joined = [good.clone().into(), rate.clone()];
        assert_eq!(query_ids(&p, &[rate.clone(), high.clone()]), ints(&[1, 3]));
        assert_eq!(query_ids(&p, &[good.clone().into()]), ints(&[1, 3]));
        assert_eq!(query_ids(&p, &joined), ints(&[1, 3]));
        let not_good = [rate.clone(), WBodyItem::Literal(WLiteral::neg(good))];
        assert_eq!(query_ids(&p, &not_good), ints(&[2]));

        // Writes since the last stage: visible at once, alone and joined.
        p.insert_local("rate", ints(&[4, 5])).unwrap();
        p.delete_local("rate", ints(&[1, 5])).unwrap();
        assert_eq!(
            sorted_facts(&p, "rate"),
            vec![
                ints(&[2, 2]).into(),
                ints(&[3, 4]).into(),
                ints(&[4, 5]).into()
            ]
        );
        assert_eq!(query_ids(&p, &[rate.clone(), high]), ints(&[3, 4]));
        assert_eq!(query_ids(&p, &joined), ints(&[3]));
        // ... while the intensional rows are the last stage's.
        assert_eq!(
            sorted_facts(&p, "good"),
            vec![ints(&[1]).into(), ints(&[3]).into()]
        );
        assert_eq!(query_ids(&p, &not_good), ints(&[2, 4]));

        p.run_stage().unwrap();
        assert_eq!(
            sorted_facts(&p, "good"),
            vec![ints(&[3]).into(), ints(&[4]).into()]
        );
        assert_eq!(query_ids(&p, &joined), ints(&[3, 4]));
        assert_eq!(query_ids(&p, &not_good), ints(&[2]));
    }

    /// A rule may derive into a relation nobody declared; the rows live in
    /// the view, but reads of the undeclared relation see nothing.
    #[test]
    fn undeclared_relation_reads_nothing() {
        use crate::WAtom;
        use wdl_datalog::aggregate::AggFunc;
        use wdl_datalog::Term;
        let mut p = Peer::new("undeclared-peer");
        p.insert_local("rate", ints(&[1, 5])).unwrap();
        let shadow = WAtom::at("shadow", "undeclared-peer", vec![Term::var("id")]);
        let rate = WAtom::at(
            "rate",
            "undeclared-peer",
            vec![Term::var("id"), Term::var("r")],
        );
        p.add_rule(WRule::new(shadow.clone(), vec![rate.into()]))
            .unwrap();
        p.run_stage().unwrap();
        assert!(p.relation_facts("shadow").is_empty());
        assert!(p.query(&[shadow.clone().into()]).unwrap().is_empty());
        let rows = p
            .aggregate(
                &[shadow.into()],
                &[Symbol::intern("id")],
                AggFunc::Count,
                None,
            )
            .unwrap();
        assert!(rows.is_empty());
    }

    /// A stage that fails mid-fixpoint loses no extensional fact, and the
    /// next good stage computes what a fresh peer computes.
    #[test]
    fn failed_stage_keeps_facts_and_recovers() {
        use crate::{NameTerm, WAtom, WBodyItem};
        use wdl_datalog::{CmpOp, Term};
        let build = |name: &str| {
            let mut p = Peer::new(name);
            p.declare("good", 1, RelationKind::Intensional).unwrap();
            p.declare("mirror", 1, RelationKind::Intensional).unwrap();
            for id in [1, 2, 3] {
                p.insert_local("rate", ints(&[id, id + 2])).unwrap();
            }
            let rate = WAtom::at("rate", name, vec![Term::var("id"), Term::var("r")]);
            let good = WAtom::at("good", name, vec![Term::var("id")]);
            let high = WBodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4));
            p.add_rule(WRule::new(good, vec![rate.into(), high]))
                .unwrap();
            // `$rel@name($x) :- pick@name($rel, $x)` fills `mirror` in the
            // dynamic layer's first round; `$x@name(1) :- mirror@name($x)`
            // reads it in the second, and an integer in `mirror` fails the
            // stage there with `BadNameBinding`.
            let var_rel =
                |rel: &str, args| WAtom::new(NameTerm::var(rel), NameTerm::name(name), args);
            let pick = WAtom::at("pick", name, vec![Term::var("rel"), Term::var("x")]);
            p.add_rule(WRule::new(
                var_rel("rel", vec![Term::var("x")]),
                vec![pick.into()],
            ))
            .unwrap();
            let mirror = WAtom::at("mirror", name, vec![Term::var("x")]);
            p.add_rule(WRule::new(
                var_rel("x", vec![Term::cst(1)]),
                vec![mirror.into()],
            ))
            .unwrap();
            p.insert_local("pick", vec![Value::from("mirror"), Value::from("seen")])
                .unwrap();
            p
        };
        let mut p = build("failing-peer");
        p.run_stage().unwrap();
        p.insert_local("rate", ints(&[4, 9])).unwrap();
        p.delete_local("rate", ints(&[1, 3])).unwrap();
        let bad = vec![Value::from("mirror"), Value::from(7)];
        p.insert_local("pick", bad.clone()).unwrap();
        assert!(matches!(p.run_stage(), Err(WdlError::BadNameBinding(_))));
        let rate = vec![
            ints(&[2, 4]).into(),
            ints(&[3, 5]).into(),
            ints(&[4, 9]).into(),
        ];
        assert_eq!(sorted_facts(&p, "rate"), rate);
        assert_eq!(sorted_facts(&p, "pick").len(), 2);

        p.delete_local("pick", bad).unwrap();
        p.run_stage().unwrap();
        let mut fresh = build("failing-peer");
        fresh.delete_local("rate", ints(&[1, 3])).unwrap();
        fresh.insert_local("rate", ints(&[4, 9])).unwrap();
        fresh.run_stage().unwrap();
        for rel in ["rate", "pick", "good", "mirror"] {
            assert_eq!(sorted_facts(&p, rel), sorted_facts(&fresh, rel), "{rel}");
        }
        assert_eq!(sorted_facts(&p, "good").len(), 3);
        assert_eq!(
            sorted_facts(&p, "mirror"),
            vec![vec![Value::from("seen")].into()]
        );
    }

    /// Declaring a relation extensional turns rows a rule derived into it
    /// while it was undeclared back into soft state: they are not facts.
    #[test]
    fn declaring_extensional_drops_derived_rows() {
        use crate::{NameTerm, WAtom};
        use wdl_datalog::Term;
        let mut p = Peer::new("declare-peer");
        let head = WAtom::new(
            NameTerm::var("rel"),
            NameTerm::name("declare-peer"),
            vec![Term::var("x")],
        );
        let pick = WAtom::at(
            "pick",
            "declare-peer",
            vec![Term::var("rel"), Term::var("x")],
        );
        p.add_rule(WRule::new(head, vec![pick.into()])).unwrap();
        p.insert_local("pick", vec![Value::from("shadow"), Value::from(1)])
            .unwrap();
        p.run_stage().unwrap();
        assert!(p.insert_local("shadow", ints(&[2])).unwrap());
        assert_eq!(sorted_facts(&p, "shadow"), vec![ints(&[2]).into()]);
        let exported = p.export_extensional();
        assert_eq!(
            exported
                .iter()
                .find(|(rel, _)| rel.as_str() == "shadow")
                .map(|(_, dump)| dump.rows),
            Some(1)
        );
    }

    /// Pin: a failed stage leaves the view part-maintained, so until the
    /// next stage intensional reads show what the interrupted stage had
    /// derived — the compiled layer's maintenance and the dynamic layer's
    /// completed rounds. The next good stage rebuilds and drops them.
    #[test]
    fn intensional_reads_after_failed_stage_show_interrupted_stage() {
        use crate::{NameTerm, WAtom, WBodyItem};
        use wdl_datalog::{CmpOp, Term};
        let me = "interrupted-peer";
        let mut p = Peer::new(me);
        p.declare("good", 1, RelationKind::Intensional).unwrap();
        p.declare("mirror", 1, RelationKind::Intensional).unwrap();
        let rate = WAtom::at("rate", me, vec![Term::var("id"), Term::var("r")]);
        let high = WBodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4));
        let good = WAtom::at("good", me, vec![Term::var("id")]);
        p.add_rule(WRule::new(good, vec![rate.into(), high]))
            .unwrap();
        // Round 1 copies `pick` rows into the relation they name; round 2
        // uses `mirror` rows as relation names, and an integer fails it.
        let var_rel = |rel: &str, args| WAtom::new(NameTerm::var(rel), NameTerm::name(me), args);
        let pick = WAtom::at("pick", me, vec![Term::var("rel"), Term::var("x")]);
        p.add_rule(WRule::new(
            var_rel("rel", vec![Term::var("x")]),
            vec![pick.into()],
        ))
        .unwrap();
        let mirror = WAtom::at("mirror", me, vec![Term::var("x")]);
        p.add_rule(WRule::new(
            var_rel("x", vec![Term::cst(1)]),
            vec![mirror.into()],
        ))
        .unwrap();
        p.insert_local("rate", ints(&[1, 5])).unwrap();
        p.run_stage().unwrap();
        assert_eq!(sorted_facts(&p, "good"), vec![ints(&[1]).into()]);
        assert!(sorted_facts(&p, "mirror").is_empty());

        p.insert_local("rate", ints(&[2, 9])).unwrap();
        let bad = vec![Value::from("mirror"), Value::from(7)];
        p.insert_local("pick", bad.clone()).unwrap();
        assert!(matches!(p.run_stage(), Err(WdlError::BadNameBinding(_))));
        assert_eq!(
            sorted_facts(&p, "good"),
            vec![ints(&[1]).into(), ints(&[2]).into()]
        );
        assert_eq!(sorted_facts(&p, "mirror"), vec![ints(&[7]).into()]);

        p.delete_local("pick", bad).unwrap();
        p.run_stage().unwrap();
        assert_eq!(
            sorted_facts(&p, "good"),
            vec![ints(&[1]).into(), ints(&[2]).into()]
        );
        assert!(sorted_facts(&p, "mirror").is_empty());
    }

    /// Pin: declaring a relation intensional exposes, until the next
    /// stage, rows the dynamic layer derived into it while it was
    /// undeclared — even when their support is already gone.
    #[test]
    fn newly_intensional_relation_shows_rows_derived_while_undeclared() {
        use crate::{NameTerm, WAtom};
        use wdl_datalog::Term;
        let me = "late-intensional";
        let mut p = Peer::new(me);
        let head = WAtom::new(
            NameTerm::var("rel"),
            NameTerm::name(me),
            vec![Term::var("x")],
        );
        let pick = WAtom::at("pick", me, vec![Term::var("rel"), Term::var("x")]);
        p.add_rule(WRule::new(head, vec![pick.into()])).unwrap();
        let row = vec![Value::from("shadow"), Value::from(1)];
        p.insert_local("pick", row.clone()).unwrap();
        p.run_stage().unwrap();
        assert!(p.relation_facts("shadow").is_empty());

        p.delete_local("pick", row).unwrap();
        p.declare("shadow", 1, RelationKind::Intensional).unwrap();
        assert_eq!(sorted_facts(&p, "shadow"), vec![ints(&[1]).into()]);
        p.run_stage().unwrap();
        assert!(p.relation_facts("shadow").is_empty());
    }

    /// Pin: declaring a relation extensional does not retract what the
    /// compiled program derived into it. Until the next stage rebuilds
    /// the program, a query body over the relation sees those derived
    /// rows, while `relation_facts` and exports read its (empty) base.
    #[test]
    fn query_over_newly_extensional_relation_sees_derived_rows_until_next_stage() {
        use crate::WAtom;
        use wdl_datalog::Term;
        let me = "late-extensional";
        let mut p = Peer::new(me);
        let v = WAtom::at("v", me, vec![Term::var("id")]);
        let item = WAtom::at("item", me, vec![Term::var("id")]);
        p.add_rule(WRule::new(v.clone(), vec![item.into()]))
            .unwrap();
        p.insert_local("item", ints(&[1])).unwrap();
        p.run_stage().unwrap();

        p.declare("v", 1, RelationKind::Extensional).unwrap();
        let body = [v.into()];
        assert_eq!(query_ids(&p, &body), ints(&[1]));
        assert!(p.relation_facts("v").is_empty());
        let exported = p.export_extensional();
        let (_, dump) = exported
            .iter()
            .find(|(rel, _)| rel.as_str() == "v")
            .unwrap();
        assert_eq!(dump.rows, 0);

        // The rebuilt program no longer derives `v`: the rule's head is
        // extensional now, so it buffers `v(1)` as a self-update, which
        // the stage after applies as a fact.
        p.run_stage().unwrap();
        assert!(query_ids(&p, &body).is_empty());
        assert!(p.relation_facts("v").is_empty());
        p.run_stage().unwrap();
        assert_eq!(query_ids(&p, &body), ints(&[1]));
        assert_eq!(sorted_facts(&p, "v"), vec![ints(&[1]).into()]);
    }

    /// Pin: a rebuild that fails keeps the replaced view whole. A swapped
    /// in rule whose from-scratch build divides by zero fails every stage
    /// until it is swapped back, and meanwhile the extensional rows and
    /// the replaced view's derivations stay readable.
    #[test]
    fn failed_rebuild_keeps_replaced_view() {
        use crate::{WAtom, WBodyItem};
        use wdl_datalog::{BinOp, Expr, Term};
        let me = "rebuild-peer";
        let mut p = Peer::new(me);
        p.declare("q", 2, RelationKind::Intensional).unwrap();
        p.insert_local("r", ints(&[1, 0])).unwrap();
        p.insert_local("r", ints(&[4, 2])).unwrap();
        let r: WBodyItem = WAtom::at("r", me, vec![Term::var("x"), Term::var("y")]).into();
        let q = |out: &str| WAtom::at("q", me, vec![Term::var("x"), Term::var(out)]);
        let copy = WRule::new(q("y"), vec![r.clone()]);
        let id = p.add_rule(copy.clone()).unwrap();
        p.run_stage().unwrap();
        let rows: Vec<Tuple> = vec![ints(&[1, 0]).into(), ints(&[4, 2]).into()];
        assert_eq!(sorted_facts(&p, "q"), rows);

        let quotient = Expr::bin(
            BinOp::Div,
            Expr::term(Term::var("x")),
            Expr::term(Term::var("y")),
        );
        let divide = WRule::new(q("z"), vec![r, WBodyItem::assign("z", quotient)]);
        p.replace_rule(id, divide).unwrap();
        for _ in 0..2 {
            let err = p.run_stage().unwrap_err().to_string();
            assert!(err.contains("arithmetic error: division by zero"), "{err}");
            assert_eq!(sorted_facts(&p, "r"), rows);
            assert_eq!(sorted_facts(&p, "q"), rows);
        }
        p.replace_rule(id, copy).unwrap();
        p.run_stage().unwrap();
        assert_eq!(sorted_facts(&p, "r"), rows);
        assert_eq!(sorted_facts(&p, "q"), rows);
    }

    /// Pin: a rebuild leaves an extensional relation's index cache as a
    /// fresh copy of its rows would have it. An index a query built on
    /// the replaced view is not carried into the new one, whose build
    /// only scans the relation.
    #[test]
    fn rebuild_starts_extensional_indexes_cold() {
        use crate::{WAtom, WBodyItem};
        use wdl_datalog::Term;
        let me = "index-peer";
        let mut p = Peer::new(me);
        p.declare("q", 2, RelationKind::Intensional).unwrap();
        p.insert_local("r", ints(&[1, 2])).unwrap();
        p.insert_local("r", ints(&[3, 4])).unwrap();
        let r = |x: Term| -> WBodyItem { WAtom::at("r", me, vec![x, Term::var("y")]).into() };
        let copy = WRule::new(
            WAtom::at("q", me, vec![Term::var("x"), Term::var("y")]),
            vec![r(Term::var("x"))],
        );
        let id = p.add_rule(copy.clone()).unwrap();
        p.run_stage().unwrap();
        let rel = crate::qualify(Symbol::intern("r"), p.name());
        let cached = |p: &Peer| p.incr.view.base_relation(rel).unwrap().cached_indexes();
        assert_eq!(cached(&p), 0);
        // Binding r's first column probes, and so builds, an index on it.
        assert_eq!(p.query(&[r(Term::cst(1))]).unwrap().len(), 1);
        assert_eq!(cached(&p), 1);

        p.replace_rule(id, copy).unwrap();
        p.run_stage().unwrap();
        assert_eq!(cached(&p), 0);
        assert_eq!(sorted_facts(&p, "q").len(), 2);
    }

    /// An ingested fact whose arity differs from the declaration fails
    /// the stage and leaves the relation as it was.
    #[test]
    fn ingested_arity_mismatch_is_rejected() {
        let mut p = Peer::new("arity-peer");
        p.declare("r", 2, RelationKind::Extensional).unwrap();
        p.enqueue(Message::new(
            Symbol::intern("other"),
            Symbol::intern("arity-peer"),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new("r", "arity-peer", ints(&[1]))],
                retractions: vec![],
            },
        ));
        let err = p.run_stage().unwrap_err();
        assert!(
            matches!(
                err,
                WdlError::Datalog(wdl_datalog::DatalogError::ArityMismatch { .. })
            ),
            "{err}"
        );
        assert!(p.relation_facts("r").is_empty());
        p.insert_local("r", ints(&[1, 2])).unwrap();
        assert_eq!(p.relation_facts("r").len(), 1);
    }

    #[test]
    fn aggregate_groups_and_folds() {
        use crate::WAtom;
        use wdl_datalog::aggregate::AggFunc;
        use wdl_datalog::Term;
        let mut p = Peer::new("agg-peer");
        for (pic, r) in [(1, 5), (1, 3), (2, 4)] {
            p.insert_local("rate", vec![Value::from(pic), Value::from(r)])
                .unwrap();
        }
        let body =
            vec![WAtom::at("rate", "agg-peer", vec![Term::var("pic"), Term::var("r")]).into()];
        let rows = p
            .aggregate(
                &body,
                &[Symbol::intern("pic")],
                AggFunc::Avg,
                Some(Symbol::intern("r")),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value, Value::from(4)); // pic 1: (5+3)/2
        assert_eq!(rows[1].value, Value::from(4)); // pic 2: 4
    }

    /// Every match is one substitution holding exactly the body's
    /// variables — none for a ground body — and a body the plan compiler
    /// rejects is an error even where nothing would reach the bad item.
    #[test]
    fn query_binds_each_match() {
        use crate::{WAtom, WBodyItem};
        use wdl_datalog::{CmpOp, Subst, Term};
        let mut p = Peer::new("q");
        for (id, r) in [(1, 5), (2, 3)] {
            p.insert_local("rate", vec![Value::from(id), Value::from(r)])
                .unwrap();
        }
        let rate = |id: Term| WAtom::at("rate", "q", vec![id, Term::var("r")]);
        let rows = p.query(&[rate(Term::var("id")).into()]).unwrap();
        let mut got: Vec<(Value, Value)> = rows
            .iter()
            .map(|s| {
                let get = |v: &str| s.get(Symbol::intern(v)).unwrap().clone();
                (get("id"), get("r"))
            })
            .collect();
        got.sort();
        assert_eq!(
            got,
            [(1, 5), (2, 3)].map(|(i, r)| (Value::from(i), Value::from(r)))
        );
        let ground = WAtom::at("rate", "q", vec![Term::cst(1), Term::cst(5)]);
        assert_eq!(p.query(&[ground.into()]).unwrap(), vec![Subst::new()]);
        let unbound = [
            WBodyItem::cmp(CmpOp::Ge, Term::var("r"), Term::cst(4)),
            rate(Term::var("id")).into(),
        ];
        assert!(matches!(p.query(&unbound), Err(WdlError::Datalog(_))));
    }

    #[test]
    fn query_rejects_remote_atoms() {
        use crate::WAtom;
        use wdl_datalog::Term;
        let p = Peer::new("query-local");
        let body = vec![WAtom::at("r", "elsewhere", vec![Term::var("x")]).into()];
        assert!(matches!(
            p.query(&body),
            Err(WdlError::UnsafeDistribution(_))
        ));
    }

    #[test]
    fn explicit_remote_updates_buffer_in_outbox() {
        let mut p = Peer::new("henry");
        p.insert_remote("sigmod", "pictures", vec![Value::from(1)]);
        p.delete_remote("sigmod", "pictures", vec![Value::from(2)]);
        assert!(p.has_pending_input());
        assert_eq!(p.outbox_explicit.len(), 2);
    }
}

//! Compiled stage-layer rule plans: the WebdamLog matcher on the
//! register-file plan engine.
//!
//! The stage evaluates every rule — own and delegated — through a
//! [`CompiledRule`], built **once per (rule, ruleset epoch, policy
//! epoch)**:
//!
//! 1. **Classification.** The body splits at the first item the compiled
//!    engine cannot run as a local scan: a literal whose peer is a constant
//!    other than `me` (the delegation split the paper prescribes), a literal
//!    with a *variable* relation or peer name (resolvable only from runtime
//!    bindings), or — for delegated rules — the first local literal whose
//!    relation the origin may not read (the per-literal ACL read gate,
//!    hoisted to compile time per origin; every `Peer::acl_mut` bumps
//!    the peer's policy epoch, invalidating the cache).
//! 2. **Prefix compilation.** Everything before the cut — local
//!    constant-named literals (positive and negated), comparisons,
//!    assignments — compiles to a [`wdl_datalog::eval::BodyPlan`]: a
//!    register-file plan that yields the register file of every satisfying
//!    assignment instead of firing a head.
//! 3. **Cut action.** What happens per yielded register file depends on the
//!    [`Cut`]: fire the head (fully local body), count a blocked read
//!    (hoisted ACL gate), or [`Split`] at a literal that is not local at
//!    compile time. A split resolves that literal's peer from the
//!    registers. A remote peer receives the instantiated remainder as a
//!    delegation, deduplicated on the registers the remainder reads. `me`
//!    runs a *continuation*: the remainder classified again with the
//!    resolved names constant and the live registers prebound, cached per
//!    resolved relation name.
//!
//! A rule the classifier cannot compile is a typed error at the stage;
//! [`WRule::validate`] refuses every such rule at install and at
//! delegation ingest. The `Subst` interpreter stays selectable as the
//! semantic reference via [`crate::Peer::set_compiled_stage`]`(false)` —
//! mirroring the datalog kernel's `EvalConfig::with_compiled(false)` — and
//! the stage-parity property suite (`tests/stage_parity.rs`) pins the two
//! paths to identical outcomes, delegations, and blocked-read counts.

use crate::stage::EvalCtx;
use crate::{qualify, NameTerm, Result, WAtom, WBodyItem, WLiteral, WRule, WdlError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use wdl_datalog::eval::{BodyPlan, BodyScratch};
use wdl_datalog::intern::ValueId;
use wdl_datalog::{Atom as DAtom, BodyItem as DItem, Subst, Symbol, Term, Value};

/// Where a name (relation or peer position) comes from at run time.
pub(crate) enum NameSrc {
    /// Constant name.
    Const(Symbol),
    /// Register holding a (string) value; the `Symbol` is the variable's
    /// name, kept for parity-faithful error messages.
    Reg(u16, Symbol),
}

impl NameSrc {
    /// The source of `name` under `plan`; `None` for a variable the plan
    /// does not bind.
    fn of(name: &NameTerm, plan: &BodyPlan) -> Option<NameSrc> {
        match name {
            NameTerm::Name(s) => Some(NameSrc::Const(*s)),
            NameTerm::Var(v) => Some(NameSrc::Reg(plan.register_of(*v)?, *v)),
        }
    }
}

/// Where a head-column value comes from at emission time.
pub(crate) enum ArgSrc {
    /// Constant value.
    Const(Value),
    /// Register.
    Reg(u16),
}

/// A fully-local rule's head, resolvable straight from the register file.
pub(crate) struct HeadPlan {
    pub(crate) rel: NameSrc,
    pub(crate) peer: NameSrc,
    pub(crate) args: Vec<ArgSrc>,
}

impl HeadPlan {
    fn build(head: &WAtom, plan: &BodyPlan) -> Option<HeadPlan> {
        let mut args = Vec::with_capacity(head.args.len());
        for t in &head.args {
            args.push(match t {
                Term::Const(v) => ArgSrc::Const(v.clone()),
                Term::Var(v) => ArgSrc::Reg(plan.register_of(*v)?),
            });
        }
        Some(HeadPlan {
            rel: NameSrc::of(&head.rel, plan)?,
            peer: NameSrc::of(&head.peer, plan)?,
            args,
        })
    }
}

/// What happens when the compiled prefix yields a register file.
pub(crate) enum Cut {
    /// The prefix is the whole body: fire the head.
    Head(HeadPlan),
    /// The cut literal is ACL-blocked for this origin: count one blocked
    /// read per yielded binding (hoisted per-literal read gate).
    Blocked,
    /// The cut literal is not local at compile time.
    Split(Box<Split>),
}

/// A cut at `body[idx]`, a literal whose peer is a constant other than
/// `me` or whose relation or peer name is a variable. Per yielded register
/// file, the peer name resolves; a remote peer receives the remainder
/// `body[idx..]` as a delegation, and `me` runs the continuation compiled
/// for the resolved relation name.
pub(crate) struct Split {
    pub(crate) idx: usize,
    /// Variables the remainder or the head reads, with their registers:
    /// the delegation dedup key and the continuation's seed.
    pub(crate) live: Vec<(Symbol, u16)>,
    pub(crate) rel: NameSrc,
    pub(crate) peer: NameSrc,
    /// Continuations of `body[idx..]`, keyed by resolved relation name.
    /// They live and die with this plan, so the same epochs invalidate
    /// them.
    pub(crate) conts: HashMap<Symbol, CompiledRule>,
    /// Buffers for running a continuation inside the enclosing plan's
    /// emit callback, while the enclosing run holds its own scratch.
    pub(crate) scratch: BodyScratch,
    pub(crate) seed: Vec<ValueId>,
}

/// The compiled form: prefix plan + what to do at the cut.
pub(crate) struct CompiledRule {
    pub(crate) plan: BodyPlan,
    pub(crate) cut: Cut,
}

/// The projection of the `live` registers: identical projections
/// instantiate identical remainders.
pub(crate) fn live_key(live: &[(Symbol, u16)], regs: &[ValueId]) -> Box<[ValueId]> {
    live.iter().map(|&(_, r)| regs[r as usize]).collect()
}

/// A substitution holding exactly the `live` bindings — what remainder
/// instantiation reads.
pub(crate) fn live_subst(live: &[(Symbol, u16)], regs: &[ValueId]) -> Subst {
    let mut s = Subst::new();
    for &(v, r) in live {
        s.bind(v, regs[r as usize].value());
    }
    s
}

/// Variables the remainder `body[idx..]` or the head can read, restricted
/// to those the prefix plan actually binds.
fn live_vars(rule: &WRule, idx: usize, plan: &BodyPlan) -> Vec<(Symbol, u16)> {
    let mut mentioned: Vec<Symbol> = Vec::new();
    for item in &rule.body[idx..] {
        item.reads(&mut mentioned);
        item.binds(&mut mentioned);
    }
    rule.head.all_variables(&mut mentioned);
    let mut out: Vec<(Symbol, u16)> = Vec::new();
    for v in mentioned {
        if out.iter().any(|&(s, _)| s == v) {
            continue;
        }
        if let Some(r) = plan.register_of(v) {
            out.push((v, r));
        }
    }
    out
}

/// Classifies and compiles one rule for evaluation at `ctx.peer` (on
/// behalf of `ctx.origin` when the rule is a delegation). Fails only on a
/// rule [`WRule::validate`] refuses: an item reading a variable nothing
/// to its left binds, or a head variable the body does not bind.
pub(crate) fn classify(rule: &WRule, ctx: &EvalCtx<'_>) -> Result<CompiledRule> {
    classify_from(rule, 0, None, &[], ctx)
}

/// Classifies `rule.body[start..]` with the `prebound` variables already
/// bound. `resolved`, when set, is the relation name of `body[start]`
/// for a binding whose peer resolved to `me`: the continuation of a
/// [`Split`].
pub(crate) fn classify_from(
    rule: &WRule,
    start: usize,
    resolved: Option<Symbol>,
    prebound: &[Symbol],
    ctx: &EvalCtx<'_>,
) -> Result<CompiledRule> {
    // The literal at the cut, or `None` when the cut is an ACL block.
    let mut cut_at: Option<(usize, Option<&WLiteral>)> = None;
    let mut items: Vec<DItem> = Vec::new();
    for (i, item) in rule.body.iter().enumerate().skip(start) {
        match item {
            WBodyItem::Literal(l) => {
                let names = match resolved.filter(|_| i == start) {
                    Some(rel) => (Some(rel), Some(ctx.peer)),
                    None => (l.atom.rel.as_name(), l.atom.peer.as_name()),
                };
                let rel = match names {
                    (Some(rel), Some(p)) if p == ctx.peer => rel,
                    _ => {
                        cut_at = Some((i, Some(l)));
                        break;
                    }
                };
                if ctx
                    .origin
                    .is_some_and(|o| !ctx.acl.can_read(rel, o, ctx.view_bases))
                {
                    cut_at = Some((i, None));
                    break;
                }
                let datom = DAtom::new(qualify(rel, ctx.peer), l.atom.args.clone());
                items.push(if l.negated {
                    DItem::not_atom(datom)
                } else {
                    DItem::atom(datom)
                });
            }
            WBodyItem::Cmp { op, lhs, rhs } => {
                items.push(DItem::cmp(*op, lhs.clone(), rhs.clone()));
            }
            WBodyItem::Assign { var, expr } => {
                items.push(DItem::assign(*var, expr.clone()));
            }
        }
    }
    let plan = BodyPlan::compile(&items, prebound)?;
    let cut = match cut_at {
        None => Cut::Head(HeadPlan::build(&rule.head, &plan).ok_or_else(|| {
            WdlError::UnsafeDistribution(format!("head of {rule} not fully bound"))
        })?),
        Some((_, None)) => Cut::Blocked,
        Some((idx, Some(l))) => {
            let unresolved = |what: &str| {
                WdlError::UnsafeDistribution(format!(
                    "{what} of {} unresolved at evaluation (rule {rule})",
                    l.atom
                ))
            };
            let peer = NameSrc::of(&l.atom.peer, &plan).ok_or_else(|| unresolved("peer"))?;
            let rel = NameSrc::of(&l.atom.rel, &plan).ok_or_else(|| unresolved("relation"))?;
            Cut::Split(Box::new(Split {
                idx,
                live: live_vars(rule, idx, &plan),
                rel,
                peer,
                conts: HashMap::new(),
                scratch: BodyScratch::new(),
                seed: Vec::new(),
            }))
        }
    };
    Ok(CompiledRule { plan, cut })
}

/// The cached value under `key`, made by `make` on a miss. A failed `make`
/// caches nothing.
pub(crate) fn cached<K: Eq + Hash, V>(
    cache: &mut HashMap<K, V>,
    key: K,
    make: impl FnOnce() -> Result<V>,
) -> Result<&mut V> {
    Ok(match cache.entry(key) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(make()?),
    })
}

/// Per-peer cache of classified stage plans, invalidated when the ruleset
/// epoch (rule/schema changes, which also move `view_bases`) or the policy
/// epoch (access-policy mutations, which move the hoisted read gates)
/// advances.
/// Delegated entries are keyed by content-addressed [`crate::DelegationId`],
/// so delegation churn reuses plans without invalidation.
#[derive(Default)]
pub(crate) struct StagePlans {
    pub(crate) epoch: u64,
    pub(crate) policy_epoch: u64,
    pub(crate) own: HashMap<crate::RuleId, CompiledRule>,
    pub(crate) delegated: HashMap<crate::DelegationId, CompiledRule>,
    /// Shared register-file / probe-key buffers, reused across plans.
    pub(crate) scratch: BodyScratch,
}

impl StagePlans {
    /// Drops every cached plan if either epoch moved.
    pub(crate) fn ensure_epoch(&mut self, epoch: u64, policy_epoch: u64) {
        if self.epoch != epoch || self.policy_epoch != policy_epoch {
            self.own.clear();
            self.delegated.clear();
            self.epoch = epoch;
            self.policy_epoch = policy_epoch;
        }
    }

    /// Drops cached plans for delegations that are no longer installed
    /// (content-addressed ids re-use surviving entries).
    pub(crate) fn retain_delegations(&mut self, installed: &[crate::Delegation]) {
        if self.delegated.len() > installed.len() {
            let ids: HashSet<crate::DelegationId> = installed.iter().map(|d| d.id).collect();
            self.delegated.retain(|id, _| ids.contains(id));
        }
    }
}

/// Key into [`StagePlans`] for one rule evaluation. Also the key of the
/// tracer's rule-label cache (`Eq`/`Hash`), so a traced stage interns
/// each rule's label once instead of formatting it per round.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// One of the peer's own rules.
    Own(crate::RuleId),
    /// An installed delegation.
    Delegated(crate::DelegationId),
}

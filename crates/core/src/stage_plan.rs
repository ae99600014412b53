//! Compiled stage-layer rule plans: the WebdamLog matcher on the
//! register-file plan engine.
//!
//! The stage loop used to evaluate every rule — own and delegated — with
//! the `Subst` interpreter (`stage.rs::walk`): literal by literal, cloning
//! a symbol-keyed substitution per join candidate. This module compiles
//! each rule **once per (rule, ruleset epoch, policy epoch)** into a
//! [`StageRulePlan`]:
//!
//! 1. **Classification.** The body splits at the first item the compiled
//!    engine cannot run locally: a literal whose peer is a constant other
//!    than `me` (the delegation split the paper prescribes), a literal with
//!    a *variable* relation or peer name (resolvable only from runtime
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
//!    (hoisted ACL gate), or instantiate the remainder — deduplicated on
//!    the registers the remainder actually reads for the static-delegation
//!    case, or resumed through the reference interpreter for
//!    variable-named cut literals.
//!
//! The interpreter stays selectable as the semantic reference via
//! [`crate::Peer::set_compiled_stage`]`(false)` — mirroring the datalog
//! kernel's `EvalConfig::with_compiled(false)` — and the stage-parity
//! property suite (`tests/stage_parity.rs`) pins the two paths to identical
//! outcomes, delegations, and blocked-read counts.

use crate::{qualify, AccessControl, WAtom, WBodyItem, WRule};
use std::collections::{HashMap, HashSet};
use wdl_datalog::eval::{BodyPlan, BodyScratch};
use wdl_datalog::intern::ValueId;
use wdl_datalog::{Atom as DAtom, BodyItem as DItem, Subst, Symbol, Term, Value};

/// Where a head-position name comes from at emission time.
pub(crate) enum NameSrc {
    /// Constant name.
    Const(Symbol),
    /// Register holding a (string) value; the `Symbol` is the variable's
    /// name, kept for parity-faithful error messages.
    Reg(u16, Symbol),
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
        let name_src = |nt: &crate::NameTerm| -> Option<NameSrc> {
            match nt {
                crate::NameTerm::Name(s) => Some(NameSrc::Const(*s)),
                crate::NameTerm::Var(v) => Some(NameSrc::Reg(plan.register_of(*v)?, *v)),
            }
        };
        let rel = name_src(&head.rel)?;
        let peer = name_src(&head.peer)?;
        let mut args = Vec::with_capacity(head.args.len());
        for t in &head.args {
            args.push(match t {
                Term::Const(v) => ArgSrc::Const(v.clone()),
                Term::Var(v) => ArgSrc::Reg(plan.register_of(*v)?),
            });
        }
        Some(HeadPlan { rel, peer, args })
    }
}

/// What happens when the compiled prefix yields a register file.
pub(crate) enum Cut {
    /// The prefix is the whole body: fire the head.
    Head(HeadPlan),
    /// The cut literal is ACL-blocked for this origin: count one blocked
    /// read per yielded binding (hoisted per-literal read gate).
    Blocked,
    /// The cut literal has a constant remote peer: the remainder
    /// `body[idx..]` becomes a delegation. Identical projections of the
    /// `live` registers instantiate identical delegations, so suspensions
    /// are deduplicated on that projection before the remainder is built.
    Delegate {
        idx: usize,
        live: Vec<(Symbol, u16)>,
    },
    /// Anything else (variable relation/peer names at the cut, or a body
    /// the plan compiler rejects mid-way): resume the reference
    /// interpreter at `idx` from the yielded bindings, once per yield (no
    /// dedup — the continuation may fire heads, and per-binding counters
    /// must match the interpreter exactly).
    Resume {
        idx: usize,
        live: Vec<(Symbol, u16)>,
    },
}

/// One rule, classified and compiled for stage evaluation.
pub(crate) enum StageRulePlan {
    /// The rule runs entirely on the `Subst` interpreter (compilation not
    /// applicable or not worthwhile).
    Interpreted,
    /// Compiled local prefix plus cut action.
    Compiled(CompiledRule),
}

/// The compiled form: prefix plan + what to do at the cut.
pub(crate) struct CompiledRule {
    pub(crate) plan: BodyPlan,
    pub(crate) cut: Cut,
}

impl CompiledRule {
    /// Builds the projection of `live` registers used as the delegation
    /// dedup key.
    pub(crate) fn live_key(live: &[(Symbol, u16)], regs: &[ValueId]) -> Box<[ValueId]> {
        live.iter().map(|&(_, r)| regs[r as usize]).collect()
    }

    /// Reconstructs a substitution holding exactly the `live` bindings —
    /// what the interpreter continuation (or remainder instantiation)
    /// reads.
    pub(crate) fn live_subst(live: &[(Symbol, u16)], regs: &[ValueId]) -> Subst {
        let mut s = Subst::new();
        for &(v, r) in live {
            s.bind(v, regs[r as usize].value());
        }
        s
    }
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

/// Classifies and compiles one rule for evaluation at `me` (on behalf of
/// `origin` when the rule is a delegation). Never fails: anything the
/// compiled path cannot express exactly degrades to
/// [`StageRulePlan::Interpreted`] or to a [`Cut::Resume`] continuation,
/// both of which reproduce the interpreter's semantics verbatim.
pub(crate) fn classify(
    rule: &WRule,
    me: Symbol,
    origin: Option<Symbol>,
    acl: &AccessControl,
    view_bases: &HashMap<Symbol, HashSet<Symbol>>,
) -> StageRulePlan {
    enum CutKind {
        Blocked,
        Delegate,
        Resume,
    }
    let mut items: Vec<DItem> = Vec::new();
    let mut cut_at: Option<(usize, CutKind)> = None;
    for (i, item) in rule.body.iter().enumerate() {
        match item {
            WBodyItem::Literal(l) => match (l.atom.rel.as_name(), l.atom.peer.as_name()) {
                (Some(rel), Some(p)) if p == me => {
                    if let Some(o) = origin {
                        if !acl.can_read(rel, o, view_bases) {
                            cut_at = Some((i, CutKind::Blocked));
                            break;
                        }
                    }
                    let datom = DAtom::new(qualify(rel, me), l.atom.args.clone());
                    items.push(if l.negated {
                        DItem::not_atom(datom)
                    } else {
                        DItem::atom(datom)
                    });
                }
                (_, Some(p)) if p != me => {
                    cut_at = Some((i, CutKind::Delegate));
                    break;
                }
                _ => {
                    cut_at = Some((i, CutKind::Resume));
                    break;
                }
            },
            WBodyItem::Cmp { op, lhs, rhs } => {
                items.push(DItem::cmp(*op, lhs.clone(), rhs.clone()));
            }
            WBodyItem::Assign { var, expr } => {
                items.push(DItem::assign(*var, expr.clone()));
            }
        }
    }
    let Ok(plan) = BodyPlan::compile(&items, &[]) else {
        // An item the plan compiler rejects (e.g. a comparison over a
        // variable no positive atom binds) raises its error at *runtime*
        // in the interpreter, and only for bindings that reach it — keep
        // those semantics by interpreting the whole rule.
        return StageRulePlan::Interpreted;
    };
    let cut = match cut_at {
        None => match HeadPlan::build(&rule.head, &plan) {
            Some(h) => Cut::Head(h),
            // A head variable the body does not bind: the interpreter
            // raises per-binding; fall back.
            None => {
                let live = live_vars(rule, rule.body.len(), &plan);
                Cut::Resume {
                    idx: rule.body.len(),
                    live,
                }
            }
        },
        Some((_, CutKind::Blocked)) => Cut::Blocked,
        Some((i, CutKind::Delegate)) => Cut::Delegate {
            idx: i,
            live: live_vars(rule, i, &plan),
        },
        Some((i, CutKind::Resume)) => Cut::Resume {
            idx: i,
            live: live_vars(rule, i, &plan),
        },
    };
    StageRulePlan::Compiled(CompiledRule { plan, cut })
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
    pub(crate) own: HashMap<crate::RuleId, StageRulePlan>,
    pub(crate) delegated: HashMap<crate::DelegationId, StageRulePlan>,
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

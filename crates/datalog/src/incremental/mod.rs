//! Incremental view maintenance: counting + DRed.
//!
//! A [`MaterializedView`] owns a stratified [`Program`] plus its saturated
//! database and keeps that materialization consistent under **batched base
//! updates** — insertions *and deletions* — at a cost proportional to the
//! size of the change rather than the size of the database. This is the
//! machinery that lets a WebdamLog peer revoke an ACL entry or untag a
//! picture without re-running its whole fixpoint (the paper's workloads
//! are churn-heavy: peers leave, pictures are untagged, friends are
//! removed).
//!
//! Two maintenance algorithms cooperate, chosen per stratum:
//!
//! * **Counting** (`counting`) for strata whose rules read only lower
//!   strata and base relations (no intra-stratum dependency). Each derived
//!   fact carries its number of distinct derivations; exact differential
//!   matching (`eval::match_body_at_slot` with the
//!   prefix-new/suffix-old split) adjusts the counts, and a fact appears or
//!   disappears exactly when its count crosses zero. Base facts carry one
//!   unit of *external* support, which is how a base fact and a derivation
//!   for the same tuple coexist.
//! * **DRed** (`dred`) — delete and rederive — for recursive strata,
//!   where counting is unsound (a fact could count itself among its own
//!   support). Overdeletion removes everything whose support *might* be
//!   gone, rederivation re-proves what still holds from the remainder, and
//!   a seminaive pass folds in insertions.
//!
//! Negation never occurs inside a stratum (stratification), so by the time
//! a stratum is maintained the changes to its negated inputs are settled;
//! they enter the differencing with flipped sign (an insertion into a
//! negated predicate destroys derivations, a deletion enables them).
//!
//! ```
//! use wdl_datalog::{Atom, Database, Delta, Fact, MaterializedView, Program, Rule, Term, Value};
//!
//! let atom = |p: &str, vs: &[&str]| Atom::new(p, vs.iter().map(|v| Term::var(*v)).collect());
//! let program = Program::new(vec![
//!     Rule::new(atom("path", &["x", "y"]), vec![atom("edge", &["x", "y"]).into()]),
//!     Rule::new(
//!         atom("path", &["x", "z"]),
//!         vec![atom("edge", &["x", "y"]).into(), atom("path", &["y", "z"]).into()],
//!     ),
//! ])
//! .unwrap();
//!
//! let mut base = Database::new();
//! for (a, b) in [(1, 2), (2, 3), (3, 4)] {
//!     base.insert(Fact::new("edge", vec![Value::from(a), Value::from(b)])).unwrap();
//! }
//! let mut view = MaterializedView::new(program, base).unwrap();
//! assert_eq!(view.database().relation("path").unwrap().len(), 6);
//!
//! // Cutting 2→3 splits the chain: only (1,2) and (3,4) remain.
//! let out = view
//!     .apply(&Delta::deletion(Fact::new("edge", vec![Value::from(2), Value::from(3)])))
//!     .unwrap();
//! assert_eq!(view.database().relation("path").unwrap().len(), 2);
//! assert!(out.inserts.is_empty());
//! assert_eq!(out.deletes.len(), 5); // edge(2,3) + paths (2,3),(1,3),(2,4),(1,4)
//! ```

mod counting;
mod dred;

use crate::eval::NetChange;
use crate::intern::{self, ValueId};
use crate::{Database, DatalogError, Fact, Program, Relation, Result, Symbol};
use std::collections::{HashMap, HashSet};

/// A ground fact in the interned id plane: the representation the
/// maintenance bookkeeping (derivation counts, overdeletion sets) works
/// in, so churn-heavy maintenance never hashes string/byte payloads.
/// Resolved back to a [`Fact`] only at the observable-delta boundary.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct IdFact {
    pub(crate) pred: Symbol,
    pub(crate) row: Box<[ValueId]>,
}

impl IdFact {
    pub(crate) fn new(pred: Symbol, row: &[ValueId]) -> IdFact {
        IdFact {
            pred,
            row: row.into(),
        }
    }

    pub(crate) fn of_fact(fact: &Fact) -> IdFact {
        let mut ids = Vec::with_capacity(fact.tuple.len());
        intern::intern_row(&fact.tuple, &mut ids);
        IdFact {
            pred: fact.pred,
            row: ids.into(),
        }
    }

    pub(crate) fn to_fact(&self) -> Fact {
        Fact {
            pred: self.pred,
            tuple: intern::resolve_row(&self.row),
        }
    }
}

/// A batch of base-fact changes: what [`MaterializedView::apply`] consumes
/// and (as the net observable change) produces.
///
/// When the same fact appears in both lists, deletions are applied first,
/// so insert-after-delete leaves the fact present.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Facts added.
    pub inserts: Vec<Fact>,
    /// Facts removed.
    pub deletes: Vec<Fact>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Delta {
        Delta::default()
    }

    /// A delta carrying a single insertion.
    pub fn insertion(fact: Fact) -> Delta {
        Delta {
            inserts: vec![fact],
            deletes: Vec::new(),
        }
    }

    /// A delta carrying a single deletion.
    pub fn deletion(fact: Fact) -> Delta {
        Delta {
            inserts: Vec::new(),
            deletes: vec![fact],
        }
    }

    /// Queues an insertion.
    pub fn insert(&mut self, fact: Fact) -> &mut Delta {
        self.inserts.push(fact);
        self
    }

    /// Queues a deletion.
    pub fn delete(&mut self, fact: Fact) -> &mut Delta {
        self.deletes.push(fact);
        self
    }

    /// True when the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of changes carried.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// Net signed changes since the last [`MaterializedView::apply`]: `ins`/`del`
/// are disjoint and relate the current database to the state the last
/// apply left (`old = db ∖ ins ∪ del`).
#[derive(Default)]
pub(crate) struct Changes {
    pub(crate) ins: Database,
    pub(crate) del: Database,
}

impl Changes {
    /// Records that a fact is now present (netting against an earlier
    /// recorded deletion).
    fn record_insert(&mut self, pred: Symbol, row: &[ValueId]) -> Result<()> {
        if !self.del.remove_ids(pred, row) {
            self.ins.insert_ids(pred, row.len(), row)?;
        }
        Ok(())
    }

    /// Records that a fact is now absent (netting against an earlier
    /// recorded insertion).
    fn record_delete(&mut self, pred: Symbol, row: &[ValueId]) -> Result<()> {
        if !self.ins.remove_ids(pred, row) {
            self.del.insert_ids(pred, row.len(), row)?;
        }
        Ok(())
    }

    fn is_empty(&self) -> bool {
        self.ins.fact_count() == 0 && self.del.fact_count() == 0
    }

    /// The changed predicates among `preds`… (empty = nothing to do).
    fn touches(&self, pred: Symbol) -> bool {
        self.ins.relation(pred).is_some_and(|r| !r.is_empty())
            || self.del.relation(pred).is_some_and(|r| !r.is_empty())
    }

    pub(crate) fn as_net(&self) -> NetChange<'_> {
        NetChange {
            ins: &self.ins,
            del: &self.del,
        }
    }
}

/// How one stratum is maintained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Maintenance {
    /// Exact derivation counting (stratum reads only lower inputs).
    Counting,
    /// Delete-and-rederive (stratum has intra-stratum dependencies).
    Dred,
}

/// Per-stratum metadata derived from the program.
struct StratumInfo {
    /// Indices into the program's rule vector.
    rules: Vec<usize>,
    /// Predicates whose content this stratum defines.
    idb: HashSet<Symbol>,
    /// Maintenance algorithm.
    maintenance: Maintenance,
}

/// A continuously maintained materialization of a stratified program over a
/// base database.
///
/// See the module documentation for the algorithms; the contract is:
/// after `apply(delta)`, [`MaterializedView::database`] equals what
/// [`Program::eval`] would compute from scratch over the updated base, and
/// the returned [`Delta`] lists exactly the facts (base and derived) whose
/// membership changed since the previous apply — including the writes
/// [`MaterializedView::write_base`] made in between.
///
/// Rows reach a view one at a time through those writes, or in bulk as
/// whole relations: moved in at construction, or by
/// [`MaterializedView::put_base_relation`], which maintains nothing.
///
/// The default view maintains the empty program over the empty base.
#[derive(Default)]
pub struct MaterializedView {
    program: Program,
    /// External support: the base facts of *derived* predicates (those a
    /// rule head defines). Base facts of predicates no rule derives live
    /// only in `db`, where their membership is exactly base membership.
    base: Database,
    /// The saturated database: every base fact plus everything derivable.
    db: Database,
    /// Derivation counts for facts of counting strata (excluding external
    /// support, which lives in `base`), keyed in the interned id plane.
    counts: HashMap<IdFact, u64>,
    strata: Vec<StratumInfo>,
    /// Base writes to underived predicates since the last apply: already
    /// in `db`, maintained through at the next apply.
    pending: Changes,
    /// External-support writes since the last apply, netted per fact
    /// (`true` = added): already in `base`, handed to their strata at the
    /// next apply.
    pending_ext: HashMap<IdFact, bool>,
}

impl MaterializedView {
    /// Evaluates `program` over `base` from scratch and starts maintaining
    /// the result.
    pub fn new(program: Program, base: Database) -> Result<MaterializedView> {
        MaterializedView::new_profiled(program, base, None).map_err(|(e, _)| e)
    }

    /// [`MaterializedView::new`] with optional per-rule cost capture of
    /// the from-scratch construction fixpoint. The initial evaluation is
    /// where a freshly added rule does all of its first-stage work —
    /// without this hook a profiler would see only the later differential
    /// maintenance and miss the build entirely. `None` is exactly the
    /// unprofiled path. A failed build hands back its database: `base`
    /// plus whatever it derived, so a relation no rule derives comes back
    /// as it went in.
    pub fn new_profiled(
        program: Program,
        base: Database,
        profile: Option<&mut crate::profile::RuleProfile>,
    ) -> std::result::Result<MaterializedView, (DatalogError, Database)> {
        let mut view = MaterializedView {
            strata: classify(&program),
            program,
            db: base,
            ..MaterializedView::default()
        };
        match view.build(profile) {
            Ok(()) => Ok(view),
            Err(e) => Err((e, view.db)),
        }
    }

    /// Saturates `db`, which holds the base, and records the external
    /// support and derivation counts.
    fn build(&mut self, profile: Option<&mut crate::profile::RuleProfile>) -> Result<()> {
        for &pred in self.program.strata().pred_stratum.keys() {
            if let Some(rel) = self.db.relation(pred) {
                self.base.copy_relation(pred, rel)?;
            }
        }
        let mut stats = crate::EvalStats::default();
        self.program
            .eval_in_place_profiled(&mut self.db, &mut stats, profile)?;
        self.init_counts()
    }

    /// The maintained materialization (base plus derived facts).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The base rows of `pred`: the database's rows for a predicate no
    /// rule derives, the external support otherwise.
    pub fn base_relation(&self, pred: Symbol) -> Option<&Relation> {
        match self.stratum_of(pred) {
            Some(_) => self.base.relation(pred),
            None => self.db.relation(pred),
        }
    }

    /// Adds (`added`) or removes one base fact ahead of maintenance and
    /// returns whether base membership changed. A fact of a predicate no
    /// rule derives enters or leaves [`MaterializedView::database`] at
    /// once; external support of a derived predicate is recorded. Either
    /// way, the next [`MaterializedView::apply`] maintains what the write
    /// implies, so derived facts trail the write until then.
    pub fn write_base(&mut self, fact: &Fact, added: bool) -> Result<bool> {
        let mut row = Vec::with_capacity(fact.tuple.len());
        if added {
            intern::intern_row(&fact.tuple, &mut row);
        } else if !intern::lookup_row(&fact.tuple, &mut row) {
            // A value never interned cannot be stored.
            return Ok(false);
        }
        self.write_ids(fact.pred, &row, added)
    }

    /// Takes the base rows of `pred` out of the view, from where
    /// [`MaterializedView::base_relation`] reads them, without their cached
    /// indexes ([`Database::take_relation`]). No maintenance follows:
    /// derived facts and the pending changes stay as they were, so this is
    /// for a caller that replaces the view, or puts the rows back with
    /// [`MaterializedView::put_base_relation`].
    pub fn take_base_relation(&mut self, pred: Symbol) -> Option<Relation> {
        match self.stratum_of(pred) {
            Some(_) => self.base.take_relation(pred),
            None => self.db.take_relation(pred),
        }
    }

    /// Makes `rel` the base rows of `pred`, replacing the ones there, where
    /// [`MaterializedView::base_relation`] reads them. Like
    /// [`MaterializedView::take_base_relation`] this maintains nothing: the
    /// view is stale until it is rebuilt over its base.
    pub fn put_base_relation(&mut self, pred: Symbol, rel: Relation) {
        match self.stratum_of(pred) {
            Some(_) => self.base.put_relation(pred, rel),
            None => self.db.put_relation(pred, rel),
        }
    }

    fn write_ids(&mut self, pred: Symbol, row: &[ValueId], added: bool) -> Result<bool> {
        let derived = self.stratum_of(pred).is_some();
        let target = if derived {
            &mut self.base
        } else {
            &mut self.db
        };
        let changed = if added {
            target.insert_ids(pred, row.len(), row)?
        } else {
            target.remove_ids(pred, row)
        };
        if !changed {
            return Ok(false);
        }
        if derived {
            // Membership alternates, so an earlier pending write of the
            // same fact is its opposite: the two cancel.
            let fact = IdFact::new(pred, row);
            if self.pending_ext.remove(&fact).is_none() {
                self.pending_ext.insert(fact, added);
            }
        } else if added {
            self.pending.record_insert(pred, row)?;
        } else {
            self.pending.record_delete(pred, row)?;
        }
        Ok(true)
    }

    /// Number of derivations currently supporting `fact` (counting strata
    /// only; facts of recursive strata are maintained by DRed and report
    /// `None`). Base facts add one unit of external support.
    pub fn support(&self, fact: &Fact) -> Option<u64> {
        let stratum = self.stratum_of(fact.pred)?;
        if self.strata[stratum].maintenance != Maintenance::Counting {
            return None;
        }
        let derived = {
            let mut ids = Vec::with_capacity(fact.tuple.len());
            if intern::lookup_row(&fact.tuple, &mut ids) {
                self.counts
                    .get(&IdFact {
                        pred: fact.pred,
                        row: ids.into(),
                    })
                    .copied()
                    .unwrap_or(0)
            } else {
                0
            }
        };
        let external = u64::from(self.base.contains(fact));
        Some(derived + external)
    }

    /// Applies a batch of base changes on top of the pending
    /// [`MaterializedView::write_base`] writes and returns the net
    /// observable change since the previous apply: every fact — base or
    /// derived — that appeared or disappeared from the materialization.
    ///
    /// Deletions of absent facts and insertions of present facts are
    /// ignored (idempotent batches).
    pub fn apply(&mut self, delta: &Delta) -> Result<Delta> {
        self.apply_profiled(delta, None)
    }

    /// [`MaterializedView::apply`] with optional per-rule cost capture:
    /// counting strata record one [`crate::profile::RuleCost`] sample
    /// per rule whose differential plans ran, DRed strata one sample
    /// per maintenance pass under the stratum's first head predicate
    /// (the rederivation phases interleave rules and are not separable
    /// — see [`crate::profile::RuleProfile`]). `None` is exactly the
    /// unprofiled path.
    pub fn apply_profiled(
        &mut self,
        delta: &Delta,
        mut profile: Option<&mut crate::profile::RuleProfile>,
    ) -> Result<Delta> {
        // Deletions first, so insert-after-delete leaves the fact present.
        for fact in &delta.deletes {
            self.write_base(fact, false)?;
        }
        for fact in &delta.inserts {
            self.write_base(fact, true)?;
        }
        let mut changes = std::mem::take(&mut self.pending);
        let pending_ext = std::mem::take(&mut self.pending_ext);
        if changes.is_empty() && pending_ext.is_empty() {
            return Ok(Delta::new());
        }
        // External-support flips of derived predicates, routed to their
        // stratum's maintenance pass.
        let ext: Vec<(usize, IdFact, bool)> = pending_ext
            .into_iter()
            .filter_map(|(f, added)| Some((self.stratum_of(f.pred)?, f, added)))
            .collect();

        for (idx, info) in self.strata.iter().enumerate() {
            let stratum_ext: Vec<(&IdFact, bool)> = ext
                .iter()
                .filter(|(s, _, _)| *s == idx)
                .map(|(_, f, add)| (f, *add))
                .collect();
            // Skip strata whose inputs did not change and that received no
            // external-support adjustments.
            let inputs_changed = info.rules.iter().any(|&ri| {
                let rule = &self.program.rules()[ri];
                rule.positive_preds()
                    .iter()
                    .chain(rule.negative_preds().iter())
                    .any(|p| changes.touches(*p))
            });
            if !inputs_changed && stratum_ext.is_empty() {
                continue;
            }
            match info.maintenance {
                Maintenance::Counting => counting::maintain(
                    &self.program,
                    info,
                    &mut self.db,
                    &self.base,
                    &mut self.counts,
                    &mut changes,
                    &stratum_ext,
                    profile.as_deref_mut(),
                )?,
                Maintenance::Dred => {
                    let delta_in = profile
                        .as_ref()
                        .map(|_| (changes.ins.fact_count() + changes.del.fact_count()) as u64);
                    let t0 = profile.as_ref().map(|_| std::time::Instant::now());
                    dred::maintain(
                        &self.program,
                        info,
                        &mut self.db,
                        &self.base,
                        &mut changes,
                        &stratum_ext,
                    )?;
                    if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                        let head = self.program.rules()[info.rules[0]].head.pred;
                        p.record(
                            head,
                            t0.elapsed().as_nanos() as u64,
                            delta_in.unwrap_or(0),
                            0,
                        );
                    }
                }
            }
        }

        Ok(Delta {
            inserts: changes.ins.facts().collect(),
            deletes: changes.del.facts().collect(),
        })
    }

    /// Recomputes the materialization from scratch (reference semantics;
    /// used by tests and as a consistency oracle). The full base is the
    /// non-derived relations of `db` plus the external support in `base`,
    /// pending writes included.
    pub fn recompute(&self) -> Result<Database> {
        let mut full = self.base.clone();
        for (pred, rel) in self.db.relations() {
            if self.stratum_of(pred).is_none() {
                full.copy_relation(pred, rel)?;
            }
        }
        self.program.eval(&full)
    }

    fn stratum_of(&self, pred: Symbol) -> Option<usize> {
        self.program.strata().pred_stratum.get(&pred).copied()
    }

    /// Populates derivation counts for counting strata by re-matching every
    /// rule against the saturated database (runs once, at construction).
    fn init_counts(&mut self) -> Result<()> {
        let compiled = self.program.eval_config().compiled;
        let mut scratch = crate::eval::Scratch::new();
        for info in &self.strata {
            if info.maintenance != Maintenance::Counting {
                continue;
            }
            for &ri in &info.rules {
                if compiled {
                    let plan = self.program.plan(ri);
                    let ctx = crate::eval::FixCtx {
                        db: &self.db,
                        delta: None,
                    };
                    let counts = &mut self.counts;
                    crate::eval::run_plan(plan, &ctx, &mut scratch, &mut |row| {
                        *counts.entry(IdFact::new(plan.head_pred, row)).or_insert(0) += 1;
                        Ok(())
                    })?;
                } else {
                    let rule = &self.program.rules()[ri];
                    let mut heads: Vec<Fact> = Vec::new();
                    crate::eval::match_body(
                        &self.db,
                        None,
                        &rule.body,
                        crate::Subst::new(),
                        &mut |s| {
                            if let Some(fact) = rule.head.ground(&s) {
                                heads.push(fact);
                            }
                            Ok(())
                        },
                    )?;
                    for fact in heads {
                        *self.counts.entry(IdFact::of_fact(&fact)).or_insert(0) += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for MaterializedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedView")
            .field("external_facts", &self.base.fact_count())
            .field("total_facts", &self.db.fact_count())
            .field("strata", &self.strata.len())
            .field("counted_facts", &self.counts.len())
            .finish()
    }
}

/// Derives per-stratum maintenance metadata from the program.
fn classify(program: &Program) -> Vec<StratumInfo> {
    let strata = program.strata();
    let mut out = Vec::with_capacity(strata.rule_strata.len());
    for (idx, rule_ids) in strata.rule_strata.iter().enumerate() {
        let idb: HashSet<Symbol> = strata
            .pred_stratum
            .iter()
            .filter(|(_, s)| **s == idx)
            .map(|(p, _)| *p)
            .collect();
        // Counting applies when no rule of the stratum reads a predicate
        // the stratum itself defines — i.e. the stratum is a single layer
        // over settled inputs. Everything else (true recursion, but also
        // non-recursive chains within one stratum) goes through DRed,
        // which tolerates intra-stratum dependencies.
        let self_reading = rule_ids.iter().any(|&ri| {
            let rule = &program.rules()[ri];
            rule.positive_preds()
                .iter()
                .chain(rule.negative_preds().iter())
                .any(|p| idb.contains(p))
        });
        out.push(StratumInfo {
            rules: rule_ids.clone(),
            idb,
            maintenance: if self_reading {
                Maintenance::Dred
            } else {
                Maintenance::Counting
            },
        });
    }
    out
}

#[cfg(test)]
mod tests;

//! Counting maintenance for non-self-reading strata.
//!
//! Every fact of such a stratum is supported by a well-defined, finite
//! number of derivations over *settled* inputs (lower strata plus base
//! relations), so maintenance is bookkeeping: exact differential matching
//! computes how many derivations each head fact gained or lost, and a fact
//! enters or leaves the materialization exactly when its total support —
//! derivation count plus one unit of external support if it is also a base
//! fact — crosses zero.
//!
//! Exactness of the per-rule differencing comes from the
//! prefix-new/suffix-old evaluation — compiled differential plans
//! ([`crate::Program`] pre-compiles one per (rule, literal), see
//! `eval::plan`) on the default path, [`crate::eval::match_body_at_slot`]
//! on the interpreted reference path; see `eval::diff` for why self-joins
//! on changed relations are counted exactly once. Negated literals
//! contribute with flipped sign: an insertion into a negated input
//! destroys derivations, a deletion creates them. All bookkeeping stays in
//! the interned id plane ([`IdFact`]).

use super::{Changes, IdFact, StratumInfo};
use crate::eval::{match_body_at_slot, run_plan, DiffCtx, DiffSide, Scratch};
use crate::{BodyItem, Database, Program, Result};
use std::collections::HashMap;

/// Maintains one counting stratum in place.
///
/// * `db` — the materialization; inputs below this stratum are already in
///   their new state, this stratum's own predicates are untouched.
/// * `changes` — net input changes so far; this stratum's own net output
///   changes are appended before returning.
/// * `ext` — external-support adjustments: base facts of this stratum's
///   own predicates that were inserted (`true`) or deleted (`false`); the
///   base database itself has already been updated.
#[allow(clippy::too_many_arguments)]
pub(super) fn maintain(
    program: &Program,
    info: &StratumInfo,
    db: &mut Database,
    base: &Database,
    counts: &mut HashMap<IdFact, u64>,
    changes: &mut Changes,
    ext: &[(&IdFact, bool)],
    mut profile: Option<&mut crate::profile::RuleProfile>,
) -> Result<()> {
    let compiled = program.eval_config().compiled;
    // One scratch reused across every plan invocation of this pass.
    let mut scratch = Scratch::new();
    // Signed change in the number of derivations, per head fact.
    let mut deriv_delta: HashMap<IdFact, i64> = HashMap::new();
    // Input-delta size, computed once (profiled passes only).
    let delta_in = profile
        .as_ref()
        .map(|_| (changes.ins.fact_count() + changes.del.fact_count()) as u64);

    for &ri in &info.rules {
        let rule = &program.rules()[ri];
        let t0 = profile.as_ref().map(|_| std::time::Instant::now());
        // Signed derivation-delta contributions this rule produced.
        let mut fired = 0u64;
        let mut slot = 0usize;
        for item in &rule.body {
            let BodyItem::Literal(lit) = item else {
                continue;
            };
            let pred = lit.atom.pred;
            // (delta source, sign of a derivation appearing through it)
            let halves: [(&Database, i64); 2] = if lit.negated {
                [(&changes.ins, -1), (&changes.del, 1)]
            } else {
                [(&changes.ins, 1), (&changes.del, -1)]
            };
            for (delta_db, sign) in halves {
                if delta_db.relation(pred).is_some_and(|r| !r.is_empty()) {
                    if compiled {
                        let plan = program.diff_plan(ri, slot);
                        let ctx = DiffCtx {
                            db,
                            ins: &changes.ins,
                            del: &changes.del,
                            side: DiffSide::PrefixNewSuffixOld,
                            slot,
                            delta: delta_db,
                        };
                        run_plan(plan, &ctx, &mut scratch, &mut |row| {
                            *deriv_delta
                                .entry(IdFact::new(plan.head_pred, row))
                                .or_insert(0) += sign;
                            fired += 1;
                            Ok(())
                        })?;
                    } else {
                        match_body_at_slot(
                            db,
                            &changes.as_net(),
                            DiffSide::PrefixNewSuffixOld,
                            &rule.body,
                            slot,
                            delta_db,
                            &mut |s| {
                                if let Some(fact) = rule.head.ground(&s) {
                                    *deriv_delta.entry(IdFact::of_fact(&fact)).or_insert(0) += sign;
                                    fired += 1;
                                }
                                Ok(())
                            },
                        )?;
                    }
                }
            }
            slot += 1;
        }
        if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
            p.record(
                rule.head.pred,
                t0.elapsed().as_nanos() as u64,
                delta_in.unwrap_or(0),
                fired,
            );
        }
    }

    // Fold in external-support flips so the visibility loop below sees one
    // consolidated set of affected facts. External support is ±1 on top of
    // the derivation count and is *not* stored in `counts` (base membership
    // is the source of truth); `ext_flip` remembers which facts flipped so
    // the old total can be reconstructed.
    let mut ext_flip: HashMap<IdFact, bool> = HashMap::new();
    for &(fact, added) in ext {
        deriv_delta.entry(fact.clone()).or_insert(0);
        ext_flip.insert(fact.clone(), added);
    }

    for (fact, d) in deriv_delta {
        let old_derived = counts.get(&fact).copied().unwrap_or(0) as i64;
        let new_derived = old_derived + d;
        debug_assert!(
            new_derived >= 0,
            "derivation count of {} went negative ({old_derived} {d:+})",
            fact.to_fact()
        );
        let new_derived = new_derived.max(0) as u64;

        // External support now / before this apply.
        let ext_now = u64::from(base.contains_ids(fact.pred, &fact.row));
        let ext_before = match ext_flip.get(&fact) {
            Some(true) => 0,  // inserted this round: was absent
            Some(false) => 1, // deleted this round: was present
            None => ext_now,
        };

        let total_before = old_derived as u64 + ext_before;
        let total_now = new_derived + ext_now;

        if new_derived == 0 {
            counts.remove(&fact);
        } else {
            counts.insert(fact.clone(), new_derived);
        }

        if total_before == 0 && total_now > 0 {
            if db.insert_ids(fact.pred, fact.row.len(), &fact.row)? {
                changes.record_insert(fact.pred, &fact.row)?;
            }
        } else if total_before > 0 && total_now == 0 && db.remove_ids(fact.pred, &fact.row) {
            changes.record_delete(fact.pred, &fact.row)?;
        }
    }
    Ok(())
}

//! The durability seam: how a peer streams its persistent changes to a
//! storage engine without depending on one.
//!
//! A [`DurabilitySink`] is the write side of a write-ahead log. The peer
//! calls [`DurabilitySink::record_fact`] for every *extensional base fact*
//! change, in commit order, at the moment the write enters the peer's
//! maintained view — transient state (remote contributions for intensional
//! relations, derived facts) is deliberately not recorded, because it is re-derived or
//! re-sent by the protocol after a restart and persisting it would turn
//! admissible post-crash divergence into silent staleness. At the end of
//! every stage the peer calls [`DurabilitySink::sync`], which is the group
//! commit point: buffered records become durable there, together with the
//! peer's structure when it changed (schema, rules, delegations, the
//! access policy with its approval queue — everything the peer image's
//! meta part, `wdl_net::snapshot::write_meta`, carries). A commit is
//! atomic: a crash keeps all of it or none, so a recovered session
//! watermark never outruns the facts it covers.
//!
//! The engine that implements this trait lives in `wdl-store`; keeping the
//! trait here keeps the dependency arrow pointing outward (core knows
//! nothing about files, checkpoints or logs).

use crate::{Peer, Result};
use wdl_datalog::{Symbol, Tuple};

/// Receives a peer's durable mutations in commit order.
///
/// `Send` because peers (and therefore their sinks) migrate onto
/// [`crate::ShardedRuntime`] worker threads.
pub trait DurabilitySink: Send {
    /// An extensional base fact changed. `rel` is the qualified predicate
    /// (`rel@peer`); `added` is `true` for an insertion, `false` for a
    /// deletion. Called after the write entered the peer's view, so this
    /// must only buffer — durability is decided at [`DurabilitySink::sync`].
    fn record_fact(&mut self, rel: Symbol, tuple: &Tuple, added: bool);

    /// A session-layer delivery watermark advanced (see
    /// [`Peer::note_session_watermark`]): direction `dir` 0 = delivered
    /// from `remote`, 1 = acked by `remote`, now at `(inc, seq)`. Like
    /// [`DurabilitySink::record_fact`] this must only buffer; the
    /// watermark becomes durable at the next [`DurabilitySink::sync`],
    /// in the same group commit as the facts it covers. The default
    /// does nothing — sinks predating the session layer stay correct
    /// (sessions then re-deliver instead of deduplicating, which the
    /// application layer tolerates for persistent updates).
    fn record_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        let _ = (remote, dir, inc, seq);
    }

    /// Group-commit point, called at the end of every stage (and by
    /// [`Peer::sync_durability`]). Flush buffered records; when
    /// `meta_dirty` is `true`, structural state changed since the last
    /// sync and the sink must make `peer`'s structure durable in the same
    /// commit, ahead of the records (which may write into a relation the
    /// change declared).
    fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> Result<()>;
}

impl Peer {
    /// Attaches a durability sink. Every subsequent extensional change is
    /// recorded into it and every stage ends with a group commit. The
    /// peer is marked structurally dirty so the first sync makes its
    /// structure durable.
    pub fn set_durability(&mut self, sink: Box<dyn DurabilitySink>) {
        self.durability = Some(sink);
        self.meta_dirty = true;
    }

    /// Detaches and returns the durability sink, leaving the peer
    /// in-memory only.
    pub fn clear_durability(&mut self) -> Option<Box<dyn DurabilitySink>> {
        self.durability.take()
    }

    /// Whether a durability sink is attached.
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Forces a group commit outside the stage loop (the stage loop calls
    /// this automatically). No-op without a sink.
    pub fn sync_durability(&mut self) -> Result<()> {
        // Take/put-back so the sink can read the peer while borrowed out.
        let Some(mut sink) = self.durability.take() else {
            return Ok(());
        };
        let res = sink.sync(self, self.meta_dirty);
        self.durability = Some(sink);
        if res.is_ok() {
            self.meta_dirty = false;
        }
        res
    }

    /// Dumps every extensional relation as process-independent columns
    /// (see [`wdl_datalog::ColumnExport`]), keyed by *unqualified*
    /// relation name and sorted by it, so checkpoints are deterministic.
    /// Declared-but-empty relations are included — recovery must restore
    /// the empty relation, not forget the declaration.
    pub fn export_extensional(&self) -> Vec<(Symbol, wdl_datalog::ColumnExport)> {
        let mut out: Vec<(Symbol, wdl_datalog::ColumnExport)> = Vec::new();
        for decl in self.schema.iter() {
            if decl.kind != crate::RelationKind::Extensional {
                continue;
            }
            let q = crate::qualify(decl.rel, self.name);
            let dump = match self.incr.view.base_relation(q) {
                Some(rel) => rel.export_columns(),
                None => wdl_datalog::ColumnExport {
                    arity: decl.arity,
                    rows: 0,
                    values: Vec::new(),
                    cells: Vec::new(),
                },
            };
            out.push((decl.rel, dump));
        }
        out.sort_by_key(|(rel, _)| rel.to_string());
        out
    }

    /// Replaces a recovered extensional relation's rows with a column
    /// dump's, moved into the view whole, bypassing the durability sink
    /// (recovery must not re-log what it replays). Nothing is maintained:
    /// the ruleset epoch moves, so the next stage rebuilds the view over
    /// the rows. The relation must already be declared extensional with a
    /// matching arity — checkpoints carry the schema, so a segment for an
    /// undeclared relation is corruption.
    pub fn import_extensional(
        &mut self,
        rel: impl Into<Symbol>,
        dump: &wdl_datalog::ColumnExport,
    ) -> Result<()> {
        let rel = rel.into();
        if self.schema.kind_of(rel) != Some(crate::RelationKind::Extensional) {
            return Err(crate::WdlError::SchemaViolation(format!(
                "segment for {rel} but the relation is not declared extensional"
            )));
        }
        if self.schema.arity_of(rel) != Some(dump.arity) {
            return Err(crate::WdlError::SchemaViolation(format!(
                "segment for {rel} has arity {}, schema says {:?}",
                dump.arity,
                self.schema.arity_of(rel)
            )));
        }
        let rows = dump.into_relation()?;
        self.incr
            .view
            .put_base_relation(crate::qualify(rel, self.name), rows);
        self.ruleset_epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Peer, RelationKind, WAtom, WRule};
    use wdl_datalog::{Delta, Term, Value};

    /// Pin: a restore moves the segment's rows into the view as the
    /// relation and records none of them as a pending change; the first
    /// stage's rebuild takes them as they are.
    #[test]
    fn import_moves_rows_without_pending_changes() {
        let mut src = Peer::new("import-src");
        for i in 0..3 {
            src.insert_local("r", vec![Value::from(i), Value::from(i * 2)])
                .unwrap();
        }
        let (rel, dump) = src.export_extensional().remove(0);

        let me = "import-dst";
        let mut p = Peer::new(me);
        p.declare("r", 2, RelationKind::Extensional).unwrap();
        p.declare("s", 1, RelationKind::Intensional).unwrap();
        p.add_rule(WRule::new(
            WAtom::at("s", me, vec![Term::var("x")]),
            vec![WAtom::at("r", me, vec![Term::var("x"), Term::var("y")]).into()],
        ))
        .unwrap();
        p.run_stage().unwrap();
        p.import_extensional(rel, &dump).unwrap();
        let q = crate::qualify(rel, p.name());
        assert_eq!(
            p.incr.view.base_relation(q),
            Some(&dump.into_relation().unwrap())
        );
        assert!(p.incr.view.apply(&Delta::new()).unwrap().is_empty());

        p.run_stage().unwrap();
        assert_eq!(p.relation_facts("s").len(), 3);
        let mut rows = p.relation_facts("r");
        rows.sort();
        let mut want = src.relation_facts("r");
        want.sort();
        assert_eq!(rows, want);
    }
}

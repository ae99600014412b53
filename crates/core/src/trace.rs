//! Per-peer tracing glue: the sink handle a peer records through, plus
//! the label cache that names rule evaluations for aggregation.
//!
//! A peer holds `Option<Box<PeerTracer>>` — `None` (the default) keeps
//! the stage loop exactly as fast as before tracing existed: one
//! `is_some` branch per hook site, zero allocations, no clock reads
//! (pinned by the workspace `trace_alloc` test). Installing a sink is a
//! runtime tuning knob, **not** durable state: the peer image
//! (`wdl_net::snapshot`) carries semantic state only, and a restored
//! peer comes up untraced.

use std::collections::HashMap;
use std::fmt;

use wdl_datalog::Symbol;
use wdl_obs::{TraceEvent, TraceSink};

use crate::stage_plan::PlanKey;
use crate::WRule;

/// The tracing state of one peer.
pub(crate) struct PeerTracer {
    /// Where events go. Boxed dyn so runtimes can install buffering,
    /// forwarding, or null sinks without the peer caring.
    pub(crate) sink: Box<dyn TraceSink>,
    /// Interned rule labels, keyed like the stage-plan cache.
    labels: HashMap<PlanKey, Symbol>,
}

impl PeerTracer {
    pub(crate) fn new(sink: Box<dyn TraceSink>) -> Box<PeerTracer> {
        Box::new(PeerTracer {
            sink,
            labels: HashMap::new(),
        })
    }

    /// Records one event.
    #[inline]
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.sink.record(&ev);
    }

    /// The aggregation label for a rule evaluation, interned once per
    /// key:
    ///
    /// * own rules are labelled by their [`crate::RuleId`]
    ///   (`"alice#0"`) — one profile entry per authored rule;
    /// * delegated rules are labelled `"deleg:<head>@<me>"` — the many
    ///   structurally identical copies a hub hosts (one per delegating
    ///   peer) aggregate into the single entry a profiler wants ranked.
    pub(crate) fn rule_label(&mut self, key: PlanKey, me: Symbol, rule: &WRule) -> Symbol {
        if let Some(&label) = self.labels.get(&key) {
            return label;
        }
        let label = match key {
            PlanKey::Own(id) => Symbol::intern(&id.to_string()),
            PlanKey::Delegated(_) => match rule.head.rel.as_name() {
                Some(rel) => Symbol::intern(&format!("deleg:{rel}@{me}")),
                None => Symbol::intern(&format!("deleg:?@{me}")),
            },
        };
        self.labels.insert(key, label);
        label
    }
}

impl fmt::Debug for PeerTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeerTracer")
            .field("labels", &self.labels.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NameTerm, RuleId, WAtom};
    use wdl_obs::BufferSink;

    fn rule(rel: &str, me: &str) -> WRule {
        WRule::new(
            WAtom::new(NameTerm::name(rel), NameTerm::name(me), vec![]),
            vec![WAtom::new(NameTerm::name(rel), NameTerm::name(me), vec![]).into()],
        )
    }

    #[test]
    fn labels_are_cached_and_scheme_is_stable() {
        let mut tr = PeerTracer::new(Box::new(BufferSink::new()));
        let me = Symbol::intern("hub");
        let own = PlanKey::Own(RuleId { peer: me, idx: 3 });
        let r = rule("pictures", "hub");
        let l1 = tr.rule_label(own, me, &r);
        let l2 = tr.rule_label(own, me, &r);
        assert_eq!(l1, l2);
        assert_eq!(l1.to_string(), "hub#3");
        let deleg = PlanKey::Delegated(
            crate::Delegation::new(Symbol::intern("att"), me, rule("pictures", "hub")).id,
        );
        let dl = tr.rule_label(deleg, me, &r);
        assert_eq!(dl.to_string(), "deleg:pictures@hub");
    }
}

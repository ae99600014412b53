//! The analyzer's check battery: each function walks the peer models
//! and/or the dependency graph and emits [`Diagnostic`]s.

use crate::graph::{DepGraph, EdgeKind, Node};
use crate::{PeerModel, RuleInfo};
use std::collections::{HashMap, HashSet};
use wdl_core::{DiagCode, Diagnostic, NameTerm, RelationKind, SafetyViolation, WBodyItem};
use wdl_datalog::{negative_cycle, Symbol};

/// WDL001/WDL002/WDL003: the runtime's own safety definition
/// ([`wdl_core::WRule::safety_violations`]), one report per variable,
/// coded by *why* the variable is unbound — the head (WDL001), a
/// negated/compared/assigned read or a rebinding (WDL002), or a name
/// position whose delegation target would be undefined (WDL003).
///
/// Delegated rules are skipped: their origin vetted them before
/// sending, and re-blaming the hosting peer would point at the wrong
/// program.
pub fn safety(models: &[PeerModel]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for model in models {
        for info in model.rules.iter().filter(|i| i.delegated_from.is_none()) {
            safety_rule(model.name, info, &mut out);
        }
    }
    out
}

fn safety_rule(owner: Symbol, info: &RuleInfo, out: &mut Vec<Diagnostic>) {
    let rule = &info.rule;
    let mut reported: Vec<Symbol> = Vec::new();
    for violation in rule.safety_violations() {
        let v = violation.var();
        if reported.contains(&v) {
            continue;
        }
        reported.push(v);
        let mut note = format!("rule at {owner}");
        let (code, message) = match violation {
            SafetyViolation::UnboundHead(_) => (
                DiagCode::UnboundHeadVar,
                format!(
                    "head variable ${v} of `{}` is not bound by the body",
                    rule.head
                ),
            ),
            SafetyViolation::Rebinding(_, i) => (
                DiagCode::UnboundNegatedVar,
                format!(
                    "assignment `{}` (body position {i}) rebinds already-bound variable ${v}",
                    rule.body[i]
                ),
            ),
            SafetyViolation::UnboundName(_, i) => {
                let WBodyItem::Literal(lit) = &rule.body[i] else {
                    continue;
                };
                let what = if lit.atom.rel == NameTerm::Var(v) {
                    "relation"
                } else {
                    "peer"
                };
                note += ": the target of a remote atom must be concrete when left-to-right \
                         evaluation reaches it, or the delegation target is undefined";
                (
                    DiagCode::UnboundNameVar,
                    format!(
                        "variable ${v} in the {what} position of `{}` (body position {i}) is \
                         not bound by earlier items",
                        lit.atom
                    ),
                )
            }
            SafetyViolation::UnboundRead(_, i) => {
                let message = match &rule.body[i] {
                    WBodyItem::Literal(lit) => format!(
                        "variable ${v} of negated atom `{}` (body position {i}) is not bound \
                         positively to its left",
                        lit.atom
                    ),
                    item @ WBodyItem::Cmp { .. } => format!(
                        "variable ${v} read by comparison `{item}` (body position {i}) is not \
                         bound by earlier items"
                    ),
                    item => format!(
                        "variable ${v} read by assignment `{item}` (body position {i}) is not \
                         bound by earlier items"
                    ),
                };
                (DiagCode::UnboundNegatedVar, message)
            }
        };
        out.push(
            Diagnostic::new(code, message)
                .with_span(info.span)
                .note(note),
        );
    }
}

/// WDL004: negation through a recursive cycle on the *quotiented*
/// cross-peer dependency graph — symbolic nodes collapse into every
/// concrete node they may denote, so cycles that only close through a
/// variable peer (invisible to each peer's local `stratify`) are
/// caught conservatively.
pub fn stratification(graph: &DepGraph) -> Vec<Diagnostic> {
    if !graph.edges.iter().any(|e| e.negative) {
        return Vec::new();
    }
    let (classes, n) = graph.quotient();
    let signed: Vec<(usize, usize, bool)> = graph
        .edges
        .iter()
        .map(|e| (classes[e.src], classes[e.dst], e.negative))
        .collect();
    let Some(cycle) = negative_cycle(n, &signed) else {
        return Vec::new();
    };
    // Name each class by a representative node, preferring concrete ones.
    let mut repr: HashMap<usize, Node> = HashMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let entry = repr.entry(classes[i]).or_insert(*node);
        if matches!(
            entry,
            Node::AnyPeer { .. } | Node::AnyRel { .. } | Node::Any
        ) && matches!(node, Node::Rel { .. })
        {
            *entry = *node;
        }
    }
    let rendered = cycle.render(|c| repr[&c].to_string());
    let cycle_set: HashSet<usize> = cycle.nodes.iter().copied().collect();
    let in_cycle = |e: &&crate::graph::Edge| {
        cycle_set.contains(&classes[e.src]) && cycle_set.contains(&classes[e.dst])
    };
    let span = graph
        .edges
        .iter()
        .filter(|e| e.negative)
        .find(in_cycle)
        .and_then(|e| e.span);
    let crosses = graph
        .edges
        .iter()
        .filter(in_cycle)
        .any(|e| e.kind != EdgeKind::Local);
    let mut d = Diagnostic::new(
        DiagCode::UnstratifiableNegation,
        format!("negation through recursive cycle {rendered}"),
    )
    .with_span(span);
    if crosses {
        d = d.note(
            "the cycle crosses peer boundaries; per-peer stratification cannot detect it \
             and evaluation may never quiesce",
        );
    }
    vec![d]
}

/// WDL005 plus the bounded-depth witness: rule-installation cycles
/// between peers. An install edge `p -> q` means a rule evaluated at
/// `p` delegates its remainder to `q`; a cycle fed by two or more
/// distinct rules can keep growing the installed rule set (a single
/// rule's own chain always shrinks its remainder, so it is bounded).
/// When the install graph is acyclic, the longest chain is returned as
/// the conservative delegation-depth witness.
pub fn delegation(graph: &DepGraph) -> (Vec<Diagnostic>, Option<usize>) {
    let mut peers: Vec<Symbol> = Vec::new();
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    let idx = |s: Symbol, peers: &mut Vec<Symbol>, index: &mut HashMap<Symbol, usize>| {
        *index.entry(s).or_insert_with(|| {
            peers.push(s);
            peers.len() - 1
        })
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for e in &graph.installs {
        let f = idx(e.from, &mut peers, &mut index);
        let t = idx(e.to, &mut peers, &mut index);
        edges.push((f, t));
    }
    let n = peers.len();
    if n == 0 {
        return (Vec::new(), Some(0));
    }

    // SCCs over the peer-level install graph (reuse the signed-cycle
    // helper shape: an all-positive graph has a cycle iff some SCC has
    // an internal edge).
    let comp = components(n, &edges);
    let mut diags = Vec::new();
    let mut cyclic = false;
    let mut seen_comp: HashSet<usize> = HashSet::new();
    for (ei, &(f, t)) in edges.iter().enumerate() {
        if comp[f] != comp[t] || !seen_comp.insert(comp[f]) {
            continue;
        }
        cyclic = true;
        let members: Vec<String> = (0..n)
            .filter(|&i| comp[i] == comp[f])
            .map(|i| peers[i].to_string())
            .collect();
        // Distinct rules feeding the cycle: the growth argument needs
        // at least two (one rule's remainder chain is bounded).
        let rules: HashSet<_> = graph
            .installs
            .iter()
            .enumerate()
            .filter(|&(j, _)| comp[edges[j].0] == comp[f] && comp[edges[j].1] == comp[f])
            .map(|(_, e)| e.rule)
            .collect();
        if rules.len() < 2 {
            continue;
        }
        let span = graph.installs[ei].span;
        diags.push(
            Diagnostic::new(
                DiagCode::UnboundedDelegation,
                format!(
                    "rule installation may cycle between peers {{{}}}: delegation can keep \
                     re-installing rules around the cycle",
                    members.join(", ")
                ),
            )
            .with_span(span)
            .note(format!(
                "{} distinct rules contribute installs inside the cycle; no bounded \
                 delegation-depth witness exists",
                rules.len()
            )),
        );
    }
    if cyclic {
        return (diags, None);
    }

    // Acyclic: longest chain of installs (edge count) via memoized DFS.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(f, t) in &edges {
        adj[f].push(t);
    }
    let mut memo = vec![usize::MAX; n];
    fn depth(u: usize, adj: &[Vec<usize>], memo: &mut [usize]) -> usize {
        if memo[u] != usize::MAX {
            return memo[u];
        }
        let d = adj[u]
            .iter()
            .map(|&v| 1 + depth(v, adj, memo))
            .max()
            .unwrap_or(0);
        memo[u] = d;
        d
    }
    let witness = (0..n).map(|u| depth(u, &adj, &mut memo)).max().unwrap_or(0);
    (diags, Some(witness))
}

/// Plain (unsigned) SCC labelling over `0..n`.
fn components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let signed: Vec<(usize, usize, bool)> = edges.iter().map(|&(f, t)| (f, t, false)).collect();
    // negative_cycle's SCC pass is not exported; redo Kosaraju here.
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, d, _) in &signed {
        fwd[s].push(d);
        rev[d].push(s);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < fwd[u].len() {
                let v = fwd[u][*i];
                *i += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = next;
        while let Some(u) = stack.pop() {
            for &v in &rev[u] {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// WDL006/WDL007: arity conformance against every modelled peer's
/// schema, and writes into a foreign peer's extensional relation
/// without a matching write grant.
pub fn schema_conformance(models: &[PeerModel]) -> Vec<Diagnostic> {
    let by_name: HashMap<Symbol, &PeerModel> = models.iter().map(|m| (m.name, m)).collect();
    let mut out = Vec::new();
    for model in models {
        for info in &model.rules {
            let rule = &info.rule;
            let writer = info.delegated_from.unwrap_or(model.name);
            let atoms =
                std::iter::once((&rule.head, true)).chain(rule.body.iter().filter_map(|item| {
                    match item {
                        WBodyItem::Literal(l) => Some((&l.atom, false)),
                        _ => None,
                    }
                }));
            for (atom, is_head) in atoms {
                let (Some(rel), Some(peer)) = (atom.rel.as_name(), atom.peer.as_name()) else {
                    continue;
                };
                let Some(target) = by_name.get(&peer) else {
                    continue;
                };
                if let Some(decl) = target.schema.get(rel) {
                    if decl.arity != atom.args.len() {
                        out.push(
                            Diagnostic::new(
                                DiagCode::ArityMismatch,
                                format!(
                                    "`{atom}` has arity {}, but {rel}@{peer} is declared with \
                                     arity {}",
                                    atom.args.len(),
                                    decl.arity
                                ),
                            )
                            .with_span(info.span)
                            .note(format!("rule at {}", model.name)),
                        );
                    }
                    if is_head
                        && peer != writer
                        && decl.kind == RelationKind::Extensional
                        && !target.acl.can_write(rel, writer)
                    {
                        out.push(
                            Diagnostic::new(
                                DiagCode::UngrantedWrite,
                                format!(
                                    "rule at {writer} writes extensional relation {rel}@{peer}, \
                                     but {peer} has not granted {writer} write access"
                                ),
                            )
                            .with_span(info.span)
                            .note(format!(
                                "the update would be dropped at {peer}'s write gate; grant with \
                                 `acl_mut().grant_write(\"{rel}\", \"{writer}\")`"
                            )),
                        );
                    }
                }
            }
        }
    }
    out
}

/// WDL008/WDL009: dead rules (a positive body atom over an intensional
/// relation nothing derives) and orphan intensional declarations
/// (neither derived nor read). Symbolic heads suppress conservatively:
/// a `$r@peer` head may derive *any* relation at `peer`, a `$r@$p` head
/// any relation anywhere.
pub fn reachability(models: &[PeerModel]) -> Vec<Diagnostic> {
    let by_name: HashMap<Symbol, &PeerModel> = models.iter().map(|m| (m.name, m)).collect();
    let mut derived: HashSet<(Symbol, Symbol)> = HashSet::new();
    let mut derived_rel_anywhere: HashSet<Symbol> = HashSet::new();
    let mut wildcard_writers: HashSet<Symbol> = HashSet::new();
    let mut global_wildcard = false;
    let mut read: HashSet<(Symbol, Symbol)> = HashSet::new();
    let mut read_rel_anywhere: HashSet<Symbol> = HashSet::new();
    let mut read_all_at: HashSet<Symbol> = HashSet::new();
    let mut read_everything = false;
    for model in models {
        for info in &model.rules {
            match (info.rule.head.rel.as_name(), info.rule.head.peer.as_name()) {
                (Some(rel), Some(peer)) => {
                    derived.insert((peer, rel));
                }
                (Some(rel), None) => {
                    derived_rel_anywhere.insert(rel);
                }
                (None, Some(peer)) => {
                    wildcard_writers.insert(peer);
                }
                (None, None) => global_wildcard = true,
            }
            for item in &info.rule.body {
                let WBodyItem::Literal(l) = item else {
                    continue;
                };
                match (l.atom.rel.as_name(), l.atom.peer.as_name()) {
                    (Some(rel), Some(peer)) => {
                        read.insert((peer, rel));
                    }
                    (Some(rel), None) => {
                        read_rel_anywhere.insert(rel);
                    }
                    (None, Some(peer)) => {
                        read_all_at.insert(peer);
                    }
                    (None, None) => read_everything = true,
                }
            }
        }
    }
    let derives = |peer: Symbol, rel: Symbol| {
        global_wildcard
            || wildcard_writers.contains(&peer)
            || derived_rel_anywhere.contains(&rel)
            || derived.contains(&(peer, rel))
    };
    let reads = |peer: Symbol, rel: Symbol| {
        read_everything
            || read_all_at.contains(&peer)
            || read_rel_anywhere.contains(&rel)
            || read.contains(&(peer, rel))
    };

    let mut out = Vec::new();
    for model in models {
        for info in model.rules.iter().filter(|i| i.delegated_from.is_none()) {
            for item in &info.rule.body {
                let WBodyItem::Literal(l) = item else {
                    continue;
                };
                if l.negated {
                    continue;
                }
                let (Some(rel), Some(peer)) = (l.atom.rel.as_name(), l.atom.peer.as_name()) else {
                    continue;
                };
                let Some(target) = by_name.get(&peer) else {
                    continue;
                };
                if target.schema.kind_of(rel) == Some(RelationKind::Intensional)
                    && !derives(peer, rel)
                {
                    out.push(
                        Diagnostic::new(
                            DiagCode::DeadRule,
                            format!(
                                "rule reads intensional relation {rel}@{peer}, which no rule \
                                 derives — the body can never be satisfied"
                            ),
                        )
                        .with_span(info.span)
                        .note(format!("rule at {}", model.name)),
                    );
                }
            }
        }
        let mut decls: Vec<_> = model
            .schema
            .iter()
            .filter(|d| d.kind == RelationKind::Intensional)
            .collect();
        decls.sort_by_key(|d| d.rel.as_str());
        for decl in decls {
            if !derives(model.name, decl.rel) && !reads(model.name, decl.rel) {
                out.push(Diagnostic::new(
                    DiagCode::UnreachableRelation,
                    format!(
                        "intensional relation {}@{} is declared but neither derived nor read \
                         by any rule",
                        decl.rel, model.name
                    ),
                ));
            }
        }
    }
    out
}

//! Stratification of programs with negation.
//!
//! Builds the predicate dependency graph (an edge `q → p` for every rule
//! `p :- ..., q, ...`, marked *negative* when `q` occurs under `not`),
//! computes strongly connected components, rejects programs with a negative
//! edge inside a component (negation through recursion), and orders the
//! components bottom-up.
//!
//! The demo paper notes negation is "supported by the language [but] not yet
//! implemented in the WebdamLog system"; this kernel implements it, and the
//! WebdamLog layer exposes it as an extension (see EXPERIMENTS.md).

use crate::{DatalogError, Result, Rule, Symbol};
use std::collections::HashMap;

/// The output of stratification: rule indices grouped by stratum, bottom-up.
#[derive(Debug, Clone, Default)]
pub struct Strata {
    /// `strata[i]` lists indices (into the program's rule vector) of the
    /// rules whose heads live in stratum `i`.
    pub rule_strata: Vec<Vec<usize>>,
    /// Stratum number per IDB predicate.
    pub pred_stratum: HashMap<Symbol, usize>,
}

impl Strata {
    /// Number of strata.
    pub fn len(&self) -> usize {
        self.rule_strata.len()
    }

    /// True when there are no rules at all.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.rule_strata.is_empty()
    }

    /// The IDB predicates of stratum `i`.
    pub fn preds_of(&self, stratum: usize) -> Vec<Symbol> {
        self.pred_stratum
            .iter()
            .filter(|(_, s)| **s == stratum)
            .map(|(p, _)| *p)
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq)]
enum EdgeSign {
    Pos,
    Neg,
}

/// A cycle through a signed dependency graph containing at least one
/// negative edge — the witness behind a [`DatalogError::NotStratifiable`],
/// also reused by the `wdl-analyze` crate's cross-peer stratification
/// check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegativeCycle {
    /// Node indices along the cycle, in order. The cycle closes from the
    /// last node back to the first.
    pub nodes: Vec<usize>,
    /// `negative[i]` is the sign of the edge leaving `nodes[i]` (toward
    /// `nodes[(i + 1) % len]`). At least one entry is `true`.
    pub negative: Vec<bool>,
}

impl NegativeCycle {
    /// Renders the cycle as `a -> not b -> a`, naming nodes through `name`.
    pub fn render(&self, mut name: impl FnMut(usize) -> String) -> String {
        let mut out = name(self.nodes[0]);
        for i in 0..self.nodes.len() {
            let next = self.nodes[(i + 1) % self.nodes.len()];
            out.push_str(" -> ");
            if self.negative[i] {
                out.push_str("not ");
            }
            out.push_str(&name(next));
        }
        out
    }
}

/// Finds a cycle containing a negative edge in a signed graph over nodes
/// `0..n`, given as `(src, dst, is_negative)` edges. Returns `None` when
/// every negative edge crosses between strongly connected components
/// (i.e. the graph is stratifiable).
pub fn negative_cycle(n: usize, edges: &[(usize, usize, bool)]) -> Option<NegativeCycle> {
    if n == 0 {
        return None;
    }
    let comp = scc_components(n, edges);
    let (src, dst) = edges
        .iter()
        .find(|&&(s, d, neg)| neg && comp[s] == comp[d])
        .map(|&(s, d, _)| (s, d))?;
    if src == dst {
        return Some(NegativeCycle {
            nodes: vec![src],
            negative: vec![true],
        });
    }
    // Close the cycle: walk from `dst` back to `src` inside the component
    // (preferring positive edges so the witness shows exactly one
    // negation when one suffices).
    let mut adj: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    for &(s, d, neg) in edges {
        if comp[s] == comp[src] && comp[d] == comp[src] {
            adj[s].push((d, neg));
        }
    }
    for a in &mut adj {
        a.sort_by_key(|&(_, neg)| neg);
    }
    let mut parent: Vec<Option<(usize, bool)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::from([dst]);
    let mut seen = vec![false; n];
    seen[dst] = true;
    while let Some(u) = queue.pop_front() {
        if u == src {
            break;
        }
        for &(v, neg) in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some((u, neg));
                queue.push_back(v);
            }
        }
    }
    // Path dst -> ... -> src exists because both sit in one SCC.
    let mut rev = Vec::new();
    let mut at = src;
    while at != dst {
        let (prev, neg) = parent[at]?;
        rev.push((at, neg));
        at = prev;
    }
    let mut nodes = vec![src, dst];
    let mut negative = vec![true];
    for &(node, neg) in rev.iter().rev() {
        negative.push(neg);
        if node != src {
            nodes.push(node);
        }
    }
    Some(NegativeCycle { nodes, negative })
}

/// Kosaraju-style SCC labelling: `result[v]` identifies v's component.
fn scc_components(n: usize, edges: &[(usize, usize, bool)]) -> Vec<usize> {
    let mut fwd: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, d, _) in edges {
        fwd[s].push(d);
        rev[d].push(s);
    }
    // First pass: finish order via iterative DFS.
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
    // Second pass: reverse graph in reverse finish order.
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

/// Computes strata for `rules`. Errors with [`DatalogError::NotStratifiable`]
/// if negation occurs through recursion.
pub fn stratify(rules: &[Rule]) -> Result<Strata> {
    // IDB predicates: those appearing in some head.
    let idb: Vec<Symbol> = {
        let mut v = Vec::new();
        for r in rules {
            if !v.contains(&r.head.pred) {
                v.push(r.head.pred);
            }
        }
        v
    };
    let index_of: HashMap<Symbol, usize> = idb.iter().enumerate().map(|(i, p)| (*p, i)).collect();

    // Dependency edges between IDB predicates only (EDB facts are stratum 0
    // inputs and impose no constraints).
    let mut edges: Vec<(usize, usize, EdgeSign)> = Vec::new();
    for r in rules {
        let head = index_of[&r.head.pred];
        for p in r.positive_preds() {
            if let Some(&src) = index_of.get(&p) {
                edges.push((src, head, EdgeSign::Pos));
            }
        }
        for p in r.negative_preds() {
            if let Some(&src) = index_of.get(&p) {
                edges.push((src, head, EdgeSign::Neg));
            }
        }
    }

    // Longest-path stratum assignment: stratum(p) >= stratum(q) for positive
    // q→p, stratum(p) >= stratum(q)+1 for negative. Bellman-Ford style
    // relaxation; more than |idb| rounds of change means a negative cycle.
    let n = idb.len();
    let mut stratum = vec![0usize; n];
    for round in 0..=n {
        let mut changed = false;
        for &(src, dst, sign) in &edges {
            let required = match sign {
                EdgeSign::Pos => stratum[src],
                EdgeSign::Neg => stratum[src] + 1,
            };
            if stratum[dst] < required {
                stratum[dst] = required;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if round == n {
            let signed: Vec<(usize, usize, bool)> = edges
                .iter()
                .map(|&(s, d, sign)| (s, d, sign == EdgeSign::Neg))
                .collect();
            let msg = match negative_cycle(n, &signed) {
                Some(cycle) => format!(
                    "negation through recursive cycle {}",
                    cycle.render(|i| idb[i].to_string())
                ),
                None => {
                    // Unreachable in practice (a failed relaxation implies
                    // a negative cycle), kept as a conservative fallback.
                    let cyclic: Vec<String> = idb
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| stratum[*i] > n)
                        .map(|(_, p)| p.to_string())
                        .collect();
                    format!(
                        "negation through recursion involving {{{}}}",
                        cyclic.join(", ")
                    )
                }
            };
            return Err(DatalogError::NotStratifiable(msg));
        }
    }

    let max_stratum = stratum.iter().copied().max().unwrap_or(0);
    let mut rule_strata: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (ri, r) in rules.iter().enumerate() {
        rule_strata[stratum[index_of[&r.head.pred]]].push(ri);
    }
    // Drop empty trailing strata produced by gaps.
    let pred_stratum = idb
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, stratum[i]))
        .collect();
    Ok(Strata {
        rule_strata,
        pred_stratum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, BodyItem, Term};

    fn atom(pred: &str, vars: &[&str]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    fn rule(head: Atom, body: Vec<BodyItem>) -> Rule {
        Rule::new(head, body)
    }

    #[test]
    fn positive_recursion_single_stratum() {
        let rules = vec![
            rule(
                atom("path", &["x", "y"]),
                vec![atom("edge", &["x", "y"]).into()],
            ),
            rule(
                atom("path", &["x", "z"]),
                vec![
                    atom("edge", &["x", "y"]).into(),
                    atom("path", &["y", "z"]).into(),
                ],
            ),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.rule_strata[0].len(), 2);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        // reach(x) :- src(x); reach(y) :- reach(x), edge(x,y)
        // unreached(x) :- node(x), not reach(x)
        let rules = vec![
            rule(atom("reach", &["x"]), vec![atom("src", &["x"]).into()]),
            rule(
                atom("reach", &["y"]),
                vec![
                    atom("reach", &["x"]).into(),
                    atom("edge", &["x", "y"]).into(),
                ],
            ),
            rule(
                atom("unreached", &["x"]),
                vec![
                    atom("node", &["x"]).into(),
                    BodyItem::not_atom(atom("reach", &["x"])),
                ],
            ),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.pred_stratum[&Symbol::intern("reach")], 0);
        assert_eq!(s.pred_stratum[&Symbol::intern("unreached")], 1);
    }

    #[test]
    fn negation_through_recursion_rejected() {
        // p(x) :- q(x), not r(x); r(x) :- q(x), not p(x)
        let rules = vec![
            rule(
                atom("p", &["x"]),
                vec![
                    atom("q", &["x"]).into(),
                    BodyItem::not_atom(atom("r", &["x"])),
                ],
            ),
            rule(
                atom("r", &["x"]),
                vec![
                    atom("q", &["x"]).into(),
                    BodyItem::not_atom(atom("p", &["x"])),
                ],
            ),
        ];
        let err = stratify(&rules).unwrap_err();
        let DatalogError::NotStratifiable(msg) = err else {
            panic!("expected NotStratifiable, got {err:?}");
        };
        // The message names the actual cycle, not just the predicate set.
        assert!(msg.contains("recursive cycle"), "{msg}");
        assert!(msg.contains("not p") || msg.contains("not r"), "{msg}");
    }

    #[test]
    fn negative_cycle_witness_found_and_rendered() {
        // 0 -not-> 1 -pos-> 2 -pos-> 0: one negative edge in the cycle.
        let edges = [(0, 1, true), (1, 2, false), (2, 0, false)];
        let cyc = negative_cycle(3, &edges).expect("cycle");
        assert_eq!(cyc.nodes.len(), cyc.negative.len());
        assert_eq!(cyc.negative.iter().filter(|&&n| n).count(), 1);
        let names = ["a", "b", "c"];
        let rendered = cyc.render(|i| names[i].to_string());
        assert!(rendered.contains("not b"), "{rendered}");
        assert!(
            rendered.starts_with('a') && rendered.ends_with('a'),
            "{rendered}"
        );
    }

    #[test]
    fn negative_edge_across_components_is_fine() {
        // 0 -not-> 1, 1 -pos-> 2, 2 -pos-> 1: the negative edge is not
        // part of any cycle.
        let edges = [(0, 1, true), (1, 2, false), (2, 1, false)];
        assert!(negative_cycle(3, &edges).is_none());
        assert!(negative_cycle(0, &[]).is_none());
    }

    #[test]
    fn self_negation_witness() {
        let edges = [(0, 0, true)];
        let cyc = negative_cycle(1, &edges).expect("self-loop");
        assert_eq!(cyc.render(|_| "p".to_string()), "p -> not p");
    }

    #[test]
    fn self_negation_rejected() {
        let rules = vec![rule(
            atom("p", &["x"]),
            vec![
                atom("q", &["x"]).into(),
                BodyItem::not_atom(atom("p", &["x"])),
            ],
        )];
        assert!(stratify(&rules).is_err());
    }

    #[test]
    fn empty_program() {
        let s = stratify(&[]).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.rule_strata[0].is_empty());
    }

    #[test]
    fn chained_negations_stack_strata() {
        // a :- base. b :- base, not a. c :- base, not b.
        let rules = vec![
            rule(atom("a", &["x"]), vec![atom("base", &["x"]).into()]),
            rule(
                atom("b", &["x"]),
                vec![
                    atom("base", &["x"]).into(),
                    BodyItem::not_atom(atom("a", &["x"])),
                ],
            ),
            rule(
                atom("c", &["x"]),
                vec![
                    atom("base", &["x"]).into(),
                    BodyItem::not_atom(atom("b", &["x"])),
                ],
            ),
        ];
        let s = stratify(&rules).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.pred_stratum[&Symbol::intern("c")], 2);
    }
}

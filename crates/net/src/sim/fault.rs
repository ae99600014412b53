//! Composable fault plans for the simulated network.
//!
//! The repo's one fault plan: it composes message **drop** (random or
//! every n-th), **duplication**, **reordering jitter**, **latency
//! distributions**, and **partitions** (bidirectional or asymmetric, with a
//! heal time) — per link or globally. All randomness is drawn from the
//! simulator's single seeded generator, so a plan plus a `u64` seed fully
//! determines every run.
//!
//! Two properties of a plan matter to the convergence oracle
//! ([`crate::sim::oracle`]):
//!
//! * **lossless** — no message is ever destroyed (no drops, partitions
//!   buffer instead of dropping). Delivered state can then catch up to the
//!   fault-free outcome once everything flushes.
//! * **ordered** — per-link FIFO is preserved and nothing is duplicated
//!   (TCP-like). Retraction streams are only safe to replay under ordered
//!   plans; an unordered lossless plan still guarantees convergence for
//!   monotone (insert-only) workloads.

use wdl_datalog::Symbol;

/// Fault and latency parameters of one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability that a send is silently destroyed.
    pub drop_prob: f64,
    /// Probability that a send is delivered twice (independent latencies).
    pub dup_prob: f64,
    /// Deterministic drop of every n-th send (1-based, counted across the
    /// whole network), for exact-count tests.
    pub drop_every_nth: Option<u64>,
    /// Minimum one-way latency in virtual microseconds.
    pub latency_min: u64,
    /// Maximum one-way latency in virtual microseconds.
    pub latency_max: u64,
    /// Probability of adding extra reordering jitter on top of latency.
    pub jitter_prob: f64,
    /// Maximum extra jitter in virtual microseconds.
    pub jitter_max: u64,
    /// If true the link preserves send order (deliveries are scheduled
    /// monotonically), modelling a TCP stream instead of datagrams.
    pub fifo: bool,
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            drop_every_nth: None,
            latency_min: 50,
            latency_max: 50,
            jitter_prob: 0.0,
            jitter_max: 0,
            fifo: false,
        }
    }
}

impl LinkFaults {
    /// True iff this link never destroys a message.
    pub fn is_lossless(&self) -> bool {
        self.drop_prob == 0.0 && self.drop_every_nth.is_none()
    }

    /// True iff this link preserves order and never duplicates.
    pub fn is_ordered(&self) -> bool {
        self.fifo && self.dup_prob == 0.0
    }
}

/// A partition window: traffic matching the window is cut from `from`
/// (inclusive) until `until` (exclusive) in virtual microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: Symbol,
    /// The other side.
    pub b: Symbol,
    /// Window start (virtual µs, inclusive).
    pub from: u64,
    /// Window end — the heal time (virtual µs, exclusive).
    pub until: u64,
    /// If false, only `a -> b` traffic is cut (asymmetric partition).
    pub bidirectional: bool,
}

impl Partition {
    /// Does this window cut a message sent `from -> to` at time `at`?
    pub fn blocks(&self, from: Symbol, to: Symbol, at: u64) -> bool {
        if at < self.from || at >= self.until {
            return false;
        }
        (self.a == from && self.b == to) || (self.bidirectional && self.b == from && self.a == to)
    }
}

/// A composable network fault plan (see the module docs).
///
/// Built fluently:
///
/// ```
/// use wdl_net::sim::FaultPlan;
/// let plan = FaultPlan::lossless()
///     .delay(100, 2_000)
///     .duplicate(0.1)
///     .partition("alice", "bob", 5_000, 12_000);
/// assert!(plan.is_lossless());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    default_link: LinkFaults,
    links: Vec<((Symbol, Symbol), LinkFaults)>,
    partitions: Vec<Partition>,
    /// If true, partitioned sends are destroyed; if false (default) they
    /// are buffered and delivered after the heal time, like a reconnecting
    /// transport.
    drop_partitioned: bool,
}

impl FaultPlan {
    /// The identity plan: fixed small latency, no faults.
    pub fn lossless() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sets the default-link drop probability.
    pub fn drop(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.default_link.drop_prob = p;
        self
    }

    /// Sets the default-link duplication probability.
    pub fn duplicate(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.default_link.dup_prob = p;
        self
    }

    /// Deterministically drops every n-th send network-wide (v1 behaviour).
    pub fn drop_every_nth(mut self, n: u64) -> FaultPlan {
        self.default_link.drop_every_nth = Some(n);
        self
    }

    /// Sets the default-link latency range (virtual µs). A wide range is
    /// itself a reordering fault: two back-to-back sends may swap.
    pub fn delay(mut self, min: u64, max: u64) -> FaultPlan {
        assert!(min <= max, "empty latency range");
        self.default_link.latency_min = min;
        self.default_link.latency_max = max;
        self
    }

    /// Adds explicit reordering: with probability `p` a message takes up to
    /// `max_extra` µs of additional jitter.
    pub fn reorder(mut self, p: f64, max_extra: u64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.default_link.jitter_prob = p;
        self.default_link.jitter_max = max_extra;
        self.default_link.fifo = false;
        self
    }

    /// Makes every link order-preserving (TCP-like): deliveries on a link
    /// are scheduled monotonically even when latencies vary.
    pub fn fifo(mut self) -> FaultPlan {
        self.default_link.fifo = true;
        for (_, lf) in &mut self.links {
            lf.fifo = true;
        }
        self
    }

    /// Overrides the faults of one directed link.
    pub fn link(
        mut self,
        from: impl Into<Symbol>,
        to: impl Into<Symbol>,
        faults: LinkFaults,
    ) -> FaultPlan {
        self.links.push(((from.into(), to.into()), faults));
        self
    }

    /// Cuts `a <-> b` during `[from, until)` virtual µs.
    pub fn partition(
        mut self,
        a: impl Into<Symbol>,
        b: impl Into<Symbol>,
        from: u64,
        until: u64,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            a: a.into(),
            b: b.into(),
            from,
            until,
            bidirectional: true,
        });
        self
    }

    /// Cuts only `from_peer -> to_peer` during `[from, until)` — an
    /// asymmetric partition (one direction keeps flowing).
    pub fn partition_one_way(
        mut self,
        from_peer: impl Into<Symbol>,
        to_peer: impl Into<Symbol>,
        from: u64,
        until: u64,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            a: from_peer.into(),
            b: to_peer.into(),
            from,
            until,
            bidirectional: false,
        });
        self
    }

    /// Makes partitions destroy traffic instead of buffering it until heal.
    pub fn drop_partitions(mut self) -> FaultPlan {
        self.drop_partitioned = true;
        self
    }

    /// The faults governing one directed link.
    pub fn link_for(&self, from: Symbol, to: Symbol) -> &LinkFaults {
        self.links
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, lf)| lf)
            .unwrap_or(&self.default_link)
    }

    /// Partition windows blocking `from -> to` at `at`; returns the latest
    /// heal time if any window applies.
    pub(crate) fn partition_heal(&self, from: Symbol, to: Symbol, at: u64) -> Option<u64> {
        self.partitions
            .iter()
            .filter(|p| p.blocks(from, to, at))
            .map(|p| p.until)
            .max()
    }

    /// True iff partitioned sends are destroyed rather than buffered.
    pub fn partitions_drop(&self) -> bool {
        self.drop_partitioned
    }

    /// The time after which no partition window is active.
    pub fn heal_time(&self) -> u64 {
        self.partitions.iter().map(|p| p.until).max().unwrap_or(0)
    }

    /// True iff no message can ever be destroyed under this plan.
    pub fn is_lossless(&self) -> bool {
        let links_ok =
            self.default_link.is_lossless() && self.links.iter().all(|(_, lf)| lf.is_lossless());
        links_ok && (self.partitions.is_empty() || !self.drop_partitioned)
    }

    /// True iff every link preserves order and never duplicates.
    pub fn is_ordered(&self) -> bool {
        self.default_link.is_ordered() && self.links.iter().all(|(_, lf)| lf.is_ordered())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn default_plan_is_lossless_and_unordered() {
        let p = FaultPlan::lossless();
        assert!(p.is_lossless());
        assert!(!p.is_ordered(), "datagram semantics by default");
        assert!(p.fifo().is_ordered());
    }

    #[test]
    fn drops_and_dropped_partitions_are_lossy() {
        assert!(!FaultPlan::lossless().drop(0.1).is_lossless());
        assert!(!FaultPlan::lossless().drop_every_nth(3).is_lossless());
        let buffered = FaultPlan::lossless().partition("a", "b", 0, 10);
        assert!(buffered.is_lossless());
        assert!(!buffered.drop_partitions().is_lossless());
    }

    #[test]
    fn link_overrides_take_precedence() {
        let lossy = LinkFaults {
            drop_prob: 1.0,
            ..LinkFaults::default()
        };
        let p = FaultPlan::lossless().link("a", "b", lossy);
        assert_eq!(p.link_for(sym("a"), sym("b")).drop_prob, 1.0);
        assert_eq!(p.link_for(sym("b"), sym("a")).drop_prob, 0.0);
        assert!(!p.is_lossless());
    }

    #[test]
    fn partition_windows_and_direction() {
        let p = FaultPlan::lossless()
            .partition("a", "b", 10, 20)
            .partition_one_way("c", "d", 0, 5);
        assert_eq!(p.partition_heal(sym("a"), sym("b"), 15), Some(20));
        assert_eq!(p.partition_heal(sym("b"), sym("a"), 15), Some(20));
        assert_eq!(p.partition_heal(sym("a"), sym("b"), 20), None, "healed");
        assert_eq!(p.partition_heal(sym("c"), sym("d"), 3), Some(5));
        assert_eq!(p.partition_heal(sym("d"), sym("c"), 3), None, "asymmetric");
        assert_eq!(p.heal_time(), 20);
    }

    #[test]
    fn dup_breaks_ordered_even_with_fifo() {
        let p = FaultPlan::lossless().fifo().duplicate(0.5);
        assert!(!p.is_ordered());
        assert!(p.is_lossless());
    }
}

//! # Reliable delivery sessions
//!
//! WebdamLog's convergence argument assumes every delta eventually
//! arrives. Raw transports do not promise that: the simulator drops and
//! reorders on purpose, TCP connections die, peers crash mid-flight. This
//! module wraps any [`crate::Transport`] in a per-link *session* that
//! upgrades best-effort links to exactly-once, in-order application
//! delivery:
//!
//! * **Incarnation-tagged frames** — every frame carries the sender's
//!   incarnation (a number that grows across restarts). There is no
//!   blocking handshake: the first frame from an unknown
//!   `(peer, incarnation)` establishes the inbound session, and a jump in
//!   incarnation is the restart signal
//!   ([`crate::TransportEvent::PeerRestarted`]).
//! * **Sequencing + acks** — data frames carry monotone sequence numbers;
//!   receivers acknowledge with a cumulative watermark plus a selective
//!   list of out-of-order frames already buffered.
//! * **Retransmission** — unacked frames retransmit under exponential
//!   backoff with jitter, capped so a down peer is probed indefinitely
//!   rather than forgotten.
//! * **Exactly-once delivery** — receivers deduplicate at or below the
//!   cumulative watermark and buffer above it, releasing frames to the
//!   application strictly in order.
//! * **Durability choreography** — acks advertise the *committed*
//!   watermark, advanced only at [`crate::Transport::commit_delivered`]
//!   after the application's group commit; watermark advances stream into
//!   the peer's durability sink (via [`crate::Transport::watermarks`] and
//!   [`wdl_core::Peer::note_session_watermark`]) so a crashed peer
//!   restores its dedup floor instead of re-applying — or silently
//!   losing — in-flight frames.
//! * **Liveness** — per-peer health ([`PeerHealth`]: `Up → Suspect →
//!   Down`) driven by silence while traffic is outstanding, surfaced as
//!   [`crate::TransportEvent`]s. Suspicion triggers a `Hello` probe;
//!   `Down` keeps probing at the capped backoff (recovery is detected by
//!   any frame coming back).
//! * **Backpressure** — a bounded per-link outbox; overflow surfaces as
//!   the recoverable [`crate::NetError::PeerUnreachable`] so the caller
//!   defers and retries instead of blocking or aborting.
//!
//! A restart invalidates *derived-facts* diffs queued toward the
//! restarted peer (their base state is gone — replaying an old diff could
//! resurrect retracted derivations). Those frames are blanked in place
//! (payload replaced with an empty derived diff, sequence number kept, so
//! the cumulative ack can still advance) and the application re-sends the
//! full derived state after [`wdl_core::Peer::resync_target`]. Persistent
//! facts, delegations and revocations are idempotent set operations over
//! durable state, so their queued frames replay as-is.
//!
//! See the README's "Reliable delivery" section for the protocol
//! walkthrough and parameter table.

mod endpoint;
mod frame;
mod link;

pub use endpoint::{SessionEndpoint, SessionStats};
pub use link::PeerHealth;

/// A monotone microsecond clock driving retransmission and liveness.
///
/// Real deployments use [`WallClock`]; the simulator injects its virtual
/// clock so timer behavior is deterministic and seed-replayable.
pub trait Clock: Send {
    /// Microseconds since an arbitrary fixed origin.
    fn now_micros(&self) -> u64;
}

/// Wall time measured from construction.
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// A clock starting at zero now.
    pub fn new() -> WallClock {
        WallClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// Tuning knobs for the session layer.
///
/// The defaults are sized for the simulator's virtual microsecond
/// timescale and for loopback TCP; wide-area deployments would scale the
/// four time fields up together.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// First retransmission delay; doubles per attempt (capped).
    pub backoff_base_micros: u64,
    /// Retransmission delay ceiling — also the probing interval for a
    /// [`PeerHealth::Down`] peer.
    pub backoff_cap_micros: u64,
    /// Silence (with traffic outstanding) before a peer turns
    /// [`PeerHealth::Suspect`] and gets probed.
    pub suspect_after_micros: u64,
    /// Silence (with traffic outstanding) before a peer turns
    /// [`PeerHealth::Down`].
    pub down_after_micros: u64,
    /// Per-link bound on unacknowledged frames; sends beyond it return
    /// [`crate::NetError::PeerUnreachable`] until acks free space.
    pub max_unacked: usize,
    /// Mixed into the jitter RNG seed (together with the peer name) so
    /// simulation runs are a pure function of their seed.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            backoff_base_micros: 800,
            backoff_cap_micros: 30_000,
            suspect_after_micros: 8_000,
            down_after_micros: 30_000,
            max_unacked: 1024,
            seed: 0,
        }
    }
}

//! The session endpoint: a [`Transport`] wrapper adding reliability.

use super::frame::SessionFrame;
use super::link::{IncVerdict, Link, OutFrame, PeerHealth};
use super::{Clock, SessionConfig, WallClock};
use crate::{codec, NetError, Transport, TransportEvent, WatermarkNote};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use wdl_core::{FactKind, Message, Payload};
use wdl_datalog::Symbol;

/// Aggregate counters across every link of one endpoint.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct SessionStats {
    /// Data frames retransmitted.
    pub retransmits: u64,
    /// Duplicate data frames dropped by the dedup window.
    pub dup_drops: u64,
    /// Frames (or wrapped messages) that failed to decode.
    pub decode_errors: u64,
    /// Derived-facts payloads blanked on delivery because they were
    /// transmitted before the sender learned of this peer's restart.
    pub stale_derived_dropped: u64,
    /// Live links.
    pub links: usize,
    /// Frames currently awaiting acknowledgement, across all links.
    pub unacked: usize,
}

/// Reliable-delivery wrapper around any raw [`Transport`].
///
/// See the [module docs](crate::session) for the protocol. The wrapper is
/// transparent to unsessioned correspondents: non-session payloads drain
/// straight through, and a raw peer simply ignores session frames (the
/// stage loop counts them as rejected).
pub struct SessionEndpoint<T: Transport> {
    inner: T,
    me: Symbol,
    inc: u64,
    cfg: SessionConfig,
    clock: Box<dyn Clock>,
    links: BTreeMap<Symbol, Link>,
    rng: StdRng,
    events: Vec<TransportEvent>,
    decode_errors: u64,
    stale_derived_dropped: u64,
    /// Per-remote retransmit counts since the last
    /// [`Transport::take_retransmit_counts`] (bounded by link count).
    retrans_trace: BTreeMap<Symbol, u64>,
}

/// FNV-1a over the peer's *name string* — stable across runs, unlike
/// interned symbol ids, so simulation replays are seed-exact.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl<T: Transport> SessionEndpoint<T> {
    /// Wraps `inner` with a fresh session state under `incarnation`,
    /// using wall time for retransmission and liveness.
    pub fn new(inner: T, incarnation: u64, cfg: SessionConfig) -> SessionEndpoint<T> {
        Self::with_clock(inner, incarnation, cfg, Box::new(WallClock::new()))
    }

    /// Like [`SessionEndpoint::new`] with an injected clock (the
    /// simulator passes its virtual clock).
    pub fn with_clock(
        inner: T,
        incarnation: u64,
        cfg: SessionConfig,
        clock: Box<dyn Clock>,
    ) -> SessionEndpoint<T> {
        let me = inner.peer_name();
        let rng = StdRng::seed_from_u64(fnv1a(me.as_str()) ^ cfg.seed);
        SessionEndpoint {
            inner,
            me,
            inc: incarnation,
            cfg,
            clock,
            links: BTreeMap::new(),
            rng,
            events: Vec::new(),
            decode_errors: 0,
            stale_derived_dropped: 0,
            retrans_trace: BTreeMap::new(),
        }
    }

    /// Rebuilds sessions after a crash from the peer's durable
    /// watermarks (see [`wdl_core::Peer::session_watermarks`]).
    /// `incarnation` must exceed every incarnation this peer has used
    /// before. Each correspondent's delivered-watermark seeds the dedup
    /// floor (frames the previous life durably committed are dropped,
    /// not re-applied), and every correspondent is owed a `Hello`
    /// announcing the new incarnation on the first tick.
    pub fn recover(
        inner: T,
        incarnation: u64,
        cfg: SessionConfig,
        clock: Box<dyn Clock>,
        watermarks: &BTreeMap<(Symbol, u8), (u64, u64)>,
    ) -> SessionEndpoint<T> {
        let mut ep = Self::with_clock(inner, incarnation, cfg, clock);
        let now = ep.clock.now_micros();
        for (&(remote, dir), &(inc, seq)) in watermarks {
            if dir == 0 {
                ep.links.insert(remote, Link::recovered(now, inc, seq));
            } else {
                // Acked-by watermarks only tell us who we were talking
                // to (the new incarnation renumbers outbound anyway) —
                // still worth a Hello so they detect the restart.
                ep.links
                    .entry(remote)
                    .or_insert_with(|| Link::new(now))
                    .needs_hello = true;
            }
        }
        ep
    }

    /// This endpoint's incarnation.
    pub fn incarnation(&self) -> u64 {
        self.inc
    }

    /// The wrapped raw transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The wrapped raw transport, mutably.
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Unwraps, discarding session state.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Current liveness verdict for `remote` (`None` before any link).
    pub fn health_of(&self, remote: Symbol) -> Option<PeerHealth> {
        self.links.get(&remote).map(|l| l.health)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SessionStats {
        let mut s = SessionStats {
            decode_errors: self.decode_errors,
            stale_derived_dropped: self.stale_derived_dropped,
            links: self.links.len(),
            ..SessionStats::default()
        };
        for l in self.links.values() {
            s.retransmits += l.retransmits;
            s.dup_drops += l.dup_drops;
            s.unacked += l.unacked.len();
        }
        s
    }

    fn backoff(cfg: &SessionConfig, rng: &mut StdRng, attempts: u32) -> u64 {
        let pow = attempts.min(6);
        let base = cfg
            .backoff_base_micros
            .saturating_mul(1u64 << pow)
            .min(cfg.backoff_cap_micros);
        let jitter = rng.gen_range(750..=1250u64);
        (base.saturating_mul(jitter) / 1000)
            .min(cfg.backoff_cap_micros)
            .max(1)
    }

    /// `echo` value for frames transmitted now: the remote incarnation we
    /// have seen, shifted so 0 means "never heard from them".
    fn echo_for(link: &Link) -> u64 {
        link.remote_inc.map_or(0, |i| i + 1)
    }

    /// Sends owed recovery/announcement Hellos.
    fn announce(&mut self, now: u64) {
        let mut hellos = Vec::new();
        for (&remote, link) in self.links.iter_mut() {
            if link.needs_hello {
                link.needs_hello = false;
                link.last_tx = now;
                hellos.push(remote);
            }
        }
        if hellos.is_empty() {
            return;
        }
        let frame = SessionFrame::Hello { inc: self.inc }.encode();
        for remote in hellos {
            let _ = self.inner.send(Message::new(
                self.me,
                remote,
                Payload::Session(frame.clone()),
            ));
        }
    }

    fn deliver(
        bytes: &[u8],
        echo: u64,
        my_inc: u64,
        out: &mut Vec<Message>,
        decode_errors: &mut u64,
        stale_drops: &mut u64,
    ) {
        match codec::decode(bytes) {
            Ok(m) => {
                // A derived diff transmitted before the sender saw our
                // current incarnation was computed against contributions
                // we lost in the crash; applying it could resurrect
                // retracted derivations. The sender blanks and resyncs
                // once it learns of the restart — blank locally until
                // then. Persistent payloads are idempotent set ops over
                // durable state and apply regardless.
                let stale = echo > 0 && echo - 1 < my_inc;
                if stale
                    && matches!(
                        m.payload,
                        Payload::Facts {
                            kind: FactKind::Derived,
                            ..
                        }
                    )
                {
                    *stale_drops += 1;
                } else {
                    out.push(m);
                }
            }
            Err(_) => *decode_errors += 1,
        }
    }

    fn handle_frame(
        &mut self,
        from: Symbol,
        frame: SessionFrame,
        now: u64,
        delivered: &mut Vec<Message>,
    ) {
        let me = self.me;
        let my_inc = self.inc;
        let inc = match &frame {
            SessionFrame::Data { inc, .. }
            | SessionFrame::Ack { inc, .. }
            | SessionFrame::Hello { inc } => *inc,
        };
        let link = self.links.entry(from).or_insert_with(|| Link::new(now));
        link.last_heard = now;
        link.health = PeerHealth::Up;
        match link.note_remote_incarnation(inc) {
            IncVerdict::Stale => return,
            IncVerdict::Current => {}
            IncVerdict::FirstContact => {
                // Conservative resync: we cannot know what this
                // incarnation holds (it may have recovered from a crash
                // that ate our earlier diffs before ever answering us).
                self.events.push(TransportEvent::PeerRestarted(from));
            }
            IncVerdict::Restarted => {
                link.blank_derived(|| {
                    codec::encode(&Message::new(
                        me,
                        from,
                        Payload::Facts {
                            kind: FactKind::Derived,
                            additions: Vec::new(),
                            retractions: Vec::new(),
                        },
                    ))
                    .to_vec()
                });
                self.events.push(TransportEvent::PeerRestarted(from));
            }
        }
        let link = self.links.get_mut(&from).expect("link just touched");
        match frame {
            SessionFrame::Data {
                echo, seq, bytes, ..
            } => {
                if seq <= link.delivered_cum {
                    link.dup_drops += 1;
                    link.ack_dirty = true;
                } else if seq == link.delivered_cum + 1 {
                    link.delivered_cum = seq;
                    Self::deliver(
                        &bytes,
                        echo,
                        my_inc,
                        delivered,
                        &mut self.decode_errors,
                        &mut self.stale_derived_dropped,
                    );
                    while let Some((e, b)) = link.ooo.remove(&(link.delivered_cum + 1)) {
                        link.delivered_cum += 1;
                        Self::deliver(
                            &b,
                            e,
                            my_inc,
                            delivered,
                            &mut self.decode_errors,
                            &mut self.stale_derived_dropped,
                        );
                    }
                    link.ack_dirty = true;
                } else {
                    link.ooo.entry(seq).or_insert((echo, bytes));
                    link.ack_dirty = true;
                }
            }
            SessionFrame::Ack {
                data_inc,
                cum,
                selective,
                ..
            } => {
                // Acks for a previous incarnation of ours reference a
                // sequence space we no longer use.
                if data_inc == my_inc {
                    if cum > link.acked_cum {
                        link.acked_cum = cum;
                        let keep = link.unacked.split_off(&(cum + 1));
                        link.unacked = keep;
                    }
                    for s in selective {
                        if let Some(f) = link.unacked.get_mut(&s) {
                            f.sacked = true;
                        }
                    }
                }
            }
            SessionFrame::Hello { .. } => {
                // Probe/announcement: answer with our stored watermark.
                link.ack_dirty = true;
            }
        }
    }

    fn retransmit_pass(&mut self, now: u64) {
        let mut out: Vec<(Symbol, Vec<u8>)> = Vec::new();
        for (&remote, link) in self.links.iter_mut() {
            let echo = link.remote_inc.map_or(0, |i| i + 1);
            let mut resent = 0u64;
            for (&seq, f) in link.unacked.iter_mut() {
                if f.sacked || now < f.next_retry {
                    continue;
                }
                f.attempts += 1;
                f.next_retry = now + Self::backoff(&self.cfg, &mut self.rng, f.attempts);
                resent += 1;
                out.push((
                    remote,
                    SessionFrame::Data {
                        inc: self.inc,
                        echo,
                        seq,
                        bytes: f.bytes.clone(),
                    }
                    .encode(),
                ));
            }
            if resent > 0 {
                link.retransmits += resent;
                link.last_tx = now;
                *self.retrans_trace.entry(remote).or_insert(0) += resent;
            }
        }
        for (remote, fb) in out {
            let _ = self
                .inner
                .send(Message::new(self.me, remote, Payload::Session(fb)));
        }
    }

    fn liveness_pass(&mut self, now: u64) {
        let mut probes = Vec::new();
        for (&remote, link) in self.links.iter_mut() {
            if !link.unacked.is_empty() {
                let silent = now.saturating_sub(link.last_heard);
                if silent >= self.cfg.down_after_micros {
                    if link.health != PeerHealth::Down {
                        link.health = PeerHealth::Down;
                        self.events.push(TransportEvent::Down(remote));
                    }
                } else if silent >= self.cfg.suspect_after_micros && link.health == PeerHealth::Up {
                    link.health = PeerHealth::Suspect;
                    self.events.push(TransportEvent::Suspect(remote));
                    probes.push(remote);
                    link.last_tx = now;
                }
            }
        }
        if probes.is_empty() {
            return;
        }
        let frame = SessionFrame::Hello { inc: self.inc }.encode();
        for remote in probes {
            let _ = self.inner.send(Message::new(
                self.me,
                remote,
                Payload::Session(frame.clone()),
            ));
        }
    }

    fn flush_acks(&mut self, after_commit: bool, now: u64) {
        let mut acks = Vec::new();
        for (&remote, link) in self.links.iter_mut() {
            if !link.ack_dirty {
                continue;
            }
            // Fresh deliveries await the group commit; the ack
            // advertising them goes out from `commit_delivered` so acks
            // never outrun durability.
            if !after_commit && link.delivered_cum > link.committed_cum {
                continue;
            }
            let Some(data_inc) = link.remote_inc else {
                continue;
            };
            link.ack_dirty = false;
            link.last_tx = now;
            acks.push((
                remote,
                SessionFrame::Ack {
                    inc: self.inc,
                    data_inc,
                    cum: link.committed_cum,
                    selective: link.ooo.keys().copied().collect(),
                }
                .encode(),
            ));
        }
        for (remote, fb) in acks {
            let _ = self
                .inner
                .send(Message::new(self.me, remote, Payload::Session(fb)));
        }
    }
}

impl<T: Transport> Transport for SessionEndpoint<T> {
    fn peer_name(&self) -> Symbol {
        self.me
    }

    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        let now = self.clock.now_micros();
        let to = msg.to;
        let link = self.links.entry(to).or_insert_with(|| Link::new(now));
        if link.unacked.len() >= self.cfg.max_unacked {
            return Err(NetError::PeerUnreachable(to.to_string()));
        }
        let derived = matches!(
            msg.payload,
            Payload::Facts {
                kind: FactKind::Derived,
                ..
            }
        );
        let bytes = codec::encode(&msg).to_vec();
        let seq = link.next_seq;
        let envelope = Message::new(
            self.me,
            to,
            Payload::Session(
                SessionFrame::Data {
                    inc: self.inc,
                    echo: Self::echo_for(link),
                    seq,
                    bytes: bytes.clone(),
                }
                .encode(),
            ),
        );
        match self.inner.send(envelope) {
            // A target the transport has never heard of is the caller's
            // problem; a target we have a session with is just away —
            // queue and let retransmission find it.
            Err(NetError::UnknownPeer(p)) if link.remote_inc.is_none() => {
                return Err(NetError::UnknownPeer(p));
            }
            _ => {}
        }
        link.next_seq += 1;
        link.last_tx = now;
        let wait = Self::backoff(&self.cfg, &mut self.rng, 0);
        link.unacked.insert(
            seq,
            OutFrame {
                bytes,
                derived,
                attempts: 0,
                next_retry: now + wait,
                sacked: false,
            },
        );
        Ok(())
    }

    fn drain(&mut self) -> Vec<Message> {
        let now = self.clock.now_micros();
        self.announce(now);
        let mut delivered = Vec::new();
        for msg in self.inner.drain() {
            let from = msg.from;
            match msg.payload {
                Payload::Session(bytes) => match SessionFrame::decode(&bytes) {
                    Ok(frame) => self.handle_frame(from, frame, now, &mut delivered),
                    Err(_) => self.decode_errors += 1,
                },
                // An unsessioned correspondent: pass through untouched.
                _ => delivered.push(msg),
            }
        }
        self.retransmit_pass(now);
        self.liveness_pass(now);
        self.flush_acks(false, now);
        delivered
    }

    fn poll_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    fn pending_work(&self) -> usize {
        self.links.values().map(Link::pending_work).sum()
    }

    fn watermarks(&mut self) -> Vec<WatermarkNote> {
        let mut out = Vec::new();
        for (&remote, link) in self.links.iter_mut() {
            if link.delivered_cum > link.noted_delivered {
                link.noted_delivered = link.delivered_cum;
                out.push(WatermarkNote {
                    remote,
                    dir: 0,
                    inc: link.remote_inc.unwrap_or(0),
                    seq: link.delivered_cum,
                });
            }
            if link.acked_cum > link.noted_acked {
                link.noted_acked = link.acked_cum;
                out.push(WatermarkNote {
                    remote,
                    dir: 1,
                    inc: self.inc,
                    seq: link.acked_cum,
                });
            }
        }
        out
    }

    fn commit_delivered(&mut self) {
        let now = self.clock.now_micros();
        for link in self.links.values_mut() {
            if link.delivered_cum > link.committed_cum {
                link.committed_cum = link.delivered_cum;
                link.ack_dirty = true;
            }
        }
        self.flush_acks(true, now);
    }

    fn take_retransmit_counts(&mut self) -> Vec<(Symbol, u64)> {
        if self.retrans_trace.is_empty() {
            return Vec::new();
        }
        std::mem::take(&mut self.retrans_trace)
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{FaultPlan, InMemoryNetwork};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use wdl_core::WFact;
    use wdl_datalog::Value;

    struct TestClock(Arc<AtomicU64>);

    impl Clock for TestClock {
        fn now_micros(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn pair(
        net: &InMemoryNetwork,
        a: &str,
        b: &str,
        cfg: SessionConfig,
        clock: &Arc<AtomicU64>,
    ) -> (
        SessionEndpoint<crate::memory::MemoryEndpoint>,
        SessionEndpoint<crate::memory::MemoryEndpoint>,
    ) {
        let ea = SessionEndpoint::with_clock(
            net.endpoint(a).unwrap(),
            0,
            cfg,
            Box::new(TestClock(Arc::clone(clock))),
        );
        let eb = SessionEndpoint::with_clock(
            net.endpoint(b).unwrap(),
            0,
            cfg,
            Box::new(TestClock(Arc::clone(clock))),
        );
        (ea, eb)
    }

    fn fact_msg(from: &str, to: &str, kind: FactKind, v: i64) -> Message {
        Message::new(
            Symbol::intern(from),
            Symbol::intern(to),
            Payload::Facts {
                kind,
                additions: vec![WFact::new("r", to, vec![Value::from(v)])],
                retractions: vec![],
            },
        )
    }

    fn payload_value(m: &Message) -> i64 {
        match &m.payload {
            Payload::Facts { additions, .. } => match additions[0].tuple[0] {
                Value::Int(i) => i,
                _ => panic!("unexpected value"),
            },
            p => panic!("unexpected payload {p:?}"),
        }
    }

    #[test]
    fn lossless_in_order_exactly_once() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "sa", "sb", SessionConfig::default(), &clock);
        for i in 0..20 {
            a.send(fact_msg("sa", "sb", FactKind::Persistent, i))
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..6 {
            got.extend(b.drain());
            b.commit_delivered();
            let back = a.drain();
            assert!(back.is_empty(), "acks must not surface as app messages");
            a.commit_delivered();
            clock.fetch_add(1_000, Ordering::SeqCst);
        }
        assert_eq!(got.len(), 20);
        for (i, m) in got.iter().enumerate() {
            assert_eq!(payload_value(m), i as i64);
        }
        assert_eq!(a.pending_work(), 0, "all frames acked");
        assert_eq!(b.pending_work(), 0, "nothing buffered or unflushed");
        assert_eq!(
            a.stats().retransmits,
            0,
            "lossless link retransmits nothing"
        );
    }

    #[test]
    fn retransmission_recovers_from_drops() {
        let net = InMemoryNetwork::new();
        net.set_faults(FaultPlan {
            drop_every_nth: Some(3),
        });
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "ra", "rb", SessionConfig::default(), &clock);
        for i in 0..10 {
            a.send(fact_msg("ra", "rb", FactKind::Persistent, i))
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(b.drain());
            b.commit_delivered();
            got.extend(a.drain());
            a.commit_delivered();
            clock.fetch_add(2_000, Ordering::SeqCst);
            if got.len() == 10 && a.pending_work() == 0 && b.pending_work() == 0 {
                break;
            }
        }
        assert_eq!(got.len(), 10, "every message delivered exactly once");
        for (i, m) in got.iter().enumerate() {
            assert_eq!(payload_value(m), i as i64, "in order despite drops");
        }
        assert!(a.stats().retransmits > 0, "drops forced retransmissions");
        assert_eq!(a.pending_work(), 0);
        assert_eq!(b.pending_work(), 0);
    }

    #[test]
    fn bounded_outbox_surfaces_peer_unreachable() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let cfg = SessionConfig {
            max_unacked: 4,
            ..SessionConfig::default()
        };
        let (mut a, _b) = pair(&net, "ba", "bb", cfg, &clock);
        for i in 0..4 {
            a.send(fact_msg("ba", "bb", FactKind::Persistent, i))
                .unwrap();
        }
        assert!(matches!(
            a.send(fact_msg("ba", "bb", FactKind::Persistent, 99)),
            Err(NetError::PeerUnreachable(_))
        ));
    }

    #[test]
    fn unknown_peer_still_errors_before_first_contact() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let mut a = SessionEndpoint::with_clock(
            net.endpoint("ua").unwrap(),
            0,
            SessionConfig::default(),
            Box::new(TestClock(clock)),
        );
        assert!(matches!(
            a.send(fact_msg("ua", "ghost", FactKind::Persistent, 1)),
            Err(NetError::UnknownPeer(_))
        ));
        assert_eq!(a.pending_work(), 0, "nothing queued for an unknown target");
    }

    #[test]
    fn first_contact_triggers_conservative_resync_event() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "fa", "fb", SessionConfig::default(), &clock);
        a.send(fact_msg("fa", "fb", FactKind::Persistent, 1))
            .unwrap();
        let _ = b.drain();
        b.commit_delivered();
        assert_eq!(
            b.poll_events(),
            vec![TransportEvent::PeerRestarted(Symbol::intern("fa"))]
        );
        let _ = a.drain(); // processes b's ack — first word from b
        assert_eq!(
            a.poll_events(),
            vec![TransportEvent::PeerRestarted(Symbol::intern("fb"))]
        );
        // Known incarnations do not re-trigger.
        a.send(fact_msg("fa", "fb", FactKind::Persistent, 2))
            .unwrap();
        let _ = b.drain();
        assert!(b.poll_events().is_empty());
    }

    #[test]
    fn receiver_restart_blanks_stale_derived_and_replays_persistent() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "xa", "xb", SessionConfig::default(), &clock);

        // Establish the session both ways first.
        a.send(fact_msg("xa", "xb", FactKind::Persistent, 0))
            .unwrap();
        let est = b.drain();
        assert_eq!(est.len(), 1);
        b.commit_delivered();
        let _ = a.drain();
        let _ = a.poll_events();
        let _ = b.poll_events();

        // Queue a derived diff and a persistent fact; they reach b's
        // inbox but b "crashes" before draining them.
        a.send(fact_msg("xa", "xb", FactKind::Derived, 1)).unwrap();
        a.send(fact_msg("xa", "xb", FactKind::Persistent, 2))
            .unwrap();

        // b restarts under a higher incarnation, rebuilding its session
        // state from the durable delivered-watermark (seq 1 committed
        // under a's incarnation 0). The surviving inbox plays the role
        // of frames still in flight across the restart.
        let mut wm = BTreeMap::new();
        wm.insert((Symbol::intern("xa"), 0u8), (0u64, 1u64));
        let mut b = SessionEndpoint::recover(
            b.into_inner(),
            1,
            SessionConfig::default(),
            Box::new(TestClock(Arc::clone(&clock))),
            &wm,
        );

        // b's first tick announces the new incarnation, dedups nothing
        // (seqs 2 and 3 are above the durable floor), but blanks the
        // derived diff locally: its echo says a had only seen b's dead
        // incarnation when the frame was sent.
        let delivered = b.drain();
        b.commit_delivered();
        assert_eq!(delivered.len(), 1, "derived blanked, persistent kept");
        assert_eq!(payload_value(&delivered[0]), 2);
        assert_eq!(b.stats().stale_derived_dropped, 1);

        // a hears the Hello (restart detected → resync event, queued
        // derived blanked) and the post-commit ack (everything acked).
        let _ = a.drain();
        a.commit_delivered();
        assert!(
            a.poll_events()
                .contains(&TransportEvent::PeerRestarted(Symbol::intern("xb"))),
            "a saw b's restart"
        );
        assert_eq!(a.pending_work(), 0, "acks under the new incarnation land");
        // And nothing was ever delivered twice: the committed seq 1
        // stayed deduplicated.
        assert_eq!(b.stats().dup_drops, 0);
    }

    #[test]
    fn liveness_degrades_to_suspect_then_down_and_recovers() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "la", "lb", SessionConfig::default(), &clock);
        a.send(fact_msg("la", "lb", FactKind::Persistent, 1))
            .unwrap();
        // b never drains; advance past the suspicion window.
        clock.fetch_add(10_000, Ordering::SeqCst);
        let _ = a.drain();
        assert_eq!(a.health_of(Symbol::intern("lb")), Some(PeerHealth::Suspect));
        assert!(a
            .poll_events()
            .contains(&TransportEvent::Suspect(Symbol::intern("lb"))));
        // Past the down threshold.
        clock.fetch_add(25_000, Ordering::SeqCst);
        let _ = a.drain();
        assert_eq!(a.health_of(Symbol::intern("lb")), Some(PeerHealth::Down));
        assert!(a
            .poll_events()
            .contains(&TransportEvent::Down(Symbol::intern("lb"))));
        // b finally answers: back to Up, frame delivered exactly once.
        let got = b.drain();
        assert_eq!(got.len(), 1);
        b.commit_delivered();
        let _ = a.drain();
        assert_eq!(a.health_of(Symbol::intern("lb")), Some(PeerHealth::Up));
        assert_eq!(a.pending_work(), 0);
    }

    #[test]
    fn watermarks_surface_delivery_and_ack_progress() {
        let net = InMemoryNetwork::new();
        let clock = Arc::new(AtomicU64::new(0));
        let (mut a, mut b) = pair(&net, "wa", "wb", SessionConfig::default(), &clock);
        for i in 0..3 {
            a.send(fact_msg("wa", "wb", FactKind::Persistent, i))
                .unwrap();
        }
        let got = b.drain();
        assert_eq!(got.len(), 3);
        let notes = b.watermarks();
        assert!(
            notes.contains(&WatermarkNote {
                remote: Symbol::intern("wa"),
                dir: 0,
                inc: 0,
                seq: 3
            }),
            "delivered watermark noted before commit: {notes:?}"
        );
        b.commit_delivered();
        let _ = a.drain();
        let notes = a.watermarks();
        assert!(
            notes.contains(&WatermarkNote {
                remote: Symbol::intern("wb"),
                dir: 1,
                inc: 0,
                seq: 3
            }),
            "acked watermark noted on the sender: {notes:?}"
        );
        // No progress → no new notes.
        assert!(b.watermarks().is_empty());
        assert!(a.watermarks().is_empty());
    }
}

//! Seeded chaos proxy for framed TCP connections.
//!
//! Sits between two [`crate::tcp::TcpEndpoint`]s on loopback and
//! misbehaves on purpose: it understands the `u32`-LE length-prefixed
//! frame format, so it can drop whole frames, delay them, **sever**
//! connections between frames, or **split** a frame — forward half the
//! bytes, then cut the wire mid-frame. Every decision comes from a
//! `StdRng` seeded per connection from [`ChaosConfig::seed`], so a failing
//! run replays from its printed seed.
//!
//! This is the real-socket counterpart of [`crate::sim`]'s fault plans:
//! the simulator proves the session protocol converges under an abstract
//! lossy network; the proxy proves the same stack survives actual kernel
//! sockets dying underneath it — torn frames, half-open connections, and
//! redials included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault probabilities and the seed they draw from. All probabilities are
/// per *frame*; `0.0` everywhere makes the proxy a transparent relay.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Root seed; each accepted connection derives its own `StdRng` from
    /// this and the connection ordinal.
    pub seed: u64,
    /// Probability a frame is silently discarded.
    pub drop_prob: f64,
    /// Probability a frame is held for a random delay before forwarding.
    pub delay_prob: f64,
    /// Upper bound (milliseconds, inclusive) for a delayed frame.
    pub max_delay_ms: u64,
    /// Probability the connection is cut cleanly *between* frames.
    pub sever_prob: f64,
    /// Probability a frame is torn: the length prefix and roughly half the
    /// body are forwarded, then the connection is cut mid-frame.
    pub split_prob: f64,
}

impl ChaosConfig {
    /// A transparent relay (no faults) for the given seed.
    pub fn lossless(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: 0.0,
            delay_prob: 0.0,
            max_delay_ms: 0,
            sever_prob: 0.0,
            split_prob: 0.0,
        }
    }

    /// A moderately hostile mix of every fault kind — the default profile
    /// used by the chaos conformance tests.
    pub fn hostile(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_prob: 0.10,
            delay_prob: 0.20,
            max_delay_ms: 15,
            sever_prob: 0.03,
            split_prob: 0.03,
        }
    }
}

/// Monotone fault counters, shared across every proxied connection.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Frames relayed intact.
    pub forwarded: AtomicU64,
    /// Frames silently discarded.
    pub dropped: AtomicU64,
    /// Frames held before forwarding.
    pub delayed: AtomicU64,
    /// Connections cut cleanly between frames.
    pub severed: AtomicU64,
    /// Frames torn mid-body (connection cut inside a frame).
    pub split: AtomicU64,
}

/// A loopback TCP proxy that forwards frames to a fixed upstream address,
/// injecting seeded faults. Point a sender's directory entry at
/// [`ChaosProxy::local_addr`] instead of the real peer.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback listener relaying to `target`.
    pub fn spawn(target: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ChaosStats::default());
        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        std::thread::Builder::new()
            .name("wdl-chaos-accept".into())
            .spawn(move || accept_loop(listener, target, config, accept_stop, accept_stats))?;
        Ok(ChaosProxy {
            local_addr,
            stop,
            stats,
        })
    }

    /// The proxy's listening address (register this as the peer address).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Fault counters accumulated so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting and tears down pump threads. Called on drop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    target: SocketAddr,
    config: ChaosConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
) {
    let mut ordinal: u64 = 0;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((downstream, _)) => {
                ordinal += 1;
                // Distinct, reproducible stream per connection: severed
                // links redial and get the *next* ordinal, so a replayed
                // run makes the same decisions in the same order.
                let conn_seed = config.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let cfg = config.clone();
                let stop = Arc::clone(&stop);
                let stats = Arc::clone(&stats);
                let _ = std::thread::Builder::new()
                    .name("wdl-chaos-pump".into())
                    .spawn(move || pump(downstream, target, cfg, conn_seed, stop, stats));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// Relays frames from one downstream connection to a fresh upstream
/// connection, rolling each fault per frame. Returning drops both sockets,
/// which is exactly how the faults that cut the wire are realized.
fn pump(
    mut downstream: TcpStream,
    target: SocketAddr,
    config: ChaosConfig,
    conn_seed: u64,
    stop: Arc<AtomicBool>,
    stats: Arc<ChaosStats>,
) {
    let mut rng = StdRng::seed_from_u64(conn_seed);
    let Some(mut upstream) = connect_upstream(target, &stop) else {
        return;
    };
    if downstream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut len_buf = [0u8; 4];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match downstream.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return, // sender closed or redialed
        }
        let len = u32::from_le_bytes(len_buf);
        // The proxy buffers no frame larger than the transport accepts.
        if len > crate::tcp::MAX_FRAME {
            return;
        }
        let mut frame = vec![0u8; len as usize];
        if read_body(&mut downstream, &mut frame, &stop).is_err() {
            return;
        }

        if config.drop_prob > 0.0 && rng.gen_bool(config.drop_prob) {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if config.sever_prob > 0.0 && rng.gen_bool(config.sever_prob) {
            stats.severed.fetch_add(1, Ordering::Relaxed);
            return; // clean cut between frames: this frame and the conn die
        }
        if config.split_prob > 0.0 && rng.gen_bool(config.split_prob) && !frame.is_empty() {
            // Tear the frame: length prefix plus half the body, then cut.
            // The receiver sees EOF mid-frame and discards the connection.
            stats.split.fetch_add(1, Ordering::Relaxed);
            let half = frame.len() / 2;
            let _ = upstream.write_all(&len_buf);
            let _ = upstream.write_all(&frame[..half]);
            let _ = upstream.flush();
            return;
        }
        if config.delay_prob > 0.0 && rng.gen_bool(config.delay_prob) {
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            let ms = rng.gen_range(1..=config.max_delay_ms.max(1));
            std::thread::sleep(Duration::from_millis(ms));
        }
        if upstream.write_all(&len_buf).is_err() || upstream.write_all(&frame).is_err() {
            return; // receiver gone; sender will redial through us
        }
        stats.forwarded.fetch_add(1, Ordering::Relaxed);
    }
}

/// Dials the upstream with brief retries — the receiver may be mid-restart
/// when a redialed connection lands on the proxy.
fn connect_upstream(target: SocketAddr, stop: &AtomicBool) -> Option<TcpStream> {
    for _ in 0..100 {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match TcpStream::connect(target) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return Some(s);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    None
}

fn read_body(stream: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> std::io::Result<()> {
    let mut read = 0;
    while read < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "shutdown",
            ));
        }
        match stream.read(&mut buf[read..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "torn frame from downstream",
                ))
            }
            Ok(n) => read += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpEndpoint;
    use crate::Transport;
    use wdl_core::{FactKind, Message, Payload, WFact};
    use wdl_datalog::{Symbol, Value};

    fn fact_msg(from: &str, to: &str, v: i64) -> Message {
        Message::new(
            Symbol::intern(from),
            Symbol::intern(to),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new("r", to, vec![Value::from(v)])],
                retractions: vec![],
            },
        )
    }

    fn drain_until(ep: &mut TcpEndpoint, want: usize, ms: u64) -> Vec<Message> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_millis(ms);
        while got.len() < want && std::time::Instant::now() < deadline {
            got.extend(ep.drain());
            std::thread::sleep(Duration::from_millis(2));
        }
        got
    }

    #[test]
    fn lossless_proxy_is_transparent() {
        let mut a = TcpEndpoint::bind("ca", "127.0.0.1:0").unwrap();
        let mut b = TcpEndpoint::bind("cb", "127.0.0.1:0").unwrap();
        let proxy = ChaosProxy::spawn(b.local_addr(), ChaosConfig::lossless(7)).unwrap();
        a.register("cb", proxy.local_addr());
        for v in 0..5 {
            a.send(fact_msg("ca", "cb", v)).unwrap();
        }
        let got = drain_until(&mut b, 5, 3000);
        assert_eq!(got.len(), 5);
        assert_eq!(proxy.stats().forwarded.load(Ordering::Relaxed), 5);
        assert_eq!(proxy.stats().dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dropping_proxy_loses_frames_but_not_the_link() {
        let mut a = TcpEndpoint::bind("da", "127.0.0.1:0").unwrap();
        let mut b = TcpEndpoint::bind("db", "127.0.0.1:0").unwrap();
        let config = ChaosConfig {
            drop_prob: 0.5,
            ..ChaosConfig::lossless(42)
        };
        let proxy = ChaosProxy::spawn(b.local_addr(), config).unwrap();
        a.register("db", proxy.local_addr());
        for v in 0..40 {
            a.send(fact_msg("da", "db", v)).unwrap();
        }
        // Half the frames vanish (seeded), the rest arrive in order.
        let got = drain_until(&mut b, 1, 3000);
        assert!(!got.is_empty());
        let stats = proxy.stats();
        assert!(stats.dropped.load(Ordering::Relaxed) > 0);
        assert_eq!(
            stats.forwarded.load(Ordering::Relaxed) + stats.dropped.load(Ordering::Relaxed),
            40
        );
    }

    #[test]
    fn severed_connection_recovers_on_redial() {
        let mut a = TcpEndpoint::bind("sa", "127.0.0.1:0").unwrap();
        let mut b = TcpEndpoint::bind("sb", "127.0.0.1:0").unwrap();
        let config = ChaosConfig {
            sever_prob: 1.0, // every frame severs the connection
            ..ChaosConfig::lossless(3)
        };
        let proxy = ChaosProxy::spawn(b.local_addr(), config).unwrap();
        a.register("sb", proxy.local_addr());
        // Each send loses its frame and kills the conn; the endpoint's
        // staleness probe redials through the proxy every time, so sends
        // keep succeeding even though nothing gets through.
        for round in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            a.send(fact_msg("sa", "sb", round)).unwrap();
        }
        // Every round severed a fresh proxied connection, yet every send
        // succeeded — the endpoint kept redialing through the proxy.
        assert!(proxy.stats().severed.load(Ordering::Relaxed) >= 2);
        let _ = b.drain();
    }
}

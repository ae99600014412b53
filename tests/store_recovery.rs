//! Crash-recovery property suite for the durable storage engine.
//!
//! The central property: **a peer that crashes and recovers is
//! indistinguishable from one that never crashed**, given the same
//! client behavior (a client whose op was not yet acked retries it).
//! Each seed derives a random interleaving of inserts, deletes, group
//! commits, forced checkpoints, structural changes (declarations, rule
//! edits, policy edits, delegations installed, queued, approved and
//! revoked) and crashes; after the schedule the recovered subject must
//! equal an oracle peer that executed the same ops in memory — rows,
//! views, rules, delegations, schema and policy.
//!
//! On failure the harness prints the seed and the reproduction command:
//!
//! ```text
//! WDL_STORE_SEED=1234 cargo test --test store_recovery <test-name>
//! ```
//!
//! `WDL_STORE_SEEDS=lo..hi` overrides a sweep's whole range (used by the
//! CI `store-recovery` job).

use std::fs;
use std::ops::Range;
use std::path::PathBuf;
use webdamlog::core::{Delegation, Message, Payload, Peer, RelationKind, WAtom, WBodyItem, WRule};
use webdamlog::datalog::{Symbol, Term, Value};
use webdamlog::net::sim::SimOp;
use webdamlog::store::{DurabilityConfig, DurablePersistence, Engine, IoFaults};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdl_net::sim::CrashPersistence;

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn seed_range(default: Range<u64>) -> Range<u64> {
    if let Ok(v) = std::env::var("WDL_STORE_SEED") {
        if let Ok(n) = v.trim().parse::<u64>() {
            return n..n + 1;
        }
    }
    if let Ok(v) = std::env::var("WDL_STORE_SEEDS") {
        if let Some((lo, hi)) = v.trim().split_once("..") {
            if let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) {
                return lo..hi;
            }
        }
    }
    default
}

fn tmp_root(tag: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wdl-recovery-{tag}-{seed}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `body(seed)` over the sweep range, labeling any panic with the
/// seed and the single-command reproduction line.
fn sweep(test: &str, seeds: Range<u64>, body: impl Fn(u64)) {
    for seed in seed_range(seeds) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(seed)));
        if let Err(p) = outcome {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!(
                "\n[store-recovery] {test} seed {seed}: {msg}\n\
                 reproduce: WDL_STORE_SEED={seed} cargo test --test store_recovery {test}\n"
            );
        }
    }
}

/// The committed log of a peer's storage directory: its one
/// `wal-<epoch>.log` file.
fn log_path(dir: &std::path::Path) -> PathBuf {
    let logs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_str().unwrap();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    assert_eq!(logs.len(), 1, "one committed log in {}", dir.display());
    logs[0].clone()
}

const RELS: [&str; 3] = ["album", "pictures", "tags"];
/// Intensional views the random rules and delegations derive into.
const VIEWS: [&str; 2] = ["v0", "v1"];
/// Extensional relations a schedule may declare along the way.
const EXTRAS: [&str; 3] = ["extra0", "extra1", "extra2"];

fn build_peer(name: &str) -> Peer {
    let mut p = Peer::new(name);
    for rel in RELS {
        p.declare(rel, 2, RelationKind::Extensional).unwrap();
    }
    for rel in VIEWS {
        p.declare(rel, 2, RelationKind::Intensional).unwrap();
    }
    p
}

/// One change to a peer's structure, drawn against the oracle's state
/// and applied alike to subject and oracle.
#[derive(Clone, Debug)]
enum Structural {
    Declare(Symbol),
    AddRule(WRule),
    ReplaceRule(usize, WRule),
    RemoveRule(usize),
    Trust(Symbol),
    RestrictRead(Symbol, Symbol),
    Install(Delegation),
    Queue(Delegation, u64),
    Approve(usize),
    Revoke(Delegation),
}

/// `head(x, y) :- body(x, y)` over `me`'s relations, optionally
/// guarded by a negated third relation.
fn random_rule(rng: &mut StdRng, me: &str, head_peer: &str) -> WRule {
    let xy = || vec![Term::var("x"), Term::var("y")];
    let body = RELS[rng.gen_range(0..RELS.len())];
    let head = VIEWS[rng.gen_range(0..VIEWS.len())];
    let mut items: Vec<WBodyItem> = vec![WAtom::at(body, me, xy()).into()];
    if rng.gen_range(0..2u32) == 1 {
        let guard = RELS[rng.gen_range(0..RELS.len())];
        items.push(WBodyItem::not_atom(WAtom::at(guard, me, xy())));
    }
    WRule::new(WAtom::at(head, head_peer, xy()), items)
}

fn random_structural(rng: &mut StdRng, oracle: &Peer) -> Structural {
    let me = oracle.name();
    let origin = ["recorigin", "recstranger"][rng.gen_range(0..2usize)];
    let delegation = |rng: &mut StdRng| {
        // A local head feeds the target's own views; a remote one ships
        // back to the origin.
        let head_peer = if rng.gen_range(0..2u32) == 0 {
            me.as_str()
        } else {
            origin
        };
        Delegation::new(
            Symbol::intern(origin),
            me,
            random_rule(rng, me.as_str(), head_peer),
        )
    };
    let rules = oracle.rules().len();
    let pending = oracle.pending_delegations().len();
    let revocable: Vec<Delegation> = oracle
        .installed_delegations()
        .iter()
        .cloned()
        .chain(
            oracle
                .pending_delegations()
                .iter()
                .map(|p| p.delegation.clone()),
        )
        .collect();
    match rng.gen_range(0..10u32) {
        0 => {
            let rel = EXTRAS[rng.gen_range(0..EXTRAS.len())];
            Structural::Declare(Symbol::intern(rel))
        }
        1 if rules > 0 => Structural::ReplaceRule(
            rng.gen_range(0..rules),
            random_rule(rng, me.as_str(), me.as_str()),
        ),
        2 if rules > 0 => Structural::RemoveRule(rng.gen_range(0..rules)),
        3 => Structural::Trust(Symbol::intern(origin)),
        4 => Structural::RestrictRead(
            Symbol::intern(RELS[rng.gen_range(0..RELS.len())]),
            Symbol::intern(origin),
        ),
        5 => Structural::Install(delegation(rng)),
        6 => Structural::Queue(delegation(rng), rng.gen_range(0..100)),
        7 if pending > 0 => Structural::Approve(rng.gen_range(0..pending)),
        8 if !revocable.is_empty() => {
            Structural::Revoke(revocable[rng.gen_range(0..revocable.len())].clone())
        }
        _ => Structural::AddRule(random_rule(rng, me.as_str(), me.as_str())),
    }
}

fn apply_structural(p: &mut Peer, op: &Structural) {
    match op {
        Structural::Declare(rel) => p.declare(*rel, 2, RelationKind::Extensional).unwrap(),
        Structural::AddRule(rule) => {
            p.add_rule(rule.clone()).unwrap();
        }
        Structural::ReplaceRule(i, rule) => {
            let id = p.rules()[*i].id;
            p.replace_rule(id, rule.clone()).unwrap();
        }
        Structural::RemoveRule(i) => {
            let id = p.rules()[*i].id;
            p.remove_rule(id).unwrap();
        }
        Structural::Trust(peer) => p.acl_mut().trust(*peer),
        Structural::RestrictRead(rel, peer) => {
            p.acl_mut().restrict_read(*rel);
            p.acl_mut().grant_read(*rel, *peer);
        }
        Structural::Install(d) => p.install_delegation(d.clone()).unwrap(),
        Structural::Queue(d, stage) => {
            p.acl_mut().push_pending(d.clone(), *stage);
        }
        Structural::Approve(i) => {
            let id = p.pending_delegations()[*i].delegation.id;
            p.approve_delegation(id).unwrap();
        }
        // Through the stage, as a revocation arrives from its origin.
        Structural::Revoke(d) => {
            p.enqueue(Message::new(
                d.origin,
                p.name(),
                Payload::Revoke(vec![d.id]),
            ));
        }
    }
}

fn random_tuple(rng: &mut StdRng) -> Vec<Value> {
    vec![
        Value::from(rng.gen_range(0..12i64)),
        match rng.gen_range(0..3u32) {
            0 => Value::from(rng.gen_range(0..6i64)),
            1 => Value::from(["x", "y", "z"][rng.gen_range(0..3usize)]),
            _ => Value::bytes(&[rng.gen_range(0..4u8)]),
        },
    ]
}

fn apply_op(p: &mut Peer, op: &SimOp) {
    match op {
        SimOp::Insert { rel, tuple } => {
            p.insert_local(*rel, tuple.clone()).unwrap();
        }
        SimOp::Delete { rel, tuple } => {
            p.delete_local(*rel, tuple.clone()).unwrap();
        }
    }
}

fn assert_same_state(subject: &Peer, oracle: &Peer, context: &str) {
    for rel in RELS.iter().chain(&VIEWS).chain(&EXTRAS) {
        let mut a = subject.relation_facts(*rel);
        let mut b = oracle.relation_facts(*rel);
        a.sort();
        b.sort();
        assert_eq!(a, b, "{context}: relation {rel} diverged");
    }
}

/// Everything a Meta record carries but the rows: schema, rules,
/// delegations and the policy with its approval queue.
fn assert_same_structure(subject: &Peer, oracle: &Peer, context: &str) {
    let decls = |p: &Peer| {
        let mut d: Vec<_> = p
            .schema()
            .iter()
            .map(|d| (d.rel.to_string(), d.arity, d.kind))
            .collect();
        d.sort_by(|a, b| a.0.cmp(&b.0));
        d
    };
    let rules = |p: &Peer| p.rules().iter().map(|e| e.rule.clone()).collect::<Vec<_>>();
    assert_eq!(decls(subject), decls(oracle), "{context}: schema diverged");
    assert_eq!(rules(subject), rules(oracle), "{context}: rules diverged");
    assert_eq!(
        subject.installed_delegations(),
        oracle.installed_delegations(),
        "{context}: delegations diverged"
    );
    assert_eq!(subject.acl(), oracle.acl(), "{context}: policy diverged");
}

// ---------------------------------------------------------------------
// Property 1: random schedules — recovered ≡ never-crashed.
// ---------------------------------------------------------------------

#[test]
fn random_crash_schedules_recover_exactly() {
    sweep("random_crash_schedules_recover_exactly", 0..100, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let root = tmp_root("sched", seed);
        let name = format!("recp{seed}");
        let sym = Symbol::intern(&name);
        let cfg = DurabilityConfig::new(&root)
            .checkpoint_records(rng.gen_range(2..24))
            .checkpoint_bytes(rng.gen_range(256..4096));
        let mut persist = DurablePersistence::new(cfg);

        let mut subject = build_peer(&name);
        persist.store_mut().attach(&mut subject).unwrap();
        let mut oracle = build_peer(&name);

        let steps = rng.gen_range(30..90);
        let mut crashes = 0;
        let mut rels: Vec<&str> = RELS.to_vec();
        for _ in 0..steps {
            match rng.gen_range(0..100u32) {
                // Mutation, mirrored on both peers.
                0..=49 => {
                    let rel = Symbol::intern(rels[rng.gen_range(0..rels.len())]);
                    let tuple = random_tuple(&mut rng);
                    let op = if rng.gen_range(0..10u32) < 7 {
                        SimOp::Insert { rel, tuple }
                    } else {
                        SimOp::Delete { rel, tuple }
                    };
                    apply_op(&mut subject, &op);
                    apply_op(&mut oracle, &op);
                }
                // Stage boundary = group commit.
                50..=69 => {
                    subject.run_stage().unwrap();
                    oracle.run_stage().unwrap();
                }
                // Structural change, committed by a stage before the next
                // crash point (the lost-op retry replays rows only).
                70..=81 => {
                    let op = random_structural(&mut rng, &oracle);
                    if let Structural::Declare(rel) = op {
                        if rels.contains(&rel.as_str()) {
                            continue;
                        }
                        rels.push(rel.as_str());
                    }
                    apply_structural(&mut subject, &op);
                    apply_structural(&mut oracle, &op);
                    subject.run_stage().unwrap();
                    oracle.run_stage().unwrap();
                }
                // Forced full checkpoint.
                82..=88 => {
                    let engine = persist.store_mut().engine(sym).unwrap();
                    let mut engine = engine.lock();
                    engine.checkpoint(&subject).unwrap();
                }
                // Crash + recover + client retry of lost ops.
                _ => {
                    crashes += 1;
                    let crash_seed = rng.gen();
                    let (token, lost) = persist.crash(subject, crash_seed).unwrap();
                    subject = persist.restart(sym, &token).unwrap();
                    for op in &lost {
                        apply_op(&mut subject, op);
                    }
                }
            }
        }
        // Final crash so every seed exercises at least one recovery.
        let crash_seed = rng.gen();
        let (token, lost) = persist.crash(subject, crash_seed).unwrap();
        subject = persist.restart(sym, &token).unwrap();
        for op in &lost {
            apply_op(&mut subject, op);
        }
        subject.run_stage().unwrap();
        oracle.run_stage().unwrap();

        let context = format!("after {steps} steps, {} crashes", crashes + 1);
        assert_same_state(&subject, &oracle, &context);
        assert_same_structure(&subject, &oracle, &context);
        let _ = fs::remove_dir_all(&root);
    });
}

// ---------------------------------------------------------------------
// Property 2: killing the engine after any number of file operations
// (mid-checkpoint, mid-append, mid-rename) leaves a recoverable store
// that equals one of the two legal states: before or after the dying
// commit.
// ---------------------------------------------------------------------

#[test]
fn fault_budget_sweep_recovers_before_or_after() {
    sweep(
        "fault_budget_sweep_recovers_before_or_after",
        0..40,
        |budget| {
            let root = tmp_root("budget", budget);
            let name = format!("budp{budget}");
            let sym = Symbol::intern(&name);
            let cfg = DurabilityConfig::new(&root).checkpoint_records(4);
            let mut persist = DurablePersistence::new(cfg);

            let mut subject = build_peer(&name);
            persist.store_mut().attach(&mut subject).unwrap();
            subject
                .insert_local("album", vec![Value::from(1), Value::from(1)])
                .unwrap();
            subject.run_stage().unwrap(); // acked baseline

            // Arm the fault budget, then attempt a burst of work whose file
            // operations will die at operation #budget.
            {
                let engine = persist.store_mut().engine(sym).unwrap();
                engine.lock().set_faults(IoFaults::fail_after(budget));
            }
            let mut attempted = Vec::new();
            let mut failed = false;
            'burst: for round in 0..6i64 {
                for k in 0..3i64 {
                    let t = vec![Value::from(round), Value::from(k)];
                    subject.insert_local("pictures", t.clone()).unwrap();
                    attempted.push(t);
                }
                if subject.run_stage().is_err() {
                    failed = true;
                    break 'burst;
                }
            }

            // Crash (disarms nothing — recovery opens fresh handles) and
            // recover on a clean engine.
            let crash_seed = budget.wrapping_mul(0x9E37);
            let (token, _lost) = persist.crash(subject, crash_seed).unwrap();
            {
                let engine = persist.store_mut().engine(sym).unwrap();
                engine.lock().set_faults(IoFaults::none());
            }
            let recovered = persist.restart(sym, &token).unwrap();

            // The acked baseline always survives.
            assert_eq!(
                recovered.relation_facts("album").len(),
                1,
                "acked baseline lost (budget {budget}, failed={failed})"
            );
            // Whatever subset of the burst recovered must be a prefix-closed
            // subset of what was attempted — never an invented fact.
            let got = recovered.relation_facts("pictures");
            for t in &got {
                assert!(
                    attempted.iter().any(|a| a[..] == t[..]),
                    "recovered invented fact {t:?} (budget {budget})"
                );
            }
            let _ = fs::remove_dir_all(&root);
        },
    );
}

// ---------------------------------------------------------------------
// Property 3: truncating the log at every byte offset of the last
// (unacked) commit never panics and never resurrects an
// acked-then-deleted fact; a cut inside the checkpoint's snapshot is
// clean corruption.
// ---------------------------------------------------------------------

#[test]
fn wal_truncation_never_resurrects_deleted_facts() {
    let root = tmp_root("trunc", 0);
    let name = "truncp";
    let sym = Symbol::intern(name);
    // Thresholds high enough that nothing below checkpoints on its own.
    let cfg = DurabilityConfig::new(&root)
        .checkpoint_records(10_000)
        .checkpoint_bytes(u64::MAX);
    let mut persist = DurablePersistence::new(cfg.clone());

    let mut p = build_peer(name);
    p.insert_local("pictures", vec![Value::from(1), Value::from(1)])
        .unwrap();
    persist.store_mut().attach(&mut p).unwrap(); // checkpoint holds the fact

    let engine = persist.store_mut().engine(sym).unwrap();
    let wal_path = log_path(engine.lock().dir());
    let snapshot_end = fs::metadata(&wal_path).unwrap().len() as usize;

    // Acked delete of the checkpointed fact…
    p.delete_local("pictures", vec![Value::from(1), Value::from(1)])
        .unwrap();
    p.sync_durability().unwrap();
    let acked_len = fs::metadata(&wal_path).unwrap().len() as usize;

    // …followed by one more record whose append the crash may tear.
    p.insert_local("album", vec![Value::from(2), Value::from(2)])
        .unwrap();
    p.sync_durability().unwrap();
    let full = fs::read(&wal_path).unwrap();
    assert!(full.len() > acked_len, "second record landed");
    drop(p);

    for cut in 0..snapshot_end {
        fs::write(&wal_path, &full[..cut]).unwrap();
        let err = Engine::open(&cfg, sym)
            .unwrap()
            .recover()
            .expect_err("recovered from a cut snapshot");
        assert!(err.is_corrupt(), "cut {cut} in the snapshot: {err}");
    }
    for cut in acked_len..=full.len() {
        fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered = persist
            .restart(sym, &bytes::Bytes::from(name.as_bytes().to_vec()))
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        assert!(
            recovered.relation_facts("pictures").is_empty(),
            "cut {cut}: acked delete was undone — fact resurrected"
        );
        let album = recovered.relation_facts("album").len();
        assert!(album <= 1, "cut {cut}: invented facts");
        // Recovery checkpoints; restore the scenario for the next cut.
        let _ = fs::remove_dir_all(&root);
        let mut q = build_peer(name);
        q.insert_local("pictures", vec![Value::from(1), Value::from(1)])
            .unwrap();
        persist = DurablePersistence::new(
            DurabilityConfig::new(&root)
                .checkpoint_records(10_000)
                .checkpoint_bytes(u64::MAX),
        );
        persist.store_mut().attach(&mut q).unwrap();
        q.delete_local("pictures", vec![Value::from(1), Value::from(1)])
            .unwrap();
        q.sync_durability().unwrap();
        q.insert_local("album", vec![Value::from(2), Value::from(2)])
            .unwrap();
        q.sync_durability().unwrap();
        drop(q);
    }
    let _ = fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Goldens: a structural change is a WAL record.
// ---------------------------------------------------------------------

fn view_rule(me: &str) -> WRule {
    let xy = || vec![Term::var("x"), Term::var("y")];
    WRule::new(
        WAtom::at("v0", me, xy()),
        vec![WAtom::at("album", me, xy()).into()],
    )
}

fn row(a: i64, b: i64) -> Vec<Value> {
    vec![Value::from(a), Value::from(b)]
}

/// A crash after a structural change's commit and before the next fact
/// commit recovers both the change and the rows: those acked before it,
/// and the one its own commit wrote into the relation it declared. The
/// uncommitted row comes back as a lost op, whatever the crash leaves on
/// disk.
#[test]
fn crash_after_structural_commit_recovers_both() {
    for crash_seed in 0..8u64 {
        let root = tmp_root("structural", crash_seed);
        let name = "structp";
        let mut persist = DurablePersistence::new(DurabilityConfig::new(&root));
        let mut p = build_peer(name);
        persist.store_mut().attach(&mut p).unwrap();
        p.insert_local("album", row(1, 1)).unwrap();
        p.run_stage().unwrap();

        p.declare("extra0", 2, RelationKind::Extensional).unwrap();
        p.insert_local("extra0", row(2, 2)).unwrap();
        p.add_rule(view_rule(name)).unwrap();
        p.run_stage().unwrap();
        p.insert_local("album", row(3, 3)).unwrap();

        let (token, lost) = persist.crash(p, crash_seed).unwrap();
        assert_eq!(lost.len(), 1, "seed {crash_seed}: the uncommitted row");
        let mut q = persist.restart(Symbol::intern(name), &token).unwrap();
        let rules: Vec<WRule> = q.rules().iter().map(|e| e.rule.clone()).collect();
        assert_eq!(rules, vec![view_rule(name)], "seed {crash_seed}");
        assert_eq!(q.relation_facts("extra0").len(), 1, "seed {crash_seed}");
        assert_eq!(q.relation_facts("album").len(), 1, "seed {crash_seed}");
        for op in &lost {
            apply_op(&mut q, op);
        }
        q.run_stage().unwrap();
        assert_eq!(q.relation_facts("v0").len(), 2, "seed {crash_seed}");
        let _ = fs::remove_dir_all(&root);
    }
}

/// A commit is atomic on disk: a cut anywhere in the last commit — a Meta
/// entry for a new rule, then a row — recovers the state acked before
/// it, with neither the commit's rule nor its row.
#[test]
fn torn_meta_record_ends_at_the_previous_acked_state() {
    let root = tmp_root("tornmeta", 0);
    let name = "tornmetap";
    let sym = Symbol::intern(name);
    let cfg = DurabilityConfig::new(&root)
        .checkpoint_records(10_000)
        .checkpoint_bytes(u64::MAX);
    let mut persist = DurablePersistence::new(cfg.clone());
    let mut p = build_peer(name);
    p.insert_local("album", row(1, 1)).unwrap();
    persist.store_mut().attach(&mut p).unwrap();
    p.insert_local("album", row(2, 2)).unwrap();
    p.sync_durability().unwrap();

    let engine = persist.store_mut().engine(sym).unwrap();
    let wal_path = log_path(engine.lock().dir());
    let acked_len = fs::metadata(&wal_path).unwrap().len() as usize;
    p.add_rule(view_rule(name)).unwrap();
    p.insert_local("pictures", row(3, 3)).unwrap();
    p.sync_durability().unwrap();
    let full = fs::read(&wal_path).unwrap();
    drop(p);

    let recover = |bytes: &[u8]| {
        fs::write(&wal_path, bytes).unwrap();
        Engine::open(&cfg, sym).unwrap().recover().unwrap()
    };
    for cut in acked_len..full.len() {
        let q = recover(&full[..cut]);
        assert!(q.rules().is_empty(), "cut {cut}: torn rule replayed");
        assert_eq!(
            q.relation_facts("album").len(),
            2,
            "cut {cut}: acked rows lost"
        );
        assert!(
            q.relation_facts("pictures").is_empty(),
            "cut {cut}: torn row replayed"
        );
    }
    let q = recover(&full);
    assert_eq!(q.rules().len(), 1);
    assert_eq!(q.relation_facts("pictures").len(), 1);
    let _ = fs::remove_dir_all(&root);
}

/// A commit carries a session watermark and the facts its frames
/// delivered, noted in that order as a node steps. A cut anywhere in it
/// recovers neither: a recovered watermark without its facts would dedup
/// the sender's retransmission and lose them for good.
#[test]
fn torn_commit_recovers_neither_watermark_nor_facts() {
    let root = tmp_root("tornmark", 0);
    let name = "tornmarkp";
    let sym = Symbol::intern(name);
    let remote = Symbol::intern("tornmarksender");
    let cfg = DurabilityConfig::new(&root)
        .checkpoint_records(10_000)
        .checkpoint_bytes(u64::MAX);
    let mut persist = DurablePersistence::new(cfg.clone());
    let mut p = build_peer(name);
    persist.store_mut().attach(&mut p).unwrap();
    p.note_session_watermark(remote, 0, 1, 1);
    p.insert_local("album", row(1, 1)).unwrap();
    p.sync_durability().unwrap();

    let engine = persist.store_mut().engine(sym).unwrap();
    let wal_path = log_path(engine.lock().dir());
    let acked_len = fs::metadata(&wal_path).unwrap().len() as usize;
    p.note_session_watermark(remote, 0, 1, 3);
    p.insert_local("album", row(2, 2)).unwrap();
    p.insert_local("album", row(3, 3)).unwrap();
    p.sync_durability().unwrap();
    let full = fs::read(&wal_path).unwrap();
    drop(p);

    for cut in acked_len..=full.len() {
        fs::write(&wal_path, &full[..cut]).unwrap();
        let q = Engine::open(&cfg, sym).unwrap().recover().unwrap();
        let mark = q.session_watermarks().get(&(remote, 0)).copied();
        let rows = q.relation_facts("album").len();
        let whole = cut == full.len();
        assert_eq!(
            (mark, rows),
            if whole {
                (Some((1, 3)), 3)
            } else {
                (Some((1, 1)), 1)
            },
            "cut {cut} of {}",
            full.len()
        );
    }
    let _ = fs::remove_dir_all(&root);
}

//! Corruption fuzzing for the durable storage engine.
//!
//! Recovery must treat the disk as hostile: random bit flips, truncations,
//! splices, a deleted log, stale and foreign logs must all produce either
//! a clean [`StoreError`] or a *sound* recovery (a subset of the true facts
//! after the log's torn tail is cut) — never a panic, and never silently
//! invented state.
//!
//! Reproduce a failing seed with:
//!
//! ```text
//! WDL_STORE_SEED=1234 cargo test --test store_corruption <test-name>
//! ```

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use webdamlog::core::{Peer, RelationKind};
use webdamlog::datalog::Value;
use webdamlog::store::{DurabilityConfig, DurableStore};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    let dir = std::env::temp_dir().join(format!("wdl-corrupt-{tag}-{seed}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const PEER: &str = "fuzzp";

/// Builds a durable peer with a checkpoint, five commits behind it, and a
/// known fact universe (insert-only, so soundness is a subset check). Returns
/// the storage root and the true final fact count per relation.
fn build_durable_state(root: &Path) -> (usize, usize) {
    let mut store = DurableStore::new(
        DurabilityConfig::new(root)
            .checkpoint_records(10_000)
            .checkpoint_bytes(u64::MAX),
    );
    let mut p = Peer::new(PEER);
    p.declare("pictures", 2, RelationKind::Extensional).unwrap();
    p.declare("album", 2, RelationKind::Extensional).unwrap();
    for i in 0..8i64 {
        p.insert_local("pictures", vec![Value::from(i), Value::from("ck")])
            .unwrap();
    }
    store.attach(&mut p).unwrap(); // checkpoint: 8 facts in the snapshot
    for i in 0..5i64 {
        p.insert_local("album", vec![Value::from(i), Value::from(i)])
            .unwrap();
        p.sync_durability().unwrap(); // one commit each
    }
    (8, 5)
}

/// Recovery outcome classifier: `Ok(counts)` or a clean error. A panic
/// escapes and fails the test.
fn try_recover(root: &Path) -> Result<(usize, usize), String> {
    let mut store = DurableStore::new(DurabilityConfig::new(root));
    match store.recover(PEER) {
        Ok(q) => Ok((
            q.relation_facts("pictures").len(),
            q.relation_facts("album").len(),
        )),
        Err(e) => Err(e.to_string()),
    }
}

fn storage_files(root: &Path) -> Vec<PathBuf> {
    let dir = root.join(PEER);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

/// The soundness check shared by every fuzz case: recovery either fails
/// cleanly or yields a subset of the true insert-only universe.
fn assert_sound(outcome: Result<(usize, usize), String>, ctx: &str) {
    match outcome {
        Ok((pictures, album)) => {
            assert!(pictures <= 8, "{ctx}: invented pictures ({pictures})");
            assert!(album <= 5, "{ctx}: invented album rows ({album})");
        }
        Err(msg) => {
            assert!(
                msg.contains("corrupt") || msg.contains("storage") || msg.contains("rejected"),
                "{ctx}: error is not a clean StoreError: {msg}"
            );
        }
    }
}

#[test]
fn random_bit_flips_never_panic_or_invent() {
    for seed in seed_range(0..120) {
        let root = tmp_root("flip", seed);
        build_durable_state(&root);
        let mut rng = StdRng::seed_from_u64(seed);
        let files = storage_files(&root);
        let victim = &files[rng.gen_range(0..files.len())];
        let mut bytes = fs::read(victim).unwrap();
        if bytes.is_empty() {
            continue;
        }
        let flips = rng.gen_range(1..4usize);
        for _ in 0..flips {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1u8 << rng.gen_range(0..8u32);
        }
        fs::write(victim, &bytes).unwrap();
        let outcome = try_recover(&root);
        assert_sound(
            outcome,
            &format!("seed {seed}: {flips} flips in {}", victim.display()),
        );
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn random_truncations_never_panic_or_invent() {
    for seed in seed_range(0..120) {
        let root = tmp_root("cut", seed);
        build_durable_state(&root);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        let files = storage_files(&root);
        let victim = &files[rng.gen_range(0..files.len())];
        let bytes = fs::read(victim).unwrap();
        let cut = rng.gen_range(0..bytes.len().max(1));
        fs::write(victim, &bytes[..cut.min(bytes.len())]).unwrap();
        let outcome = try_recover(&root);
        assert_sound(
            outcome,
            &format!("seed {seed}: cut {cut} of {}", victim.display()),
        );
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn random_splices_never_panic_or_invent() {
    for seed in seed_range(0..80) {
        let root = tmp_root("splice", seed);
        build_durable_state(&root);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x59_11CE);
        let files = storage_files(&root);
        let victim = &files[rng.gen_range(0..files.len())];
        // Overwrite one range of the file with another range of it — e.g.
        // one commit where another should be, or a segment image over the
        // meta image.
        let bytes = fs::read(victim).unwrap();
        let from = rng.gen_range(0..bytes.len());
        let len = rng.gen_range(1..=bytes.len() - from);
        let to = rng.gen_range(0..bytes.len());
        let mut spliced = bytes[..to].to_vec();
        spliced.extend_from_slice(&bytes[from..from + len]);
        spliced.extend_from_slice(&bytes[(to + len).min(bytes.len())..]);
        fs::write(victim, &spliced).unwrap();
        let outcome = try_recover(&root);
        assert_sound(
            outcome,
            &format!(
                "seed {seed}: bytes {from}..{} spliced in at {to} of {}",
                from + len,
                victim.display()
            ),
        );
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn missing_files_error_cleanly() {
    for seed in seed_range(0..40) {
        let root = tmp_root("gone", seed);
        build_durable_state(&root);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x90_11E);
        let files = storage_files(&root);
        let victim = &files[rng.gen_range(0..files.len())];
        fs::remove_file(victim).unwrap();
        let outcome = try_recover(&root);
        assert_sound(
            outcome,
            &format!("seed {seed}: removed {}", victim.display()),
        );
        let _ = fs::remove_dir_all(&root);
    }
}

/// An older epoch's log must not quietly revive: its bytes written under
/// the current log's name are corruption, because the header's epoch is
/// not the name's, while an older log merely left beside the current one
/// is ignored.
#[test]
fn stale_log_is_rejected() {
    let root = tmp_root("stale", 0);
    let mut store = DurableStore::new(DurabilityConfig::new(&root));
    let mut p = Peer::new(PEER);
    p.declare("pictures", 1, RelationKind::Extensional).unwrap();
    store.attach(&mut p).unwrap(); // epoch 1
    let old_log = root.join(PEER).join("wal-0000000000000001.log");
    let stale = fs::read(&old_log).unwrap();

    p.insert_local("pictures", vec![Value::from(1)]).unwrap();
    {
        let engine = store.engine(PEER).unwrap();
        let mut engine = engine.lock();
        engine.checkpoint(&p).unwrap(); // epoch 2, the epoch-1 log removed
    }
    drop(p);
    let names: Vec<String> = storage_files(&root)
        .iter()
        .map(|f| f.file_name().unwrap().to_str().unwrap().to_string())
        .collect();
    assert_eq!(names, ["wal-0000000000000002.log"]);

    fs::write(&old_log, &stale).unwrap(); // left beside the newer log
    assert_eq!(try_recover(&root), Ok((1, 0)), "the newer log wins");

    // Recovery checkpointed again, and its log is alone in the directory.
    let current = storage_files(&root);
    assert_eq!(current.len(), 1);
    fs::write(&current[0], &stale).unwrap(); // the stale splice
    let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
    let err = store2.recover(PEER).expect_err("stale log accepted");
    assert!(
        err.is_corrupt() && err.to_string().contains("epoch"),
        "stale log produced another error: {err}"
    );
    let _ = fs::remove_dir_all(&root);
}

/// A directory whose log was removed is a clean error, not a fresh peer.
#[test]
fn missing_log_is_a_clean_error() {
    let root = tmp_root("nolog", 0);
    build_durable_state(&root);
    for f in storage_files(&root) {
        fs::remove_file(f).unwrap();
    }
    let mut store = DurableStore::new(DurabilityConfig::new(&root));
    assert!(!store.has_data(PEER));
    let err = store.recover(PEER).expect_err("empty directory recovered");
    assert!(err.is_corrupt(), "unexpected error class: {err}");
    let _ = fs::remove_dir_all(&root);
}

/// A WAL copied in from another peer's directory decodes fine record by
/// record — only the header's peer binding catches it.
#[test]
fn cross_peer_wal_splice_is_rejected() {
    let root = tmp_root("xpeer", 0);
    let mut store = DurableStore::new(
        DurabilityConfig::new(&root)
            .checkpoint_records(10_000)
            .checkpoint_bytes(u64::MAX),
    );
    let mut build = |name: &str| {
        let mut p = Peer::new(name);
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        store.attach(&mut p).unwrap();
        p.insert_local("pictures", vec![Value::from(7)]).unwrap();
        p.sync_durability().unwrap();
        p
    };
    let a = build("xpeerA");
    let b = build("xpeerB");

    // Same epoch, same relation names, valid records — swap the logs.
    let wal_a: Vec<PathBuf> = fs::read_dir(root.join("xpeerA"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .collect();
    let wal_b: Vec<PathBuf> = fs::read_dir(root.join("xpeerB"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .collect();
    assert_eq!((wal_a.len(), wal_b.len()), (1, 1));
    let stolen = fs::read(&wal_a[0]).unwrap();
    fs::write(&wal_b[0], &stolen).unwrap();
    drop(a);
    drop(b);

    let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
    let err = store2.recover("xpeerB").expect_err("foreign WAL accepted");
    assert!(err.is_corrupt(), "unexpected error class: {err}");
    assert!(
        err.to_string().contains("belongs to"),
        "not the peer-binding check: {err}"
    );
    let _ = fs::remove_dir_all(&root);
}

/// Another peer's whole log copied into a directory, under a newer epoch
/// than the directory's own, is the log recovery picks — and its header's
/// peer binding rejects it.
#[test]
fn cross_peer_log_is_rejected() {
    let root = tmp_root("xlog", 0);
    let mut store = DurableStore::new(DurabilityConfig::new(&root));
    for name in ["xlogA", "xlogB"] {
        let mut p = Peer::new(name);
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        store.attach(&mut p).unwrap();
    }
    {
        let engine = store.engine("xlogA").unwrap();
        let mut engine = engine.lock();
        let mut p = Peer::new("xlogA");
        p.declare("pictures", 1, RelationKind::Extensional).unwrap();
        engine.checkpoint(&p).unwrap(); // epoch 2
    }
    let foreign = "wal-0000000000000002.log";
    fs::copy(
        root.join("xlogA").join(foreign),
        root.join("xlogB").join(foreign),
    )
    .unwrap();
    let mut store2 = DurableStore::new(DurabilityConfig::new(&root));
    let err = store2.recover("xlogB").expect_err("foreign log accepted");
    assert!(err.is_corrupt(), "unexpected error class: {err}");
    assert!(
        err.to_string().contains("belongs to"),
        "not the peer-binding check: {err}"
    );
    let _ = fs::remove_dir_all(&root);
}

/// The meta image opening the log's snapshot is the peer's structure.
/// Any byte of it flipped — its length prefix or the image, whose own
/// envelope CRC covers it — is a clean corruption error, never a panic and
/// never a peer recovered without its schema.
#[test]
fn corrupted_opening_meta_record_is_a_clean_error() {
    let root = tmp_root("meta", 0);
    build_durable_state(&root);
    let wal = storage_files(&root)
        .into_iter()
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .unwrap();
    let log = fs::read(&wal).unwrap();
    // Header: magic, version, epoch, peer name (u32 length + bytes), CRC.
    let name_len = u32::from_le_bytes(log[13..17].try_into().unwrap()) as usize;
    let start = 17 + name_len + 4;
    let image_len = u32::from_le_bytes(log[start..start + 4].try_into().unwrap()) as usize;
    let image = start + 4..start + 4 + image_len;
    assert_eq!(
        &log[image.start..image.start + 4],
        b"WMET",
        "the snapshot opens with the meta image"
    );

    for i in start..image.end {
        let mut bad = log.clone();
        bad[i] ^= 0x04;
        fs::write(&wal, &bad).unwrap();
        let mut store = DurableStore::new(DurabilityConfig::new(&root));
        match store.recover(PEER) {
            Ok(_) => panic!("flip at byte {i}: recovered from a damaged meta image"),
            Err(e) => assert!(e.is_corrupt(), "flip at byte {i}: {e}"),
        }
    }
    let _ = fs::remove_dir_all(&root);
}

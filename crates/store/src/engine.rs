//! The per-peer storage engine: one checkpoint log, group commits and
//! recovery.
//!
//! One [`Engine`] owns one peer's storage directory
//! (`<root>/<peer-name>/`). After every checkpoint the directory holds one
//! file, `wal-<epoch>.log` (format in `wal.rs`): the peer's snapshot
//! image, then the group commits appended since. Its life cycle mirrors
//! the durability seam:
//!
//! * [`Engine::record`] buffers a base change in memory — free, called
//!   from the hot mutation path.
//! * [`Engine::sync`] is the group commit, called at stage boundaries.
//!   It appends the buffered batch to the log as one frame (one write +
//!   fsync), led by a Meta entry — the peer's meta image — when
//!   structural state changed; or, when no log is open or the log reached
//!   its size thresholds, folds everything into a fresh checkpoint.
//! * [`Engine::checkpoint`] writes `wal-<epoch>.tmp` under the next epoch
//!   — the header, then the images of [`wdl_net::snapshot::write_images`]
//!   one at a time — fsyncs it, renames it to `wal-<epoch>.log` (the
//!   commit point) and fsyncs the directory. Only then does it remove the
//!   older files and reopen the log for append.
//! * [`Engine::recover`] rebuilds a peer from the highest committed log:
//!   the structure of its last whole Meta entry, or of the snapshot's meta
//!   image when no commit changed it; the snapshot's segments
//!   ([`wdl_net::snapshot::import_segments`], as `snapshot::load` does);
//!   then the rows and watermarks of its whole commits, replayed through
//!   `insert_local`/`delete_local` (the incremental-maintenance path) up
//!   to the first torn frame. It leaves no log open, so the first sync
//!   after it checkpoints.
//!
//! Crash injection comes in two flavors: [`IoFaults`] fails the engine
//! after a budgeted number of file operations (so a sweep can kill a
//! checkpoint between any two of them), and [`Engine::simulate_crash`]
//! models what an OS-level crash leaves behind — a torn prefix of the
//! unacked commit, the litter of an uncommitted checkpoint — driven by a
//! seed so simulator runs replay exactly.

use crate::error::{Result, StoreError};
use crate::wal::{self, WalEntry, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use wdl_core::Peer;
use wdl_datalog::{Symbol, Tuple};
use wdl_net::snapshot::{import_segments, read_meta, write_images, write_meta};

/// Where and how aggressively a peer persists.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory under which each peer gets `<root>/<peer-name>/`.
    pub root: PathBuf,
    /// Checkpoint once the log holds this many entries past its snapshot.
    pub checkpoint_records: usize,
    /// Checkpoint once the log's commits reach this many bytes.
    pub checkpoint_bytes: u64,
}

impl DurabilityConfig {
    /// Config with default checkpoint policy (4096 records / 1 MiB).
    pub fn new(root: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            root: root.into(),
            checkpoint_records: 4096,
            checkpoint_bytes: 1 << 20,
        }
    }

    /// Sets the record-count checkpoint threshold.
    pub fn checkpoint_records(mut self, n: usize) -> DurabilityConfig {
        self.checkpoint_records = n;
        self
    }

    /// Sets the log-bytes checkpoint threshold.
    pub fn checkpoint_bytes(mut self, n: u64) -> DurabilityConfig {
        self.checkpoint_bytes = n;
        self
    }
}

/// Budgeted fault injection: every file operation (create, write, fsync,
/// rename, directory fsync, open) spends one unit; when the budget hits
/// zero the operation fails with [`StoreError::Injected`] instead of
/// touching disk. Sweeping the budget over `0..N` kills the engine between
/// every pair of file operations — including mid-checkpoint, after the
/// images are written but before the rename commits them.
#[derive(Clone, Debug, Default)]
pub struct IoFaults {
    remaining: Option<u64>,
}

impl IoFaults {
    /// No injected faults (the default).
    pub fn none() -> IoFaults {
        IoFaults { remaining: None }
    }

    /// Allow `n` file operations to succeed, then fail every one after.
    pub fn fail_after(n: u64) -> IoFaults {
        IoFaults { remaining: Some(n) }
    }

    fn tick(&mut self) -> Result<()> {
        match &mut self.remaining {
            None => Ok(()),
            Some(0) => Err(StoreError::Injected("i/o fault budget exhausted")),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
        }
    }
}

/// One peer's durable storage: a checkpoint log per epoch.
#[derive(Debug)]
pub struct Engine {
    dir: PathBuf,
    peer: Symbol,
    checkpoint_records: usize,
    checkpoint_bytes: u64,
    /// Epoch of the committed log (0 = never checkpointed).
    epoch: u64,
    /// Append handle for the committed log, open between checkpoints.
    wal: Option<File>,
    /// Entries appended to the committed log since its snapshot.
    wal_records: usize,
    /// Commit bytes appended to the committed log since its snapshot.
    wal_bytes: u64,
    /// Buffered changes since the last group commit.
    buffer: Vec<WalEntry>,
    faults: IoFaults,
}

impl Engine {
    /// Opens (creating if needed) the storage directory for `peer`, at the
    /// epoch of its highest committed log. Does not load any data — call
    /// [`Engine::recover`] for that.
    pub fn open(config: &DurabilityConfig, peer: Symbol) -> Result<Engine> {
        let dir = config.root.join(peer.as_str());
        fs::create_dir_all(&dir)?;
        Ok(Engine {
            epoch: committed_epoch(&dir),
            dir,
            peer,
            checkpoint_records: config.checkpoint_records,
            checkpoint_bytes: config.checkpoint_bytes,
            wal: None,
            wal_records: 0,
            wal_bytes: 0,
            buffer: Vec::new(),
            faults: IoFaults::none(),
        })
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Epoch of the last committed checkpoint (0 if none yet).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(entries, commit bytes)` durable in the current log past its
    /// snapshot.
    pub fn wal_stats(&self) -> (usize, u64) {
        (self.wal_records, self.wal_bytes)
    }

    /// Installs an injected-fault budget (see [`IoFaults`]).
    pub fn set_faults(&mut self, faults: IoFaults) {
        self.faults = faults;
    }

    /// Buffers one base change. Pure memory; durability is decided at
    /// [`Engine::sync`].
    pub fn record(&mut self, rel: Symbol, tuple: Tuple, added: bool) {
        self.buffer
            .push(WalEntry::Fact(WalRecord { rel, tuple, added }));
    }

    /// Buffers one session delivery watermark. Riding in the same buffer
    /// as the facts means the next group commit makes both durable
    /// atomically — the session layer's dedup floor never gets ahead of
    /// the facts it guards.
    pub fn record_watermark(&mut self, remote: Symbol, dir: u8, inc: u64, seq: u64) {
        self.buffer.push(WalEntry::Watermark {
            remote,
            dir,
            inc,
            seq,
        });
    }

    /// Group commit: appends the buffered batch to the log as one frame,
    /// with one write and one fsync. When `meta_dirty` is set the frame
    /// opens with a Meta entry, ahead of the rows, because a stage may
    /// declare a relation and write into it in the same commit.
    /// Checkpoints instead when no log is open (first sync, after recovery
    /// or after a failed append) or the log reached the records/bytes
    /// thresholds.
    pub fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> Result<()> {
        let due = self.wal_records + self.buffer.len() >= self.checkpoint_records
            || self.wal_bytes >= self.checkpoint_bytes;
        let Some(wal) = self.wal.as_mut().filter(|_| !due) else {
            return self.checkpoint(peer);
        };
        let meta = meta_dirty.then(|| WalEntry::Meta(write_meta(peer)));
        let Some(frame) = wal::encode_commit(meta.iter().chain(&self.buffer)) else {
            return Ok(());
        };
        if let Err(e) = append(wal, &frame, &mut self.faults) {
            // Part of the frame may be on disk: never append behind it.
            self.wal = None;
            return Err(e);
        }
        self.wal_bytes += frame.len() as u64;
        self.wal_records += self.buffer.len() + usize::from(meta_dirty);
        self.buffer.clear();
        Ok(())
    }

    /// Writes a full checkpoint of `peer` under the next epoch and commits
    /// it. The buffered records are *not* appended — the state they
    /// describe is already inside the snapshot being written.
    pub fn checkpoint(&mut self, peer: &Peer) -> Result<()> {
        let epoch = self.epoch + 1;
        let log = self.dir.join(log_name(epoch));
        let tmp = log.with_extension("tmp");
        let faults = &mut self.faults;
        faults.tick()?;
        let mut file = File::create(&tmp)?;
        let mut put = |bytes: &[u8]| -> Result<()> {
            faults.tick()?;
            file.write_all(bytes)?;
            Ok(())
        };
        put(&wal::encode_header(epoch, self.peer))?;
        write_images(peer, &mut put)?;
        self.faults.tick()?;
        file.sync_all()?;
        self.faults.tick()?;
        fs::rename(&tmp, &log)?;
        // The commit point: from here on the new log is the durable state,
        // whatever fails below, so the in-memory epoch follows it now.
        self.epoch = epoch;
        self.wal_records = 0;
        self.wal_bytes = 0;
        self.buffer.clear();
        self.wal = None;

        self.faults.tick()?;
        File::open(&self.dir)?.sync_all()?;
        self.remove_stale();
        self.faults.tick()?;
        self.wal = Some(OpenOptions::new().append(true).open(&log)?);
        Ok(())
    }

    /// Rebuilds the peer from the highest committed log: the structure of
    /// its last whole Meta entry (or of its snapshot's meta image), the
    /// snapshot's segments, then the rows and watermarks of its whole
    /// commits, replayed through the incremental-maintenance path up to the
    /// first torn frame. Leaves no log open: the next [`Engine::sync`]
    /// checkpoints, folding the replayed log, and only then is anything
    /// appended.
    pub fn recover(&mut self) -> Result<Peer> {
        self.wal = None;
        self.buffer.clear();

        let epoch = committed_epoch(&self.dir);
        if epoch == 0 {
            return Err(StoreError::corrupt(
                self.dir.display().to_string(),
                "no committed log",
            ));
        }
        let file = log_name(epoch);
        let bytes = fs::read(self.dir.join(&file))?;
        let log = wal::scan(&bytes, &file)?;
        if log.epoch != epoch {
            return Err(StoreError::corrupt(
                &file,
                format!(
                    "log header is for epoch {}, its name for epoch {epoch} (stale or renamed log)",
                    log.epoch
                ),
            ));
        }
        if log.peer != self.peer {
            return Err(StoreError::corrupt(
                &file,
                format!(
                    "log belongs to peer {}, this directory belongs to {} (spliced log)",
                    log.peer, self.peer
                ),
            ));
        }
        // The schema only grows, so the last structure declares every
        // relation the segments and the logged rows write into.
        let meta = log
            .records
            .iter()
            .rev()
            .find_map(|entry| match entry {
                WalEntry::Meta(image) => Some(&image[..]),
                _ => None,
            })
            .unwrap_or(log.snapshot.meta);
        let decoding = StoreError::decoding(&file);
        let mut peer = read_meta(meta, "meta image").map_err(decoding)?;
        import_segments(&mut peer, &log.snapshot.segments).map_err(decoding)?;

        for entry in &log.records {
            match entry {
                WalEntry::Fact(rec) => {
                    if rec.added {
                        peer.insert_local(rec.rel, rec.tuple.to_vec())?;
                    } else {
                        peer.delete_local(rec.rel, rec.tuple.to_vec())?;
                    }
                }
                WalEntry::Watermark {
                    remote,
                    dir,
                    inc,
                    seq,
                } => {
                    // Straight into the peer's map — going through the
                    // sink would re-log an entry we are replaying.
                    peer.restore_session_watermark(*remote, *dir, *inc, *seq);
                }
                WalEntry::Meta(_) => {}
            }
        }
        self.epoch = epoch;
        Ok(peer)
    }

    /// Models a process crash, seeded for deterministic replay. The
    /// in-memory buffer is lost (returned so a client-retry layer can
    /// re-submit); the seed decides what half-finished I/O the crash
    /// leaves on disk — a torn commit, the litter of an uncommitted
    /// checkpoint, both, or nothing. Only *unacknowledged* bytes are ever
    /// damaged: everything a past `sync` acked stays intact.
    pub fn simulate_crash(&mut self, seed: u64) -> Vec<WalEntry> {
        let lost = std::mem::take(&mut self.buffer);
        self.wal = None;
        let mut rng = StdRng::seed_from_u64(seed);
        let choice: u32 = rng.gen_range(0..4);
        if choice & 1 != 0 {
            self.tear_commit(&lost, &mut rng);
        }
        if choice & 2 != 0 {
            self.litter_partial_checkpoint(&mut rng);
        }
        lost
    }

    /// Appends the frame the interrupted sync of `lost` would have
    /// written, torn: cut short, or whole with a broken CRC.
    fn tear_commit(&self, lost: &[WalEntry], rng: &mut StdRng) {
        let Some(mut frame) = wal::encode_commit(lost.iter()) else {
            return;
        };
        let path = self.dir.join(log_name(self.epoch));
        let Ok(mut f) = OpenOptions::new().append(true).open(path) else {
            return;
        };
        let cut = rng.gen_range(1..=frame.len());
        if cut == frame.len() {
            // Full-length write with a mangled CRC instead of a short one.
            frame[5] ^= 0xff;
        }
        let _ = f.write_all(&frame[..cut]);
    }

    /// Drops the on-disk litter of a checkpoint that died before its
    /// rename: a prefix of the next epoch's `.tmp` file. Recovery must
    /// ignore it — only a committed `.log` name is truth.
    fn litter_partial_checkpoint(&self, rng: &mut StdRng) {
        let next = log_name(self.epoch + 1);
        let header = wal::encode_header(self.epoch + 1, self.peer);
        let cut = rng.gen_range(0..=header.len());
        let tmp = self.dir.join(next).with_extension("tmp");
        let _ = fs::write(tmp, &header[..cut]);
    }

    /// Best-effort removal of every other `wal-*` file: older logs, and the
    /// `.tmp` litter of checkpoints that died before their rename.
    fn remove_stale(&self) {
        let current = log_name(self.epoch);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name
                .to_str()
                .is_some_and(|n| n.starts_with("wal-") && n != current)
            {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Appends one commit frame to the open log with one write and one fsync.
fn append(wal: &mut File, frame: &[u8], faults: &mut IoFaults) -> Result<()> {
    faults.tick()?;
    wal.write_all(frame)?;
    faults.tick()?;
    wal.sync_all()?;
    Ok(())
}

/// The committed log file of `epoch`.
fn log_name(epoch: u64) -> String {
    format!("wal-{epoch:016x}.log")
}

/// The highest epoch a committed `wal-<epoch>.log` name in `dir` carries
/// (0 if none).
pub(crate) fn committed_epoch(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let hex = name.to_str()?.strip_prefix("wal-")?.strip_suffix(".log")?;
            u64::from_str_radix(hex, 16)
                .ok()
                .filter(|_| hex.len() == 16)
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::RelationKind;
    use wdl_datalog::Value;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wdl-store-eng-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_peer(name: &str) -> Peer {
        let mut p = Peer::new(name);
        p.declare("pictures", 2, RelationKind::Extensional).unwrap();
        p.insert_local("pictures", vec![Value::from(1), Value::from("a.jpg")])
            .unwrap();
        p
    }

    #[test]
    fn checkpoint_then_recover_round_trips() {
        let root = tmp_root("ckpt");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp1");
        let p = sample_peer("engp1");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();
        assert_eq!(eng.epoch(), 1);

        let mut eng2 = Engine::open(&cfg, name).unwrap();
        let q = eng2.recover().unwrap();
        assert_eq!(q.relation_facts("pictures"), p.relation_facts("pictures"));
        let _ = fs::remove_dir_all(&root);
    }

    /// The names of the files in `dir`, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// One format, one file: after a checkpoint the directory holds one
    /// `wal-<epoch>.log`, whose bytes after the header (and before any
    /// commit) are `snapshot::save`, and recovering from disk restores the
    /// same peer as loading the snapshot.
    #[test]
    fn checkpoint_files_are_the_snapshot_images() {
        use wdl_core::acl::UntrustedPolicy;
        use wdl_core::{Delegation, WAtom, WRule};
        use wdl_datalog::Term;
        use wdl_net::snapshot;

        let root = tmp_root("pin");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp7");
        let mut p = sample_peer("engp7");
        p.declare("album", 1, RelationKind::Extensional).unwrap();
        p.declare("view", 2, RelationKind::Intensional).unwrap();
        let xy = || vec![Term::var("x"), Term::var("y")];
        let rule = WRule::new(
            WAtom::at("view", "engp7", xy()),
            vec![WAtom::at("pictures", "engp7", xy()).into()],
        );
        p.add_rule(rule.clone()).unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("engp7origin"),
            name,
            rule.clone(),
        ))
        .unwrap();
        p.acl_mut().trust("engp7friend");
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Reject);
        p.acl_mut().restrict_read("pictures");
        p.acl_mut().grant_read("pictures", "engp7friend");
        p.acl_mut().declassify("view");
        let queued = Delegation::new(Symbol::intern("engp7stranger"), name, rule.clone());
        p.acl_mut().push_pending(queued, 4);
        p.note_session_watermark(Symbol::intern("engp7friend"), 0, 2, 9);

        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();
        let saved = snapshot::save(&p);
        assert_eq!(
            files_in(eng.dir()),
            vec![log_name(1)],
            "a checkpoint is one file"
        );
        let header = wal::encode_header(1, name);
        let log = fs::read(eng.dir().join(log_name(1))).unwrap();
        assert_eq!(log, [&header[..], &saved[..]].concat());

        let recovered = Engine::open(&cfg, name).unwrap().recover().unwrap();
        let loaded = snapshot::load(&saved).unwrap();
        let rules = |q: &Peer| q.rules().iter().map(|e| e.rule.clone()).collect::<Vec<_>>();
        for q in [&recovered, &loaded] {
            assert_eq!(q.export_extensional(), p.export_extensional());
            assert_eq!(rules(q), rules(&p));
            assert_eq!(q.installed_delegations(), p.installed_delegations());
            assert_eq!(q.acl(), p.acl());
            assert_eq!(q.session_watermarks(), p.session_watermarks());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wal_appends_replay_on_recovery() {
        let root = tmp_root("wal");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp2");
        let mut p = sample_peer("engp2");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();

        p.insert_local("pictures", vec![Value::from(2), Value::from("b.jpg")])
            .unwrap();
        eng.record(
            Symbol::intern("pictures"),
            vec![Value::from(2), Value::from("b.jpg")].into(),
            true,
        );
        eng.record(
            Symbol::intern("pictures"),
            vec![Value::from(1), Value::from("a.jpg")].into(),
            false,
        );
        p.delete_local("pictures", vec![Value::from(1), Value::from("a.jpg")])
            .unwrap();
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.wal_stats().0, 2);

        let mut eng2 = Engine::open(&cfg, name).unwrap();
        let q = eng2.recover().unwrap();
        assert_eq!(q.relation_facts("pictures"), p.relation_facts("pictures"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn watermarks_replay_on_recovery() {
        let root = tmp_root("wm");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp6");
        let p = sample_peer("engp6");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();

        let remote = Symbol::intern("engp6remote");
        eng.record_watermark(remote, 0, 2, 17);
        eng.record_watermark(remote, 1, 1, 5);
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.wal_stats().0, 2);

        let mut eng2 = Engine::open(&cfg, name).unwrap();
        let q = eng2.recover().unwrap();
        assert_eq!(q.session_watermarks().get(&(remote, 0)), Some(&(2, 17)));
        assert_eq!(q.session_watermarks().get(&(remote, 1)), Some(&(1, 5)));
        let _ = fs::remove_dir_all(&root);
    }

    /// A structural change is one Meta entry ahead of its commit's rows,
    /// not a checkpoint: the epoch stays, and recovery restores both the
    /// relation the commit declared and the row it wrote there.
    #[test]
    fn structural_change_is_one_meta_record() {
        let root = tmp_root("meta");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp3");
        let mut p = sample_peer("engp3");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.sync(&p, true).unwrap();
        assert_eq!(eng.epoch(), 1, "no WAL yet: the first sync checkpoints");

        p.declare("album", 1, RelationKind::Extensional).unwrap();
        p.insert_local("album", vec![Value::from(5)]).unwrap();
        eng.record(Symbol::intern("album"), vec![Value::from(5)].into(), true);
        eng.sync(&p, true).unwrap();
        assert_eq!(eng.epoch(), 1, "a structural change does not checkpoint");
        assert_eq!(eng.wal_stats().0, 2, "one Meta entry, then the row");
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.wal_stats().0, 2, "clean empty sync is a no-op");

        let file = log_name(1);
        let bytes = fs::read(eng.dir().join(&file)).unwrap();
        let log = wal::scan(&bytes, &file).unwrap();
        assert!(matches!(
            &log.records[..],
            [WalEntry::Meta(image), WalEntry::Fact(_)] if *image == write_meta(&p)
        ));
        let q = Engine::open(&cfg, name).unwrap().recover().unwrap();
        assert_eq!(q.relation_facts("album"), p.relation_facts("album"));
        let _ = fs::remove_dir_all(&root);
    }

    /// An append that failed may have left part of its frame in the log,
    /// and a commit behind a torn frame would never replay: the next sync
    /// checkpoints instead of appending.
    #[test]
    fn failed_append_checkpoints_next() {
        let root = tmp_root("failappend");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp8");
        let mut p = sample_peer("engp8");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();

        let row = vec![Value::from(2), Value::from("b.jpg")];
        p.insert_local("pictures", row.clone()).unwrap();
        eng.record(Symbol::intern("pictures"), row.into(), true);
        eng.set_faults(IoFaults::fail_after(1)); // the write lands, its fsync fails
        assert!(eng.sync(&p, false).is_err());
        eng.set_faults(IoFaults::none());
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.epoch(), 2, "the sync after a failed append checkpoints");
        assert_eq!(files_in(eng.dir()), vec![log_name(2)]);

        let q = Engine::open(&cfg, name).unwrap().recover().unwrap();
        assert_eq!(q.relation_facts("pictures"), p.relation_facts("pictures"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_faults_never_lose_committed_state() {
        let name = Symbol::intern("engp4");
        for budget in 0..24 {
            let root = tmp_root(&format!("fault{budget}"));
            let cfg = DurabilityConfig::new(&root);
            let p = sample_peer("engp4");
            let mut eng = Engine::open(&cfg, name).unwrap();
            eng.checkpoint(&p).unwrap();

            eng.set_faults(IoFaults::fail_after(budget));
            let mut q = sample_peer("engp4");
            q.insert_local("pictures", vec![Value::from(3), Value::from("c.jpg")])
                .unwrap();
            // A later checkpoint may die anywhere; the first one must hold.
            let _ = eng.checkpoint(&q);

            let mut eng2 = Engine::open(&cfg, name).unwrap();
            let r = eng2.recover().expect("recovery after injected crash");
            let got = r.relation_facts("pictures").len();
            assert!(got == 1 || got == 2, "budget {budget}: {got} facts");
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn simulated_crash_tears_are_always_recoverable() {
        let name = Symbol::intern("engp5");
        for seed in 0..32u64 {
            let root = tmp_root(&format!("tear{seed}"));
            let cfg = DurabilityConfig::new(&root);
            let mut p = sample_peer("engp5");
            let mut eng = Engine::open(&cfg, name).unwrap();
            eng.checkpoint(&p).unwrap();
            p.insert_local("pictures", vec![Value::from(9), Value::from("z.jpg")])
                .unwrap();
            eng.record(
                Symbol::intern("pictures"),
                vec![Value::from(9), Value::from("z.jpg")].into(),
                true,
            );
            eng.sync(&p, false).unwrap();
            // An unacked change the crash may tear on disk.
            eng.record(
                Symbol::intern("pictures"),
                vec![Value::from(10), Value::from("y.jpg")].into(),
                true,
            );

            let lost = eng.simulate_crash(seed);
            assert_eq!(lost.len(), 1, "only the unacked batch is lost");
            let mut eng2 = Engine::open(&cfg, name).unwrap();
            let q = eng2.recover().expect("recovery after simulated crash");
            assert_eq!(
                q.relation_facts("pictures").len(),
                2,
                "seed {seed}: acked facts lost or a torn commit replayed"
            );
            let _ = fs::remove_dir_all(&root);
        }
    }
}

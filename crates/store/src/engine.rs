//! The per-peer storage engine: checkpoint + WAL + recovery.
//!
//! One [`Engine`] owns one peer's storage directory
//! (`<root>/<peer-name>/`). Its life cycle mirrors the durability seam:
//!
//! * [`Engine::record`] buffers a base change in memory — free, called
//!   from the hot mutation path.
//! * [`Engine::sync`] is the group commit, called at stage boundaries.
//!   It appends the buffered batch to the WAL (one write + fsync), led by
//!   a Meta record — the peer's meta image — when structural state
//!   changed; or, when no WAL is open or the log reached its size
//!   thresholds, folds everything into a fresh checkpoint.
//! * [`Engine::checkpoint`] writes one segment image of
//!   [`wdl_net::snapshot`] per extensional relation, one file each, plus a
//!   fresh WAL under the next epoch that opens with the Meta record, and
//!   commits them with an atomic manifest rename.
//! * [`Engine::recover`] rebuilds a peer: manifest → the WAL's last valid
//!   Meta record (`read_meta`) → segments (`read_segment` /
//!   `import_extensional`, as `snapshot::load` does) → the WAL's fact and
//!   watermark records replayed through `insert_local`/`delete_local`
//!   (the incremental-maintenance path), stopping at the first torn
//!   record. It leaves no WAL open, so the first sync after it
//!   checkpoints.
//!
//! Crash injection comes in two flavors: [`IoFaults`] fails the engine
//! after a budgeted number of file operations (so a sweep can kill a
//! checkpoint between any two writes), and [`Engine::simulate_crash`]
//! models what an OS-level crash leaves behind — a torn WAL append, the
//! litter of an uncommitted checkpoint — driven by a seed so simulator
//! runs replay exactly.

use crate::error::{Result, StoreError};
use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::wal::{self, WalEntry, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use wdl_core::Peer;
use wdl_datalog::{Symbol, Tuple, Value};
use wdl_net::snapshot::{read_meta, read_segment, write_meta, write_segment_bytes};

/// Where and how aggressively a peer persists.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory under which each peer gets `<root>/<peer-name>/`.
    pub root: PathBuf,
    /// Checkpoint once the WAL holds this many records.
    pub checkpoint_records: usize,
    /// Checkpoint once the WAL payload reaches this many bytes.
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

    /// Sets the WAL-bytes checkpoint threshold.
    pub fn checkpoint_bytes(mut self, n: u64) -> DurabilityConfig {
        self.checkpoint_bytes = n;
        self
    }
}

/// Budgeted fault injection: every file operation (create, write, fsync,
/// rename) spends one unit; when the budget hits zero the operation
/// fails with [`StoreError::Injected`] instead of touching disk. Sweeping
/// the budget over `0..N` kills the engine between every pair of file
/// operations — including mid-checkpoint, after segments exist but
/// before the manifest rename.
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

/// One peer's durable storage: segment checkpoints plus a delta WAL.
#[derive(Debug)]
pub struct Engine {
    dir: PathBuf,
    peer: Symbol,
    checkpoint_records: usize,
    checkpoint_bytes: u64,
    /// Epoch of the committed manifest (0 = never checkpointed).
    epoch: u64,
    /// Append handle for the current WAL, open between checkpoints.
    wal: Option<File>,
    /// Records already durable in the current WAL.
    wal_records: usize,
    /// Payload bytes already durable in the current WAL.
    wal_bytes: u64,
    /// Buffered changes since the last group commit.
    buffer: Vec<WalEntry>,
    faults: IoFaults,
}

impl Engine {
    /// Opens (creating if needed) the storage directory for `peer`.
    /// Reads the committed epoch from the manifest when one exists; does
    /// not load any data — call [`Engine::recover`] for that.
    pub fn open(config: &DurabilityConfig, peer: Symbol) -> Result<Engine> {
        let dir = config.root.join(peer.as_str());
        fs::create_dir_all(&dir)?;
        let epoch = match fs::read(dir.join(MANIFEST_FILE)) {
            Ok(bytes) => Manifest::decode(&bytes, MANIFEST_FILE)
                .map(|m| m.epoch)
                .unwrap_or_else(|_| detect_epoch(&dir)),
            Err(_) => detect_epoch(&dir),
        };
        Ok(Engine {
            dir,
            peer,
            checkpoint_records: config.checkpoint_records,
            checkpoint_bytes: config.checkpoint_bytes,
            epoch,
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

    /// `(records, payload bytes)` durable in the current WAL.
    pub fn wal_stats(&self) -> (usize, u64) {
        (self.wal_records, self.wal_bytes)
    }

    /// Installs an injected-fault budget (see [`IoFaults`]).
    pub fn set_faults(&mut self, faults: IoFaults) {
        self.faults = faults;
    }

    /// Reads and validates the committed manifest.
    pub fn manifest(&self) -> Result<Manifest> {
        let bytes = self.read_ref(MANIFEST_FILE)?;
        Manifest::decode(&bytes, MANIFEST_FILE)
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

    /// Group commit: appends the buffered batch to the WAL with one write
    /// and one fsync. When `meta_dirty` is set the batch opens with a
    /// Meta record, ahead of the rows, because a stage may declare a
    /// relation and write into it in the same commit. Checkpoints instead
    /// when no WAL is open (first sync, or after recovery) or the WAL
    /// reached the records/bytes thresholds.
    pub fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> Result<()> {
        let due = self.wal_records + self.buffer.len() >= self.checkpoint_records
            || self.wal_bytes >= self.checkpoint_bytes;
        let Some(wal) = self.wal.as_mut().filter(|_| !due) else {
            return self.checkpoint(peer);
        };
        let meta = meta_dirty.then(|| WalEntry::Meta(write_meta(peer)));
        self.wal_bytes += flush_wal(wal, meta.iter().chain(&self.buffer), &mut self.faults)?;
        self.wal_records += self.buffer.len() + usize::from(meta_dirty);
        self.buffer.clear();
        Ok(())
    }

    /// Writes a full checkpoint of `peer` under the next epoch and
    /// commits it. The buffered records are *not* appended — the store
    /// they describe is already inside the segments being written, and
    /// the structure inside the new WAL's opening Meta record, which
    /// belongs to the checkpoint (the WAL counters start after it).
    pub fn checkpoint(&mut self, peer: &Peer) -> Result<()> {
        let epoch = self.epoch + 1;

        let mut segments = Vec::new();
        for (i, (rel, dump)) in peer.export_extensional().into_iter().enumerate() {
            let file = format!("rel-{epoch:016x}-{i}.seg");
            self.write_file(&file, &write_segment_bytes(rel, &dump))?;
            segments.push((rel, file));
        }

        let wal_file = format!("wal-{epoch:016x}.log");
        let mut log = wal::encode_header(epoch, self.peer);
        log.extend(wal::encode_record(&WalEntry::Meta(write_meta(peer))));
        self.write_file(&wal_file, &log)?;

        // The commit point: everything above is fsynced and unreferenced
        // until this rename lands.
        self.commit_manifest(&Manifest {
            epoch,
            segments,
            wal_file: wal_file.clone(),
        })?;
        // The commit is on disk — advance the in-memory epoch *before*
        // anything that can still fail, or a crash between here and the
        // WAL reopen would treat the committed epoch as uncommitted
        // litter and damage it.
        self.epoch = epoch;
        self.wal_records = 0;
        self.wal_bytes = 0;
        self.buffer.clear();
        self.wal = None;

        self.faults.tick()?;
        self.wal = Some(
            OpenOptions::new()
                .append(true)
                .open(self.dir.join(&wal_file))?,
        );
        self.remove_stale();
        Ok(())
    }

    /// Rebuilds the peer from disk: the structure of the WAL's last valid
    /// Meta record, the committed segments, then the WAL's rows replayed
    /// through the incremental-maintenance path up to the first torn
    /// record. Leaves no WAL open: the next [`Engine::sync`] checkpoints,
    /// folding the replayed log, and only then is anything appended.
    pub fn recover(&mut self) -> Result<Peer> {
        self.wal = None;
        self.buffer.clear();

        let manifest = self.manifest()?;
        let wal_file = &manifest.wal_file;
        let tail = wal::scan(&self.read_ref(wal_file)?, wal_file)?;
        if tail.epoch != manifest.epoch {
            return Err(StoreError::corrupt(
                wal_file,
                format!(
                    "wal is for epoch {}, manifest commits epoch {} (stale manifest or spliced log)",
                    tail.epoch, manifest.epoch
                ),
            ));
        }
        if tail.peer != self.peer {
            return Err(StoreError::corrupt(
                wal_file,
                format!(
                    "wal belongs to peer {}, this directory belongs to {} (spliced log)",
                    tail.peer, self.peer
                ),
            ));
        }
        // The schema only grows, so the last structure declares every
        // relation the segments and the logged rows write into.
        let meta = tail.records.iter().rev().find_map(|entry| match entry {
            WalEntry::Meta(image) => Some(image),
            _ => None,
        });
        let meta = meta.ok_or_else(|| StoreError::corrupt(wal_file, "wal holds no meta record"))?;
        let mut peer = read_meta(meta, "meta record").map_err(StoreError::decoding(wal_file))?;

        for (rel, file) in &manifest.segments {
            let bytes = self.read_ref(file)?;
            let (seg_rel, dump) =
                read_segment(&bytes, "segment").map_err(StoreError::decoding(file))?;
            if seg_rel != *rel {
                return Err(StoreError::corrupt(
                    file,
                    format!("segment is for {seg_rel}, manifest says {rel}"),
                ));
            }
            peer.import_extensional(*rel, &dump)?;
        }

        for entry in &tail.records {
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
        self.epoch = manifest.epoch;
        Ok(peer)
    }

    /// Models a process crash, seeded for deterministic replay. The
    /// in-memory buffer is lost (returned so a client-retry layer can
    /// re-submit); the seed decides what half-finished I/O the crash
    /// leaves on disk — a torn WAL append, the litter of an uncommitted
    /// checkpoint, both, or nothing. Only *unacknowledged* bytes are ever
    /// damaged: everything a past `sync` acked stays intact.
    pub fn simulate_crash(&mut self, seed: u64) -> Vec<WalEntry> {
        let lost = std::mem::take(&mut self.buffer);
        self.wal = None;
        let mut rng = StdRng::seed_from_u64(seed);
        let choice: u32 = rng.gen_range(0..4);
        if choice & 1 != 0 {
            self.tear_wal_tail(&mut rng);
        }
        if choice & 2 != 0 {
            self.litter_partial_checkpoint(&mut rng);
        }
        lost
    }

    /// Appends a torn (cut or CRC-broken) record to the current WAL, as
    /// if the crash interrupted an append that was never acked.
    fn tear_wal_tail(&self, rng: &mut StdRng) {
        if self.epoch == 0 {
            return;
        }
        let path = self.dir.join(format!("wal-{:016x}.log", self.epoch));
        let Ok(mut f) = OpenOptions::new().append(true).open(&path) else {
            return;
        };
        let mut fake = wal::encode_record(&WalEntry::Fact(WalRecord {
            rel: Symbol::intern("tornWrite"),
            tuple: vec![Value::from(rng.gen_range(0..1_000_000_i64))].into(),
            added: true,
        }));
        let cut = rng.gen_range(1..=fake.len());
        if cut == fake.len() {
            // Full-length write with a mangled CRC instead of a short one.
            fake[5] ^= 0xff;
        }
        let _ = f.write_all(&fake[..cut]);
    }

    /// Drops the on-disk litter of a checkpoint that died before its
    /// manifest rename: a half-written segment, an uncommitted
    /// `MANIFEST.tmp`, maybe a fragment of the next WAL header. Recovery
    /// must ignore all of it — only the committed manifest is truth.
    fn litter_partial_checkpoint(&self, rng: &mut StdRng) {
        let next = self.epoch + 1;
        let _ = fs::write(
            self.dir.join(format!("rel-{next:016x}-0.seg")),
            b"WS", // half a magic
        );
        let _ = fs::write(self.dir.join("MANIFEST.tmp"), b"uncommitted");
        if rng.gen_range(0..2u32) == 1 {
            let header = wal::encode_header(next, self.peer);
            let cut = rng.gen_range(1..header.len());
            let _ = fs::write(
                self.dir.join(format!("wal-{next:016x}.log")),
                &header[..cut],
            );
        }
    }

    fn write_file(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.faults.tick()?;
        let mut f = File::create(self.dir.join(name))?;
        f.write_all(bytes)?;
        self.faults.tick()?;
        f.sync_all()?;
        Ok(())
    }

    fn commit_manifest(&mut self, m: &Manifest) -> Result<()> {
        let tmp = "MANIFEST.tmp";
        self.write_file(tmp, &m.encode())?;
        self.faults.tick()?;
        fs::rename(self.dir.join(tmp), self.dir.join(MANIFEST_FILE))?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Reads a manifest-referenced file; a missing one is corruption
    /// (stale manifest), not a plain I/O error.
    fn read_ref(&self, file: &str) -> Result<Vec<u8>> {
        fs::read(self.dir.join(file)).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::corrupt(file, "referenced file is missing")
            } else {
                StoreError::Io(e)
            }
        })
    }

    /// Best-effort removal of files from superseded epochs.
    fn remove_stale(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(epoch) = parse_epoch(name) {
                if epoch < self.epoch {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Appends `batch` to the open WAL as one write + fsync (nothing for an
/// empty batch); returns the bytes written.
fn flush_wal<'a>(
    wal: &mut File,
    batch: impl Iterator<Item = &'a WalEntry>,
    faults: &mut IoFaults,
) -> Result<u64> {
    let mut bytes = Vec::new();
    for entry in batch {
        bytes.extend_from_slice(&wal::encode_record(entry));
    }
    if bytes.is_empty() {
        return Ok(0);
    }
    faults.tick()?;
    wal.write_all(&bytes)?;
    faults.tick()?;
    wal.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Extracts the epoch from `rel-<hex>-<i>.seg` / `wal-<hex>.log` file
/// names.
fn parse_epoch(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("rel-")
        .or_else(|| name.strip_prefix("wal-"))?;
    u64::from_str_radix(rest.get(..16)?, 16).ok()
}

/// Fallback epoch detection when the manifest is unreadable: the highest
/// epoch any file name mentions (so a fresh checkpoint never reuses a
/// possibly-littered epoch).
fn detect_epoch(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(parse_epoch))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::RelationKind;

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

    /// Splits a `snapshot::save` buffer into its length-prefixed images.
    fn snapshot_images(mut buf: &[u8]) -> Vec<Vec<u8>> {
        let mut images = Vec::new();
        while !buf.is_empty() {
            let (len, rest) = buf.split_at(4);
            let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
            images.push(rest[..len].to_vec());
            buf = &rest[len..];
        }
        images
    }

    /// One format: the committed segment files and the payload of the
    /// WAL's opening Meta record are byte-equal to the images inside
    /// `snapshot::save`, and recovering from disk restores the same peer
    /// as loading the snapshot.
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
        let images = snapshot_images(&saved);
        let manifest = eng.manifest().unwrap();
        let on_disk = |file: &str| fs::read(eng.dir().join(file)).unwrap();
        let log = wal::scan(&on_disk(&manifest.wal_file), &manifest.wal_file).unwrap();
        assert_eq!(log.records, vec![WalEntry::Meta(images[0].clone())]);
        assert_eq!(manifest.segments.len(), images.len() - 1);
        for ((_, file), image) in manifest.segments.iter().zip(&images[1..]) {
            assert_eq!(&on_disk(file), image, "{file}");
        }
        let mut in_dir: Vec<String> = fs::read_dir(eng.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let mut committed: Vec<String> = manifest.segments.iter().map(|(_, f)| f.clone()).collect();
        committed.extend([manifest.wal_file.clone(), MANIFEST_FILE.into()]);
        in_dir.sort();
        committed.sort();
        assert_eq!(
            in_dir, committed,
            "a checkpoint is its segments, its WAL and the manifest"
        );

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

    /// A structural change is one Meta record ahead of its commit's rows,
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
        assert_eq!(eng.wal_stats().0, 2, "one Meta record, then the row");
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.wal_stats().0, 2, "clean empty sync is a no-op");

        let file = eng.manifest().unwrap().wal_file;
        let log = wal::scan(&fs::read(eng.dir().join(&file)).unwrap(), &file).unwrap();
        assert!(matches!(
            &log.records[..],
            [WalEntry::Meta(_), WalEntry::Meta(image), WalEntry::Fact(_)] if *image == write_meta(&p)
        ));
        let q = Engine::open(&cfg, name).unwrap().recover().unwrap();
        assert_eq!(q.relation_facts("album"), p.relation_facts("album"));
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

            let lost = eng.simulate_crash(seed);
            assert!(lost.is_empty(), "acked batch is not lost");
            let mut eng2 = Engine::open(&cfg, name).unwrap();
            let q = eng2.recover().expect("recovery after simulated crash");
            assert_eq!(
                q.relation_facts("pictures").len(),
                2,
                "seed {seed} lost acked facts"
            );
            let _ = fs::remove_dir_all(&root);
        }
    }
}

//! The per-peer storage engine: checkpoint + WAL + recovery.
//!
//! One [`Engine`] owns one peer's storage directory
//! (`<root>/<peer-name>/`). Its life cycle mirrors the durability seam:
//!
//! * [`Engine::record`] buffers a base change in memory — free, called
//!   from the hot mutation path.
//! * [`Engine::sync`] is the group commit, called at stage boundaries.
//!   It either appends the buffered batch to the WAL (one write + fsync)
//!   or, when structural state changed or the checkpoint policy fires,
//!   folds everything into a fresh checkpoint.
//! * [`Engine::checkpoint`] writes the peer image of
//!   [`wdl_net::snapshot`] — the meta image and one segment image per
//!   extensional relation, one file each — plus a fresh WAL under the
//!   next epoch, and commits them with an atomic manifest rename.
//! * [`Engine::recover`] rebuilds a peer: manifest → meta → segments
//!   (the same `read_meta` / `read_segment` / `import_extensional` calls
//!   as `snapshot::load`) → WAL tail replayed through
//!   `insert_local`/`delete_local` (the incremental-maintenance path),
//!   truncating at the first torn record.
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

/// A buffered-but-not-yet-durable entry (alias of the WAL entry — the
/// buffer is exactly the unwritten WAL suffix).
pub type BufferedRecord = WalEntry;

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

    /// The peer this engine stores.
    pub fn peer_name(&self) -> Symbol {
        self.peer
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

    /// Number of buffered (not yet durable) records.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
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

    /// Group commit. Chooses between a WAL append and a full checkpoint:
    /// structural changes (`meta_dirty`), a missing WAL (first sync, or
    /// post-crash), or the checkpoint policy thresholds force the latter.
    pub fn sync(&mut self, peer: &Peer, meta_dirty: bool) -> Result<()> {
        let policy_due = meta_dirty
            || self.wal_records + self.buffer.len() >= self.checkpoint_records
            || self.wal_bytes >= self.checkpoint_bytes;
        match self.wal.as_mut() {
            Some(wal) if !policy_due => {
                if !self.buffer.is_empty() {
                    self.wal_bytes += flush_wal(wal, &self.buffer, &mut self.faults)?;
                    self.wal_records += self.buffer.len();
                    self.buffer.clear();
                }
                Ok(())
            }
            _ => self.checkpoint(peer),
        }
    }

    /// Writes a full checkpoint of `peer` under the next epoch and
    /// commits it. The buffered records are *not* appended — the store
    /// they describe is already inside the segments being written.
    pub fn checkpoint(&mut self, peer: &Peer) -> Result<()> {
        let epoch = self.epoch + 1;

        let meta_file = format!("meta-{epoch:016x}.ck");
        self.write_file(&meta_file, &write_meta(peer))?;

        let mut segments = Vec::new();
        for (i, (rel, dump)) in peer.export_extensional().into_iter().enumerate() {
            let file = format!("rel-{epoch:016x}-{i}.seg");
            self.write_file(&file, &write_segment_bytes(rel, &dump))?;
            segments.push((rel, file));
        }

        let wal_file = format!("wal-{epoch:016x}.log");
        self.write_file(&wal_file, &wal::encode_header(epoch, self.peer))?;

        // The commit point: everything above is fsynced and unreferenced
        // until this rename lands.
        self.commit_manifest(&Manifest {
            epoch,
            meta_file,
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

    /// Rebuilds the peer from disk: committed checkpoint plus the valid
    /// WAL prefix, replayed through the incremental-maintenance path.
    /// Truncates a torn WAL tail so subsequent appends are clean.
    pub fn recover(&mut self) -> Result<Peer> {
        self.wal = None;
        self.buffer.clear();

        let manifest = self.manifest()?;
        let meta_bytes = self.read_ref(&manifest.meta_file)?;
        let mut peer = read_meta(&meta_bytes, "meta image")
            .map_err(StoreError::decoding(&manifest.meta_file))?;
        if peer.name() != self.peer {
            return Err(StoreError::corrupt(
                &manifest.meta_file,
                format!(
                    "meta checkpoint is for peer {}, this directory belongs to {}",
                    peer.name(),
                    self.peer
                ),
            ));
        }

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

        let wal_path = self.dir.join(&manifest.wal_file);
        let wal_bytes = self.read_ref(&manifest.wal_file)?;
        let tail = wal::scan(&wal_bytes, &manifest.wal_file)?;
        if tail.epoch != manifest.epoch {
            return Err(StoreError::corrupt(
                &manifest.wal_file,
                format!(
                    "wal is for epoch {}, manifest commits epoch {} (stale manifest or spliced log)",
                    tail.epoch, manifest.epoch
                ),
            ));
        }
        if tail.peer != self.peer {
            return Err(StoreError::corrupt(
                &manifest.wal_file,
                format!(
                    "wal belongs to peer {}, this directory belongs to {} (spliced log)",
                    tail.peer, self.peer
                ),
            ));
        }
        if tail.valid_len < wal_bytes.len() {
            let f = OpenOptions::new().write(true).open(&wal_path)?;
            f.set_len(tail.valid_len as u64)?;
            f.sync_all()?;
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
            }
        }

        self.wal = Some(OpenOptions::new().append(true).open(&wal_path)?);
        self.epoch = manifest.epoch;
        self.wal_records = tail.records.len();
        self.wal_bytes = (tail.valid_len - tail.header_len) as u64;
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

/// Appends `batch` to the open WAL as one write + fsync; returns the
/// bytes written.
fn flush_wal(wal: &mut File, batch: &[WalEntry], faults: &mut IoFaults) -> Result<u64> {
    let mut bytes = Vec::new();
    for rec in batch {
        bytes.extend_from_slice(&wal::encode_record(rec));
    }
    faults.tick()?;
    wal.write_all(&bytes)?;
    faults.tick()?;
    wal.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Extracts the epoch from `meta-<hex>.ck` / `rel-<hex>-<i>.seg` /
/// `wal-<hex>.log` file names.
fn parse_epoch(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("meta-")
        .or_else(|| name.strip_prefix("rel-"))
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

    /// One format: the committed checkpoint files are byte-equal to the
    /// images inside `snapshot::save`, and recovering from disk restores
    /// the same peer as loading the snapshot.
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
        p.install_delegation(Delegation::new(Symbol::intern("engp7origin"), name, rule));
        p.acl_mut().trust("engp7friend");
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Reject);
        p.grants_mut().restrict_read("pictures");
        p.grants_mut().grant_read("pictures", "engp7friend");
        p.grants_mut().declassify("view");
        p.note_session_watermark(Symbol::intern("engp7friend"), 0, 2, 9);

        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.checkpoint(&p).unwrap();
        let saved = snapshot::save(&p);
        let images = snapshot_images(&saved);
        let manifest = eng.manifest().unwrap();
        let on_disk = |file: &str| fs::read(eng.dir().join(file)).unwrap();
        assert_eq!(on_disk(&manifest.meta_file), images[0]);
        assert_eq!(manifest.segments.len(), images.len() - 1);
        for ((_, file), image) in manifest.segments.iter().zip(&images[1..]) {
            assert_eq!(&on_disk(file), image, "{file}");
        }

        let recovered = Engine::open(&cfg, name).unwrap().recover().unwrap();
        let loaded = snapshot::load(&saved).unwrap();
        let rules = |q: &Peer| q.rules().iter().map(|e| e.rule.clone()).collect::<Vec<_>>();
        for q in [&recovered, &loaded] {
            assert_eq!(q.export_extensional(), p.export_extensional());
            assert_eq!(rules(q), rules(&p));
            assert_eq!(q.installed_delegations(), p.installed_delegations());
            assert_eq!(q.acl().trusted_peers(), p.acl().trusted_peers());
            assert_eq!(q.acl().untrusted_policy(), p.acl().untrusted_policy());
            assert_eq!(q.grants().export(), p.grants().export());
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

    #[test]
    fn meta_dirty_forces_checkpoint() {
        let root = tmp_root("meta");
        let cfg = DurabilityConfig::new(&root);
        let name = Symbol::intern("engp3");
        let p = sample_peer("engp3");
        let mut eng = Engine::open(&cfg, name).unwrap();
        eng.sync(&p, true).unwrap();
        assert_eq!(eng.epoch(), 1);
        eng.sync(&p, true).unwrap();
        assert_eq!(eng.epoch(), 2);
        eng.sync(&p, false).unwrap();
        assert_eq!(eng.epoch(), 2, "clean empty sync is a no-op");
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

//! The checkpoint log: one file per checkpoint, `wal-<epoch>.log`, holding
//! the peer's snapshot image and every group commit since.
//!
//! ```text
//! header:     u32 magic "WWAL" | u8 version (3) | u64 epoch | str peer | u32 CRC
//! snapshot:   the image sequence of `wdl_net::snapshot::save` — the meta
//!             image, then one segment image per extensional relation,
//!             each prefixed by its u32 length
//! commit:     u32 len | u32 CRC | entry*          (one per group commit)
//! fact entry: u8 tag (1=insert, 0=delete) | str rel | u32 arity | values
//! mark entry: u8 tag (2) | str remote | u8 dir | u64 inc | u64 seq
//! meta entry: u8 tag (3) | u32 len | meta image
//! ```
//!
//! The header's epoch and peer name tie the log to its file name and its
//! directory — a log renamed from another epoch *or copied from another
//! peer's directory* is rejected outright, even when every byte after the
//! header is well-formed. The snapshot part is not framed again: each
//! image carries its own envelope CRC, and a cut or flip inside it is
//! corruption, because the file was fsynced whole before its rename
//! committed it. A group commit is one frame with its own length and CRC,
//! so a scan can tell exactly where durable history ends: the first frame
//! that is short, overlong, fails its CRC or does not decode marks the
//! **torn tail**, and recovery stops there. A frame is only ever torn if
//! the crash hit mid-append — before the group commit acked it — so
//! stopping never loses acknowledged state, and a commit is replayed
//! whole or not at all: never a watermark without the facts it covers,
//! nor a rule without the rows written beside it.
//!
//! Relations are stored *unqualified* (the log belongs to one peer; its
//! name is in the header), and values by content, as in segments: replay
//! re-interns into whatever the recovering process's interner looks like.

use crate::error::{Result, StoreError};
use bytes::{BufMut, BytesMut};
use wdl_datalog::{Symbol, Tuple, Value};
use wdl_net::codec::{put_str, put_value, Reader};
use wdl_net::snapshot::{crc32, read_images, Images};

/// Log file magic ("WWAL", little-endian).
const WAL_MAGIC: u32 = u32::from_le_bytes(*b"WWAL");
/// Log format version. v3 opened the log with the snapshot images and
/// made a group commit one frame; v2 logs, which opened with a Meta
/// record beside per-relation segment files, are rejected.
const WAL_VERSION: u8 = 3;

/// One logged base change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Unqualified relation name.
    pub rel: Symbol,
    /// The tuple that changed.
    pub tuple: Tuple,
    /// `true` for insert, `false` for delete.
    pub added: bool,
}

/// One logged entry: a base change, a session delivery watermark or the
/// peer's meta image.
///
/// Watermarks ride in the same commit as the facts they cover, so one
/// group commit makes both durable together — the session layer's ack can
/// then never advertise a delivery whose facts were lost, and recovery
/// never dedups a frame whose facts never made it to disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalEntry {
    /// An extensional base change.
    Fact(WalRecord),
    /// A session-layer watermark (see
    /// [`wdl_core::Peer::note_session_watermark`]).
    Watermark {
        /// The remote peer the watermark is about.
        remote: Symbol,
        /// Direction: `0` = delivered-from-remote, `1` = acked-by-remote.
        dir: u8,
        /// The incarnation the sequence number counts under.
        inc: u64,
        /// The cumulative sequence watermark.
        seq: u64,
    },
    /// The peer's meta image, leading each commit of a structural change.
    Meta(Vec<u8>),
}

/// A scanned log: its header, its snapshot images and the entries of its
/// whole commits.
#[derive(Debug)]
pub(crate) struct WalTail<'a> {
    /// Epoch from the header — must match the file name's.
    pub epoch: u64,
    /// Peer name from the header — must match the directory's owner.
    pub peer: Symbol,
    /// The checkpoint's snapshot images.
    pub snapshot: Images<'a>,
    /// Entries of the whole commits before the torn tail, if any, in
    /// append order.
    pub records: Vec<WalEntry>,
}

/// Encodes the header of a fresh log of the given epoch and peer.
pub(crate) fn encode_header(epoch: u64, peer: Symbol) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_u32_le(WAL_MAGIC);
    buf.put_u8(WAL_VERSION);
    buf.put_u64_le(epoch);
    put_str(&mut buf, peer.as_str());
    let mut out = Vec::from(buf);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Encodes one group commit as a frame (length prefix + CRC + entries);
/// `None` for an empty commit.
pub(crate) fn encode_commit<'a>(entries: impl Iterator<Item = &'a WalEntry>) -> Option<Vec<u8>> {
    let mut frame = BytesMut::with_capacity(64);
    frame.put_u64_le(0); // length and CRC, filled in below
    for entry in entries {
        put_entry(&mut frame, entry);
    }
    let mut frame = Vec::from(frame);
    let (head, payload) = frame.split_at_mut(8);
    if payload.is_empty() {
        return None;
    }
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Some(frame)
}

fn put_entry(buf: &mut BytesMut, entry: &WalEntry) {
    match entry {
        WalEntry::Fact(rec) => {
            buf.put_u8(u8::from(rec.added));
            put_str(buf, rec.rel.as_str());
            buf.put_u32_le(rec.tuple.len() as u32);
            for v in rec.tuple.iter() {
                put_value(buf, v);
            }
        }
        WalEntry::Watermark {
            remote,
            dir,
            inc,
            seq,
        } => {
            buf.put_u8(2);
            put_str(buf, remote.as_str());
            buf.put_u8(*dir);
            buf.put_u64_le(*inc);
            buf.put_u64_le(*seq);
        }
        WalEntry::Meta(image) => {
            buf.put_u8(3);
            buf.put_u32_le(image.len() as u32);
            buf.put_slice(image);
        }
    }
}

/// Decodes every entry of one commit's payload.
fn decode_commit(payload: &[u8]) -> std::result::Result<Vec<WalEntry>, wdl_net::NetError> {
    let mut r = Reader::new(payload);
    let mut entries = Vec::new();
    while !r.remaining().is_empty() {
        entries.push(match r.u8()? {
            tag @ (0 | 1) => {
                let rel = r.symbol()?;
                let arity = r.u32()? as usize;
                let mut values: Vec<Value> = Vec::with_capacity(arity.min(64));
                for _ in 0..arity {
                    values.push(r.value()?);
                }
                WalEntry::Fact(WalRecord {
                    rel,
                    tuple: values.into(),
                    added: tag == 1,
                })
            }
            2 => WalEntry::Watermark {
                remote: r.symbol()?,
                dir: r.u8()?,
                inc: r.u64()?,
                seq: r.u64()?,
            },
            // The image is checked where it is read, by `snapshot::read_meta`.
            3 => WalEntry::Meta(r.blob()?.to_vec()),
            t => return Err(wdl_net::NetError::Codec(format!("bad entry tag {t}"))),
        });
    }
    Ok(entries)
}

/// Splits the first commit off `bytes`: its entries and the frame's
/// length, or `None` if the frame is torn — short, failing its CRC or not
/// decoding.
fn split_commit(bytes: &[u8]) -> Option<(Vec<WalEntry>, usize)> {
    let mut r = Reader::new(bytes);
    let len = r.u32().ok()? as usize;
    let crc = r.u32().ok()?;
    let payload = r.remaining().get(..len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((decode_commit(payload).ok()?, 8 + len))
}

/// Scans a log file image: validates the header, splits the snapshot
/// images, then decodes commits up to the first torn one.
///
/// A bad header or snapshot part is unrecoverable corruption (the file
/// was fsynced whole before it was committed) and errors; a torn commit
/// just ends the tail.
pub(crate) fn scan<'a>(bytes: &'a [u8], file: &str) -> Result<WalTail<'a>> {
    let mut r = Reader::new(bytes);
    let header = |e: wdl_net::NetError| StoreError::corrupt(file, format!("log header: {e}"));
    let magic = r.u32().map_err(header)?;
    if magic != WAL_MAGIC {
        return Err(StoreError::corrupt(
            file,
            format!("log magic mismatch: got {magic:#010x}"),
        ));
    }
    let version = r.u8().map_err(header)?;
    if version != WAL_VERSION {
        return Err(StoreError::corrupt(
            file,
            format!("log version mismatch: got {version}, want {WAL_VERSION}"),
        ));
    }
    let epoch = r.u64().map_err(header)?;
    let peer = r.symbol().map_err(header)?;
    let covered = &bytes[..bytes.len() - r.remaining().len()];
    let stored = r.u32().map_err(header)?;
    let computed = crc32(covered);
    if stored != computed {
        return Err(StoreError::corrupt(
            file,
            format!("log header CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"),
        ));
    }
    let (snapshot, mut rest) = read_images(r.remaining())
        .map_err(|e| StoreError::corrupt(file, format!("snapshot: {e}")))?;

    let mut records = Vec::new();
    while let Some((entries, len)) = split_commit(rest) {
        records.extend(entries);
        rest = &rest[len..];
    }
    Ok(WalTail {
        epoch,
        peer,
        snapshot,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{Peer, RelationKind};
    use wdl_net::snapshot;

    fn commits() -> Vec<Vec<WalEntry>> {
        vec![
            vec![
                WalEntry::Meta(b"WMET-image".to_vec()),
                WalEntry::Fact(WalRecord {
                    rel: Symbol::intern("pictures"),
                    tuple: vec![Value::from(1), Value::from("a.jpg")].into(),
                    added: true,
                }),
            ],
            vec![
                WalEntry::Watermark {
                    remote: Symbol::intern("walremote"),
                    dir: 0,
                    inc: 3,
                    seq: 41,
                },
                WalEntry::Fact(WalRecord {
                    rel: Symbol::intern("album"),
                    tuple: vec![Value::bytes(&[9, 9])].into(),
                    added: false,
                }),
            ],
        ]
    }

    fn owner() -> Symbol {
        Symbol::intern("walpeer")
    }

    fn snapshot_part() -> Vec<u8> {
        let mut p = Peer::new(owner());
        p.declare("pictures", 2, RelationKind::Extensional).unwrap();
        p.insert_local("pictures", vec![Value::from(1), Value::from("a.jpg")])
            .unwrap();
        snapshot::save(&p).to_vec()
    }

    /// Header + snapshot: where the first commit starts.
    fn checkpoint_len() -> usize {
        encode_header(0, owner()).len() + snapshot_part().len()
    }

    fn file_image(epoch: u64, commits: &[Vec<WalEntry>]) -> Vec<u8> {
        let mut out = encode_header(epoch, owner());
        out.extend_from_slice(&snapshot_part());
        for c in commits {
            out.extend_from_slice(&encode_commit(c.iter()).unwrap());
        }
        out
    }

    #[test]
    fn round_trip() {
        let img = file_image(7, &commits());
        let tail = scan(&img, "w.log").unwrap();
        assert_eq!(tail.epoch, 7);
        assert_eq!(tail.peer, owner());
        assert_eq!(tail.snapshot.segments.len(), 1);
        assert_eq!(tail.records, commits().concat());
    }

    /// Every cut inside the header or the snapshot is an error; every cut
    /// after them recovers whole commits only.
    #[test]
    fn truncation_at_every_byte_never_panics_or_invents() {
        let img = file_image(3, &commits());
        let first_end = checkpoint_len() + encode_commit(commits()[0].iter()).unwrap().len();
        for cut in 0..img.len() {
            match scan(&img[..cut], "w.log") {
                Err(e) => assert!(cut < checkpoint_len(), "hard error at cut {cut}: {e}"),
                Ok(tail) => {
                    assert!(cut >= checkpoint_len(), "cut {cut} inside the snapshot");
                    let whole = usize::from(cut >= first_end);
                    assert_eq!(tail.records, commits()[..whole].concat(), "cut {cut}");
                }
            }
        }
    }

    #[test]
    fn mid_record_corruption_truncates_there() {
        let img = file_image(1, &commits());
        let mut bad = img.clone();
        // Flip a bit inside the first commit's payload.
        bad[checkpoint_len() + 9] ^= 0x80;
        let tail = scan(&bad, "w.log").unwrap();
        assert!(
            tail.records.is_empty(),
            "nothing after a torn commit replays"
        );
    }

    #[test]
    fn header_corruption_is_a_hard_error() {
        let img = file_image(1, &commits());
        for i in 0..encode_header(1, owner()).len() {
            let mut bad = img.clone();
            bad[i] ^= 0x01;
            assert!(scan(&bad, "w.log").is_err(), "byte {i}");
        }
    }

    #[test]
    fn another_peers_log_is_detected() {
        let mut img = encode_header(1, Symbol::intern("someoneElse"));
        img.extend_from_slice(&snapshot_part());
        let tail = scan(&img, "w.log").unwrap();
        assert_eq!(tail.peer, Symbol::intern("someoneElse"));
        assert_ne!(tail.peer, owner());
    }
}

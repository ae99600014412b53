//! The delta write-ahead log.
//!
//! Between checkpoints, every extensional base change (and every session
//! delivery watermark) appends one record:
//!
//! ```text
//! file header:  u32 magic "WWAL" | u8 version | u64 epoch | str peer | u32 CRC
//! record:       u32 payload-len  | u32 payload-CRC | payload
//! fact payload: u8 tag (1=insert, 0=delete) | str rel | u32 arity | values
//! mark payload: u8 tag (2)      | str remote | u8 dir | u64 inc | u64 seq
//! ```
//!
//! The header's epoch and peer name tie the log to the exact checkpoint
//! it extends — a WAL spliced in from another epoch *or another peer's
//! directory* (stale manifest, copied file) is rejected outright, even
//! when every record in it is individually well-formed. Records are framed with their own length and CRC so
//! a scan can tell exactly where durable history ends: the first record
//! that is short, overlong, or fails its CRC marks the **torn tail**, and
//! recovery truncates there. A record is only ever torn if the crash hit
//! mid-append — i.e. before the group commit acked it — so truncation
//! never loses acknowledged state.
//!
//! Relations are stored *unqualified* (the log belongs to one peer; its
//! name is in the meta checkpoint), and values by content, same argument
//! as segments: replay re-interns into whatever the recovering process's
//! interner looks like.

use crate::error::{Result, StoreError};
use bytes::{BufMut, BytesMut};
use wdl_datalog::{Symbol, Tuple, Value};
use wdl_net::codec::{put_str, put_value, Reader};
use wdl_net::snapshot::crc32;

/// WAL file magic ("WWAL", little-endian).
const WAL_MAGIC: u32 = u32::from_le_bytes(*b"WWAL");
/// WAL format version.
const WAL_VERSION: u8 = 1;
/// Fixed part of the file header: magic + version + epoch (the peer
/// name and CRC follow).
const WAL_FIXED_LEN: usize = 4 + 1 + 8;

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

/// One logged entry: a base change or a session delivery watermark.
///
/// Watermarks ride in the same log as the facts they cover, so one group
/// commit makes both durable together — the session layer's ack can then
/// never advertise a delivery whose facts were lost, and recovery never
/// dedups a frame whose facts never made it to disk.
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
}

/// Result of scanning a WAL file: the decodable prefix and where (and
/// why) it ends.
#[derive(Debug)]
pub struct WalTail {
    /// Epoch from the header — must match the manifest's.
    pub epoch: u64,
    /// Peer name from the header — must match the directory's owner.
    pub peer: Symbol,
    /// Entries of the valid prefix, in append order.
    pub records: Vec<WalEntry>,
    /// Byte length of the header (where records start).
    pub header_len: usize,
    /// Byte length of the valid prefix (truncate the file to this).
    pub valid_len: usize,
    /// Why the scan stopped early, if it did (torn or corrupt tail).
    pub torn: Option<String>,
}

/// Encodes the file header for a fresh WAL of the given epoch and peer.
pub(crate) fn encode_header(epoch: u64, peer: Symbol) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(WAL_FIXED_LEN + 16);
    buf.put_u32_le(WAL_MAGIC);
    buf.put_u8(WAL_VERSION);
    buf.put_u64_le(epoch);
    put_str(&mut buf, peer.as_str());
    let body = buf.freeze().to_vec();
    let mut out = body.clone();
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

/// Encodes one framed record (length prefix + CRC + payload).
pub(crate) fn encode_record(entry: &WalEntry) -> Vec<u8> {
    let mut payload = BytesMut::with_capacity(32);
    match entry {
        WalEntry::Fact(rec) => {
            payload.put_u8(u8::from(rec.added));
            put_str(&mut payload, rec.rel.as_str());
            payload.put_u32_le(rec.tuple.len() as u32);
            for v in rec.tuple.iter() {
                put_value(&mut payload, v);
            }
        }
        WalEntry::Watermark {
            remote,
            dir,
            inc,
            seq,
        } => {
            payload.put_u8(2);
            put_str(&mut payload, remote.as_str());
            payload.put_u8(*dir);
            payload.put_u64_le(*inc);
            payload.put_u64_le(*seq);
        }
    }
    let payload = payload.freeze().to_vec();
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_payload(payload: &[u8], file: &str) -> Result<WalEntry> {
    let mut r = Reader::new(payload);
    let err = |e: wdl_net::NetError| StoreError::corrupt(file, format!("wal record: {e}"));
    let entry = match r.u8().map_err(err)? {
        tag @ (0 | 1) => {
            let rel = r.symbol().map_err(err)?;
            let arity = r.u32().map_err(err)? as usize;
            let mut values: Vec<Value> = Vec::with_capacity(arity.min(64));
            for _ in 0..arity {
                values.push(r.value().map_err(err)?);
            }
            WalEntry::Fact(WalRecord {
                rel,
                tuple: values.into(),
                added: tag == 1,
            })
        }
        2 => {
            let remote = r.symbol().map_err(err)?;
            let dir = r.u8().map_err(err)?;
            let inc = r.u64().map_err(err)?;
            let seq = r.u64().map_err(err)?;
            WalEntry::Watermark {
                remote,
                dir,
                inc,
                seq,
            }
        }
        t => {
            return Err(StoreError::corrupt(
                file,
                format!("wal record: bad tag {t}"),
            ))
        }
    };
    r.expect_end().map_err(err)?;
    Ok(entry)
}

/// Scans a WAL file image: validates the header, decodes records until
/// the first torn/corrupt one, and reports where the valid prefix ends.
///
/// A bad *header* is unrecoverable corruption (the whole file is
/// untrustworthy) and errors; a bad *record* just ends the tail.
pub(crate) fn scan(bytes: &[u8], file: &str) -> Result<WalTail> {
    if bytes.len() < WAL_FIXED_LEN + 4 {
        return Err(StoreError::corrupt(
            file,
            format!("wal header truncated ({} bytes)", bytes.len()),
        ));
    }
    let magic = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if magic != WAL_MAGIC {
        return Err(StoreError::corrupt(
            file,
            format!("wal magic mismatch: got {magic:#010x}"),
        ));
    }
    if bytes[4] != WAL_VERSION {
        return Err(StoreError::corrupt(
            file,
            format!("wal version mismatch: got {}", bytes[4]),
        ));
    }
    let epoch = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
    let name_len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
    let header_len = WAL_FIXED_LEN + 4 + name_len + 4;
    if bytes.len() < header_len {
        return Err(StoreError::corrupt(
            file,
            format!("wal header truncated ({} bytes)", bytes.len()),
        ));
    }
    let peer = std::str::from_utf8(&bytes[17..17 + name_len])
        .map_err(|_| StoreError::corrupt(file, "wal peer name is not utf-8"))?;
    let peer = Symbol::intern(peer);
    let stored = u32::from_le_bytes(bytes[header_len - 4..header_len].try_into().unwrap());
    let computed = crc32(&bytes[..header_len - 4]);
    if stored != computed {
        return Err(StoreError::corrupt(
            file,
            format!("wal header CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"),
        ));
    }

    let mut records = Vec::new();
    let mut offset = header_len;
    let mut torn = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            torn = Some(format!("torn frame header at byte {offset}"));
            break;
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if rest.len() < 8 + len {
            torn = Some(format!(
                "torn record at byte {offset}: {len}-byte payload, {} present",
                rest.len() - 8
            ));
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != want_crc {
            torn = Some(format!("record CRC mismatch at byte {offset}"));
            break;
        }
        match decode_payload(payload, file) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                torn = Some(format!("undecodable record at byte {offset}: {e}"));
                break;
            }
        }
        offset += 8 + len;
    }
    Ok(WalTail {
        epoch,
        peer,
        records,
        header_len,
        valid_len: offset,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs() -> Vec<WalEntry> {
        vec![
            WalEntry::Fact(WalRecord {
                rel: Symbol::intern("pictures"),
                tuple: vec![Value::from(1), Value::from("a.jpg")].into(),
                added: true,
            }),
            WalEntry::Fact(WalRecord {
                rel: Symbol::intern("album"),
                tuple: vec![Value::bytes(&[9, 9])].into(),
                added: false,
            }),
            WalEntry::Watermark {
                remote: Symbol::intern("walremote"),
                dir: 0,
                inc: 3,
                seq: 41,
            },
        ]
    }

    fn owner() -> Symbol {
        Symbol::intern("walpeer")
    }

    fn header_len() -> usize {
        encode_header(0, owner()).len()
    }

    fn file_image(epoch: u64, records: &[WalEntry]) -> Vec<u8> {
        let mut out = encode_header(epoch, owner());
        for r in records {
            out.extend_from_slice(&encode_record(r));
        }
        out
    }

    #[test]
    fn round_trip() {
        let img = file_image(7, &recs());
        let tail = scan(&img, "w.log").unwrap();
        assert_eq!(tail.epoch, 7);
        assert_eq!(tail.peer, owner());
        assert_eq!(tail.records, recs());
        assert_eq!(tail.header_len, header_len());
        assert_eq!(tail.valid_len, img.len());
        assert!(tail.torn.is_none());
    }

    #[test]
    fn truncation_at_every_byte_never_panics_or_invents() {
        let img = file_image(3, &recs());
        let hlen = header_len();
        let first_len = encode_record(&recs()[0]).len();
        for cut in 0..img.len() {
            match scan(&img[..cut], "w.log") {
                Err(e) => {
                    // Only header damage may hard-error.
                    assert!(cut < hlen, "hard error at cut {cut}: {e}");
                }
                Ok(tail) => {
                    assert!(cut >= hlen);
                    // The valid prefix is a prefix of the true records.
                    assert!(tail.records.len() <= 3);
                    assert_eq!(tail.records, recs()[..tail.records.len()]);
                    assert!(tail.valid_len <= cut);
                    if cut < hlen + first_len {
                        assert!(tail.records.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn mid_record_corruption_truncates_there() {
        let img = file_image(1, &recs());
        let mut bad = img.clone();
        // Flip a bit inside the first record's payload.
        bad[header_len() + 9] ^= 0x80;
        let tail = scan(&bad, "w.log").unwrap();
        assert!(tail.records.is_empty());
        assert_eq!(tail.valid_len, header_len());
        assert!(tail.torn.is_some());
    }

    #[test]
    fn header_corruption_is_a_hard_error() {
        let img = file_image(1, &recs());
        for i in 0..header_len() {
            let mut bad = img.clone();
            bad[i] ^= 0x01;
            assert!(scan(&bad, "w.log").is_err(), "byte {i}");
        }
    }

    #[test]
    fn another_peers_log_is_detected() {
        let mut img = encode_header(1, Symbol::intern("someoneElse"));
        img.extend_from_slice(&encode_record(&recs()[0]));
        let tail = scan(&img, "w.log").unwrap();
        assert_eq!(tail.peer, Symbol::intern("someoneElse"));
        assert_ne!(tail.peer, owner());
    }
}

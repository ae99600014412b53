//! The manifest: the atomic commit point of a checkpoint.
//!
//! A checkpoint writes every segment and a fresh WAL (opening with the
//! peer's Meta record) under epoch-unique names, fsyncs them, then writes
//! `MANIFEST.tmp` and renames it over [`MANIFEST_FILE`]. The rename is the commit: before
//! it, recovery sees the old manifest and ignores the half-written new
//! epoch; after it, the new epoch is fully referenced. Stale files from
//! older epochs are deleted only after the rename lands.
//!
//! ```text
//! u32 magic "WMAN" | u8 version | u64 epoch
//! u32 #segments | (str rel, str file)*
//! str wal-file
//! u32 CRC-32
//! ```

use crate::error::{Result, StoreError};
use bytes::BufMut;
use wdl_datalog::Symbol;
use wdl_net::codec::{put_str, Reader};
use wdl_net::snapshot::{begin_envelope, check_envelope, seal_envelope};

/// Name of the committed manifest inside a peer's storage directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Manifest magic ("WMAN", little-endian).
const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"WMAN");

/// What a committed checkpoint consists of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint epoch; strictly increasing per peer.
    pub epoch: u64,
    /// `(unqualified relation, segment file name)`, sorted by relation.
    pub segments: Vec<(Symbol, String)>,
    /// WAL file extending this checkpoint.
    pub wal_file: String,
}

impl Manifest {
    /// Encodes the manifest as a file image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = begin_envelope(MANIFEST_MAGIC, 128);
        buf.put_u64_le(self.epoch);
        buf.put_u32_le(self.segments.len() as u32);
        for (rel, file) in &self.segments {
            put_str(&mut buf, rel.as_str());
            put_str(&mut buf, file);
        }
        put_str(&mut buf, &self.wal_file);
        seal_envelope(buf)
    }

    /// Decodes and validates a manifest file image.
    pub fn decode(bytes: &[u8], file: &str) -> Result<Manifest> {
        let err = StoreError::decoding(file);
        let mut r = Reader::new(check_envelope(bytes, MANIFEST_MAGIC, "manifest").map_err(err)?);
        let epoch = r.u64().map_err(err)?;
        let n = r.len().map_err(err)?;
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            let rel = r.symbol().map_err(err)?;
            let file_name = r.str().map_err(err)?.to_string();
            segments.push((rel, file_name));
        }
        let wal_file = r.str().map_err(err)?.to_string();
        r.expect_end().map_err(err)?;
        Ok(Manifest {
            epoch,
            segments,
            wal_file,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            epoch: 42,
            segments: vec![
                (Symbol::intern("album"), "rel-000000000000002a-0.seg".into()),
                (
                    Symbol::intern("pictures"),
                    "rel-000000000000002a-1.seg".into(),
                ),
            ],
            wal_file: "wal-000000000000002a.log".into(),
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode(), "MANIFEST").unwrap(), m);
    }

    #[test]
    fn rejects_flips_and_cuts() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad, "MANIFEST").is_err(), "flip {i}");
        }
        for cut in 0..bytes.len() {
            assert!(
                Manifest::decode(&bytes[..cut], "MANIFEST").is_err(),
                "cut {cut}"
            );
        }
    }

    /// A manifest from before the meta file went (it named one after the
    /// epoch) never decodes: the name's length reads as a segment count
    /// and its first bytes as a length far past the end.
    #[test]
    fn manifest_naming_a_meta_file_is_rejected() {
        let mut buf = begin_envelope(MANIFEST_MAGIC, 64);
        buf.put_u64_le(42);
        put_str(&mut buf, "meta-000000000000002a.ck");
        buf.put_u32_le(0);
        put_str(&mut buf, "wal-000000000000002a.log");
        assert!(Manifest::decode(&seal_envelope(buf), "MANIFEST").is_err());
    }
}

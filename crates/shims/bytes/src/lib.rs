//! Offline stand-in for `bytes`: the little-endian put/get subset the wire
//! codec uses, over plain `Vec<u8>` storage.

use std::ops::Deref;

/// Immutable byte buffer (here: an owned `Vec<u8>`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(v)
    }
}

/// Growable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.0
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Write-side trait mirroring `bytes::BufMut` (LE subset).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian i64.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read-side trait mirroring `bytes::Buf` (LE subset). Implemented for
/// `&[u8]`, advancing the slice as values are read. Panics when the source
/// is too short, exactly like the real crate — callers bounds-check first.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// Reads raw bytes into `dst`.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Reads a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Reads a little-endian i64.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.len() >= dst.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_i64_le(-5);
        buf.put_slice(b"hi");
        let frozen = buf.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r, b"hi");
    }
}

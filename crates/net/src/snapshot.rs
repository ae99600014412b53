//! The peer image: the one byte format a persisted peer lives in.
//!
//! Users "launch their customized peers on their machines with their own
//! personal data" (paper §1) — so a peer must survive process restarts.
//! Every path that persists a peer writes the same two images, each in
//! one envelope, `u32 magic · u8 version · body · u32 CRC-32`:
//!
//! * the **meta image** (`"WMET"`) is the peer's structural state,
//!   encoded straight from the [`Peer`]'s getters and decoded straight
//!   back through `declare` / `add_rule` / `install_delegation` /
//!   `acl_mut` / `restore_session_watermark`:
//!
//!   ```text
//!   str  peer name
//!   u32  #decls        then (str rel, u32 arity, u8 kind)*   sorted by rel
//!   u32  #rules        then codec rules, in id order
//!   u32  #delegations  then codec delegations installed here
//!   policy: the peer's whole `AccessControl`
//!     u32  #trusted      then str peer*                    sorted
//!     u8   untrusted policy (0 queue, 1 accept, 2 reject)
//!     u32  #read grants  then (str rel, u32 #peers, str peer*)*   sorted
//!     u32  #write grants then (str rel, u32 #peers, str peer*)*   sorted
//!     u32  #declassified then str view*                    sorted
//!     u32  #pending      then (codec delegation, u64 received stage)*
//!                                                          oldest first
//!   u32  #watermarks   then (str remote, u8 dir, u64 inc, u64 seq)*
//!   ```
//!
//! * a **segment image** (`"WSEG"`) is one extensional relation frozen as
//!   columns:
//!
//!   ```text
//!   str  relation (unqualified)
//!   u32  arity               u32  rows
//!   u32  #values  then that many codec values   ← the interner slice the
//!   u32  #cells   then that many u32 LE cells   ← relation references
//!   ```
//!
//!   The value table is the slice of the process interner the relation's
//!   tuples reference, in first-use order; the cells are fixed-width
//!   indexes into it (see [`wdl_datalog::ColumnExport`]). Values stored by
//!   *content* and ids by *local index* make segments process-independent:
//!   loading re-interns every value, so an image written in one process
//!   loads correctly into another whose interner assigned different ids.
//!
//! A **snapshot** ([`save`]/[`load`]) is the image sequence: the meta
//! image followed by one segment image per extensional relation, each
//! prefixed by its `u32` length. One writer ([`write_images`]) and one
//! reader ([`read_images`] + [`import_segments`]) serve both the `.snap`
//! buffer and the storage engine (`wdl-store`), whose checkpoint log
//! `wal-<epoch>.log` holds exactly these bytes between its header and its
//! first commit — a snapshot is a checkpoint without the log around it.
//! The meta image's schema fixes how many segments follow, so a snapshot
//! cut at an image boundary is rejected like any other truncation.
//!
//! Loading moves each decoded segment into the peer's view as its
//! relation ([`Peer::import_extensional`]), so a row is inserted once, by
//! the decode, and the first stage's rebuild takes the relations as they
//! are. Transient state — in-flight messages, per-stage diffs, remote
//! contributions and derived facts — is not in the image: a restored peer
//! re-derives its views at its first stage and its correspondents' diff
//! protocols resynchronize from their side. Runtime settings
//! (compiled-vs-interpreted stage engine, trace sink) are not state
//! either: a restored peer comes back on the defaults.

use crate::codec::{put_delegation, put_rule, put_str, put_symbol, put_value, Reader};
use crate::NetError;
use bytes::{BufMut, Bytes, BytesMut};
use std::convert::Infallible;
use wdl_core::acl::UntrustedPolicy;
use wdl_core::{AccessControl, Peer, RelationDecl, RelationKind, WdlError};
use wdl_datalog::{ColumnExport, Symbol};

/// Version of every envelope, the meta and segment images. v3 added the
/// approval queue to the meta image's policy section; v2 had dropped the
/// nested snapshot header and the (always empty) fact list. Older images
/// are rejected.
pub const FORMAT_VERSION: u8 = 3;
/// Meta image magic ("WMET", little-endian).
const META_MAGIC: u32 = u32::from_le_bytes(*b"WMET");
/// Segment image magic ("WSEG", little-endian).
const SEG_MAGIC: u32 = u32::from_le_bytes(*b"WSEG");

/// Serializes a peer: the image sequence of [`write_images`] in one
/// buffer.
pub fn save(peer: &Peer) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024);
    let Ok(()) = write_images::<Infallible>(peer, |bytes| {
        buf.put_slice(bytes);
        Ok(())
    });
    buf.freeze()
}

/// Writes a peer's image sequence through `put`, one piece at a time:
/// each image's `u32` length, then the image — the meta image first, then
/// one segment image per [`Peer::export_extensional`] entry. Each image
/// is encoded when its turn comes, so no buffer holds more than one.
pub fn write_images<E>(peer: &Peer, mut put: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
    let mut put_image = |image: &[u8]| {
        put(&(image.len() as u32).to_le_bytes())?;
        put(image)
    };
    put_image(&write_meta(peer))?;
    for (rel, dump) in peer.export_extensional() {
        put_image(&write_segment_bytes(rel, &dump))?;
    }
    Ok(())
}

/// A peer's image sequence, split but not yet decoded.
#[derive(Debug)]
pub struct Images<'a> {
    /// The meta image.
    pub meta: &'a [u8],
    /// One segment image per extensional relation the meta image declares.
    pub segments: Vec<&'a [u8]>,
}

/// Splits the image sequence at the head of `data`; returns it and the
/// bytes after it.
pub fn read_images(data: &[u8]) -> Result<(Images<'_>, &[u8]), NetError> {
    let mut r = Reader::new(data);
    let meta = r.blob()?;
    let relations = extensional_count(meta)?;
    let segments = (0..relations)
        .map(|_| r.blob())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((Images { meta, segments }, r.remaining()))
}

/// Decodes segment images into `peer`, whose schema must declare their
/// relations.
pub fn import_segments(peer: &mut Peer, segments: &[&[u8]]) -> Result<(), NetError> {
    for image in segments {
        let (rel, dump) = read_segment(image, "snapshot segment")?;
        peer.import_extensional(rel, &dump)
            .map_err(rejected("snapshot segment"))?;
    }
    Ok(())
}

/// Deserializes a snapshot back into a runnable peer. Never panics: a
/// truncated, bit-flipped or foreign buffer, or one with bytes after its
/// last image, is an error.
pub fn load(data: &[u8]) -> Result<Peer, NetError> {
    let (images, rest) = read_images(data)?;
    Reader::new(rest).expect_end()?;
    let mut peer = read_meta(images.meta, "snapshot meta")?;
    import_segments(&mut peer, &images.segments)?;
    Ok(peer)
}

/// Writes a snapshot to a file.
pub fn save_to_file(peer: &Peer, path: impl AsRef<std::path::Path>) -> Result<(), NetError> {
    std::fs::write(path, save(peer))?;
    Ok(())
}

/// Restores a peer from a snapshot file.
pub fn load_from_file(path: impl AsRef<std::path::Path>) -> Result<Peer, NetError> {
    let data = std::fs::read(path)?;
    load(&data)
}

/// Encodes the peer's structural state as a meta image.
pub fn write_meta(peer: &Peer) -> Vec<u8> {
    let mut buf = begin_envelope(META_MAGIC, 1024);
    put_symbol(&mut buf, peer.name());

    let mut decls: Vec<&RelationDecl> = peer.schema().iter().collect();
    decls.sort_by_key(|d| d.rel.as_str());
    buf.put_u32_le(decls.len() as u32);
    for d in decls {
        put_symbol(&mut buf, d.rel);
        buf.put_u32_le(d.arity as u32);
        buf.put_u8(match d.kind {
            RelationKind::Extensional => 0,
            RelationKind::Intensional => 1,
        });
    }

    buf.put_u32_le(peer.rules().len() as u32);
    for entry in peer.rules() {
        put_rule(&mut buf, &entry.rule);
    }

    buf.put_u32_le(peer.installed_delegations().len() as u32);
    for d in peer.installed_delegations() {
        put_delegation(&mut buf, d);
    }

    put_policy(&mut buf, peer.acl());

    let watermarks = peer.session_watermarks();
    buf.put_u32_le(watermarks.len() as u32);
    for (&(remote, dir), &(inc, seq)) in watermarks {
        put_symbol(&mut buf, remote);
        buf.put_u8(dir);
        buf.put_u64_le(inc);
        buf.put_u64_le(seq);
    }

    seal_envelope(buf)
}

/// Encodes a peer's whole access policy (the meta image's policy
/// section).
fn put_policy(buf: &mut BytesMut, acl: &AccessControl) {
    put_symbols(buf, &acl.trusted_peers());
    buf.put_u8(match acl.untrusted_policy() {
        UntrustedPolicy::Queue => 0,
        UntrustedPolicy::Accept => 1,
        UntrustedPolicy::Reject => 2,
    });
    for grants in [acl.read_grants(), acl.write_grants()] {
        buf.put_u32_le(grants.len() as u32);
        for (rel, peers) in grants {
            put_symbol(buf, rel);
            put_symbols(buf, &peers);
        }
    }
    put_symbols(buf, &acl.declassified());
    buf.put_u32_le(acl.pending().len() as u32);
    for p in acl.pending() {
        put_delegation(buf, &p.delegation);
        buf.put_u64_le(p.received_stage);
    }
}

fn put_symbols(buf: &mut BytesMut, symbols: &[Symbol]) {
    buf.put_u32_le(symbols.len() as u32);
    for &s in symbols {
        put_symbol(buf, s);
    }
}

/// Decodes a meta image straight into a peer with no extensional rows;
/// its segments are imported next. `label` names the image in errors.
pub fn read_meta(bytes: &[u8], label: &str) -> Result<Peer, NetError> {
    let mut r = Reader::new(check_envelope(bytes, META_MAGIC, label)?);
    let engine = rejected(label);
    let mut peer = Peer::new(r.symbol()?);
    for (rel, arity, kind) in read_decls(&mut r)? {
        peer.declare(rel, arity, kind).map_err(&engine)?;
    }
    for _ in 0..r.len()? {
        peer.add_rule(r.rule()?).map_err(&engine)?;
    }
    for _ in 0..r.len()? {
        peer.install_delegation(r.delegation()?).map_err(&engine)?;
    }
    *peer.acl_mut() = read_policy(&mut r)?;

    for _ in 0..r.len()? {
        let remote = r.symbol()?;
        let dir = r.u8()?;
        let inc = r.u64()?;
        let seq = r.u64()?;
        peer.restore_session_watermark(remote, dir, inc, seq);
    }
    r.expect_end()?;
    Ok(peer)
}

/// The number of extensional relations a meta image declares: how many
/// segment images follow it in the image sequence.
fn extensional_count(meta: &[u8]) -> Result<usize, NetError> {
    let mut r = Reader::new(check_envelope(meta, META_MAGIC, "snapshot meta")?);
    r.symbol()?;
    let decls = read_decls(&mut r)?;
    Ok(decls
        .iter()
        .filter(|(_, _, kind)| *kind == RelationKind::Extensional)
        .count())
}

/// Decodes the meta image's declarations section.
fn read_decls(r: &mut Reader<'_>) -> Result<Vec<(Symbol, usize, RelationKind)>, NetError> {
    let n = r.len()?;
    let mut decls = Vec::with_capacity(n);
    for _ in 0..n {
        let rel = r.symbol()?;
        let arity = r.u32()? as usize;
        let kind = match r.u8()? {
            0 => RelationKind::Extensional,
            1 => RelationKind::Intensional,
            t => return Err(NetError::Codec(format!("bad relation kind {t}"))),
        };
        decls.push((rel, arity, kind));
    }
    Ok(decls)
}

/// Decodes the policy section [`put_policy`] wrote.
fn read_policy(r: &mut Reader<'_>) -> Result<AccessControl, NetError> {
    let mut acl = AccessControl::new();
    for _ in 0..r.len()? {
        acl.trust(r.symbol()?);
    }
    acl.set_untrusted_policy(match r.u8()? {
        0 => UntrustedPolicy::Queue,
        1 => UntrustedPolicy::Accept,
        2 => UntrustedPolicy::Reject,
        t => return Err(NetError::Codec(format!("bad policy tag {t}"))),
    });
    for _ in 0..r.len()? {
        let rel = r.symbol()?;
        acl.restrict_read(rel);
        for _ in 0..r.len()? {
            acl.grant_read(rel, r.symbol()?);
        }
    }
    for _ in 0..r.len()? {
        let rel = r.symbol()?;
        acl.restrict_write(rel);
        for _ in 0..r.len()? {
            acl.grant_write(rel, r.symbol()?);
        }
    }
    for _ in 0..r.len()? {
        acl.declassify(r.symbol()?);
    }
    for _ in 0..r.len()? {
        let delegation = r.delegation()?;
        delegation
            .rule
            .validate()
            .map_err(rejected("pending delegation"))?;
        acl.push_pending(delegation, r.u64()?);
    }
    Ok(acl)
}

/// Maps an engine rejection of a decoded image to a codec error.
fn rejected(label: &str) -> impl Fn(WdlError) -> NetError + '_ {
    move |e| NetError::Codec(format!("{label} rejected by engine: {e}"))
}

/// Encodes one relation's column dump as a segment image.
pub fn write_segment_bytes(rel: Symbol, dump: &ColumnExport) -> Vec<u8> {
    let mut buf = begin_envelope(SEG_MAGIC, 64 + dump.cells.len() * 4);
    put_str(&mut buf, rel.as_str());
    buf.put_u32_le(dump.arity as u32);
    buf.put_u32_le(dump.rows as u32);
    buf.put_u32_le(dump.values.len() as u32);
    for v in &dump.values {
        put_value(&mut buf, v);
    }
    buf.put_u32_le(dump.cells.len() as u32);
    for &c in &dump.cells {
        buf.put_u32_le(c);
    }
    seal_envelope(buf)
}

/// Decodes a segment image. `label` names the image in errors.
pub fn read_segment(bytes: &[u8], label: &str) -> Result<(Symbol, ColumnExport), NetError> {
    let mut r = Reader::new(check_envelope(bytes, SEG_MAGIC, label)?);
    let rel = r.symbol()?;
    let arity = r.u32()? as usize;
    let rows = r.u32()? as usize;
    let nvalues = r.len()?;
    let mut values = Vec::with_capacity(nvalues);
    for _ in 0..nvalues {
        values.push(r.value()?);
    }
    let ncells = r.len()?;
    if ncells != rows.saturating_mul(arity) {
        return Err(NetError::Codec(format!(
            "{label}: cell count {ncells} does not match {rows} rows × {arity} columns"
        )));
    }
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        cells.push(r.u32()?);
    }
    r.expect_end()?;
    Ok((
        rel,
        ColumnExport {
            arity,
            rows,
            values,
            cells,
        },
    ))
}

/// Starts an envelope: `magic` and [`FORMAT_VERSION`], ready for a body.
fn begin_envelope(magic: u32, capacity: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(capacity + 9);
    buf.put_u32_le(magic);
    buf.put_u8(FORMAT_VERSION);
    buf
}

/// Ends an envelope: appends the CRC-32 of everything written so far.
fn seal_envelope(buf: BytesMut) -> Vec<u8> {
    let mut out = Vec::from(buf);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates an envelope's magic, version and CRC trailer and returns
/// its body (between the version byte and the trailer). `label` names
/// the image in errors.
fn check_envelope<'a>(bytes: &'a [u8], magic: u32, label: &str) -> Result<&'a [u8], NetError> {
    let corrupt = |detail: String| Err(NetError::Codec(format!("{label}: {detail}")));
    if bytes.len() < 9 {
        return corrupt(format!("too short ({} bytes)", bytes.len()));
    }
    let (head, trailer) = bytes.split_at(bytes.len() - 4);
    let got_magic = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    if got_magic != magic {
        return corrupt(format!(
            "magic mismatch: got {got_magic:#010x}, want {magic:#010x}"
        ));
    }
    if head[4] != FORMAT_VERSION {
        return corrupt(format!(
            "version mismatch: got {}, want {FORMAT_VERSION}",
            head[4]
        ));
    }
    let want = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let got = crc32(head);
    if got != want {
        return corrupt(format!(
            "CRC mismatch: computed {got:#010x}, stored {want:#010x}"
        ));
    }
    Ok(&head[5..])
}

/// 256-entry lookup table for the reflected IEEE polynomial `0xEDB88320`,
/// built at compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 checksum of `data` (IEEE, as used by zlib/gzip/ethernet). Every
/// on-disk unit — image, log header, group commit — carries one so a
/// reader can tell a torn or bit-flipped unit from valid data.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdl_core::{Delegation, WAtom, WRule};
    use wdl_datalog::{Term, Value};

    fn sample_peer() -> Peer {
        let mut p = Peer::new("snap-sample");
        p.declare("pictures", 4, RelationKind::Extensional).unwrap();
        p.declare("view", 2, RelationKind::Intensional).unwrap();
        p.declare("attendeePictures", 4, RelationKind::Intensional)
            .unwrap();
        p.insert_local(
            "pictures",
            vec![
                Value::from(1),
                Value::from("sea.jpg"),
                Value::from("snap-sample"),
                Value::bytes(&[1, 2, 3]),
            ],
        )
        .unwrap();
        p.add_rule(WRule::example_attendee_pictures("snap-sample"))
            .unwrap();
        p.install_delegation(Delegation::new(
            Symbol::intern("other"),
            Symbol::intern("snap-sample"),
            WRule::example_attendee_pictures("other"),
        ))
        .unwrap();
        p.acl_mut().trust("sigmod");
        p.acl_mut().set_untrusted_policy(UntrustedPolicy::Reject);
        p.acl_mut().restrict_read("pictures");
        p.acl_mut().grant_read("pictures", "sigmod");
        p.acl_mut().grant_write("pictures", "sigmod");
        p.acl_mut().declassify("view");
        p.acl_mut().declassify("attendeePictures");
        p.acl_mut().push_pending(
            Delegation::new(
                Symbol::intern("stranger"),
                Symbol::intern("snap-sample"),
                WRule::example_attendee_pictures("stranger"),
            ),
            7,
        );
        p.note_session_watermark(Symbol::intern("other"), 0, 3, 41);
        p.note_session_watermark(Symbol::intern("other"), 1, 3, 17);
        p
    }

    fn sample_dump() -> ColumnExport {
        ColumnExport {
            arity: 2,
            rows: 2,
            values: vec![Value::from(1), Value::from("a"), Value::from(2)],
            cells: vec![0, 1, 2, 1],
        }
    }

    /// Pin: a peer whose rule cannot be built from scratch still loads
    /// with its rows, and its first stage reports the rule's error.
    #[test]
    fn load_keeps_rows_of_a_rule_that_cannot_build() {
        use wdl_core::WBodyItem;
        use wdl_datalog::{BinOp, Expr};
        let me = "divide-peer";
        let mut p = Peer::new(me);
        p.declare("q", 2, RelationKind::Intensional).unwrap();
        let row = vec![Value::from(1), Value::from(0)];
        p.insert_local("r", row.clone()).unwrap();
        let quotient = Expr::bin(
            BinOp::Div,
            Expr::term(Term::var("x")),
            Expr::term(Term::var("y")),
        );
        p.add_rule(WRule::new(
            WAtom::at("q", me, vec![Term::var("x"), Term::var("z")]),
            vec![
                WAtom::at("r", me, vec![Term::var("x"), Term::var("y")]).into(),
                WBodyItem::assign("z", quotient),
            ],
        ))
        .unwrap();

        let mut q = load(&save(&p)).unwrap();
        assert_eq!(q.relation_facts("r"), vec![row.clone().into()]);
        let err = q.run_stage().unwrap_err().to_string();
        assert!(err.contains("arithmetic error: division by zero"), "{err}");
        assert_eq!(q.relation_facts("r"), vec![row.into()]);
    }

    #[test]
    fn watermarks_survive_the_round_trip() {
        let p = sample_peer();
        let q = load(&save(&p)).unwrap();
        assert_eq!(q.session_watermarks(), p.session_watermarks());
        assert_eq!(
            q.session_watermarks()
                .get(&(Symbol::intern("other"), 0))
                .copied(),
            Some((3, 41))
        );
    }

    #[test]
    fn snapshot_round_trip() {
        let p = sample_peer();
        let bytes = save(&p);
        let q = load(&bytes).unwrap();

        assert_eq!(q.name(), p.name());
        assert_eq!(q.relation_facts("pictures"), p.relation_facts("pictures"));
        assert_eq!(q.rules().len(), 1);
        assert_eq!(q.installed_delegations().len(), 1);
        assert!(q.acl().is_trusted(Symbol::intern("sigmod")));
        assert_eq!(q.acl().untrusted_policy(), UntrustedPolicy::Reject);
        assert_eq!(q.acl(), p.acl());
        assert_eq!(q.pending_delegations().len(), 1);
        assert_eq!(q.pending_delegations()[0].received_stage, 7);
    }

    #[test]
    fn export_import_round_trip() {
        let p = sample_peer();
        let q = load(&save(&p)).unwrap();

        assert_eq!(q.name(), p.name());
        assert_eq!(q.schema().len(), p.schema().len());
        assert_eq!(q.relation_facts("pictures").len(), 1);
        assert_eq!(q.rules().len(), 1);
        assert_eq!(q.rules()[0].rule, p.rules()[0].rule);
        assert_eq!(q.installed_delegations().len(), 1);
        assert!(q.acl().is_trusted(Symbol::intern("sigmod")));
        assert!(q
            .acl()
            .can_read_direct(Symbol::intern("pictures"), Symbol::intern("sigmod")));
        assert!(!q
            .acl()
            .can_read_direct(Symbol::intern("pictures"), Symbol::intern("other")));
        assert!(q.acl().is_declassified(Symbol::intern("view")));
        assert_eq!(q.pending_delegations(), p.pending_delegations());

        // Exporting again yields the same facts.
        assert_eq!(q.export_extensional(), p.export_extensional());
    }

    #[test]
    fn empty_peer_round_trips() {
        let p = Peer::new("snap-empty");
        let q = load(&save(&p)).unwrap();
        assert_eq!(q.name().as_str(), "snap-empty");
        assert_eq!(q.schema().len(), 0);
        assert!(q.rules().is_empty());
        assert_eq!(save(&q), save(&p));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let p = sample_peer();
        assert_eq!(save(&p), save(&p));
        // And stable across a round trip.
        let q = load(&save(&p)).unwrap();
        assert_eq!(save(&q), save(&p));
    }

    #[test]
    fn restored_peer_runs_stages() {
        let p = sample_peer();
        let mut q = load(&save(&p)).unwrap();
        q.insert_local("selectedAttendee", vec![Value::from("snap-sample")])
            .unwrap();
        q.run_stage().unwrap();
        assert_eq!(q.relation_facts("attendeePictures").len(), 1);
    }

    #[test]
    fn imported_peer_computes() {
        let p = sample_peer();
        let mut q = load(&save(&p)).unwrap();
        q.insert_local("selectedAttendee", vec![Value::from("snap-sample")])
            .unwrap();
        q.run_stage().unwrap();
        // Its own rule pulls its own pictures (self-selection); `view` is
        // unrelated to that rule and stays empty.
        assert_eq!(q.relation_facts("view").len(), 0);
        assert_eq!(q.relation_facts("attendeePictures").len(), 1);
    }

    #[test]
    fn truncated_snapshot_errors() {
        let bytes = save(&sample_peer());
        for cut in 0..bytes.len() {
            assert!(load(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn snapshot_rejects_any_single_bit_flip() {
        let bytes = save(&sample_peer());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.to_vec();
                bad[i] ^= 1 << bit;
                assert!(
                    load(&bad).is_err(),
                    "bit {bit} flip at byte {i} went undetected"
                );
            }
        }
    }

    /// Images of every earlier format — v2 lacked the approval queue — are
    /// rejected by version, before their body is read.
    #[test]
    fn wrong_version_rejected() {
        for old in [1, 2] {
            let mut bytes = save(&sample_peer()).to_vec();
            // Past the meta image's length prefix and magic.
            bytes[8] = old;
            let err = load(&bytes).unwrap_err().to_string();
            assert!(
                err.contains(&format!("version mismatch: got {old}")),
                "{err}"
            );
        }
    }

    /// A snapshot written before the images shared one envelope began
    /// with a bare version byte; it does not pass as a meta image.
    #[test]
    fn pre_envelope_snapshot_rejected() {
        let mut old = BytesMut::with_capacity(128);
        old.put_u8(2);
        put_symbol(&mut old, Symbol::intern("snap-sample"));
        old.put_slice(&[0; 64]);
        assert!(load(&old).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("wdl-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("peer.snap");
        let p = sample_peer();
        save_to_file(&p, &path).unwrap();
        let q = load_from_file(&path).unwrap();
        assert_eq!(q.name(), p.name());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_round_trip() {
        let p = sample_peer();
        let q = read_meta(&write_meta(&p), "meta").unwrap();
        assert_eq!(q.name(), p.name());
        assert_eq!(q.schema().len(), p.schema().len());
        assert!(q.relation_facts("pictures").is_empty());
        assert_eq!(write_meta(&q), write_meta(&p));
    }

    /// A meta image whose delegated rule is unsafe — installed or queued
    /// for approval — fails to load with a typed decode error, instead of
    /// giving a peer whose every stage fails.
    #[test]
    fn unsafe_delegation_in_meta_image_is_rejected() {
        let me = Symbol::intern("snap-unsafe");
        let d = Delegation::new(
            Symbol::intern("origin"),
            me,
            WRule::new(
                WAtom::at("out", "origin", vec![Term::var("y")]),
                vec![WAtom::at("item", "snap-unsafe", vec![Term::var("x")]).into()],
            ),
        );
        let image = |installed: &[Delegation], acl: &AccessControl| {
            let mut buf = begin_envelope(META_MAGIC, 256);
            put_symbol(&mut buf, me);
            buf.put_u32_le(0); // declarations
            buf.put_u32_le(0); // rules
            buf.put_u32_le(installed.len() as u32);
            for d in installed {
                put_delegation(&mut buf, d);
            }
            put_policy(&mut buf, acl);
            buf.put_u32_le(0); // watermarks
            seal_envelope(buf)
        };
        let open = AccessControl::new();
        assert!(read_meta(&image(&[], &open), "meta").is_ok());
        let mut queued = AccessControl::new();
        queued.push_pending(d.clone(), 1);
        for bad in [image(std::slice::from_ref(&d), &open), image(&[], &queued)] {
            let err = read_meta(&bad, "meta").unwrap_err();
            assert!(
                matches!(&err, NetError::Codec(m) if m.contains("unsafe distribution")),
                "{err}"
            );
        }
    }

    #[test]
    fn segment_round_trip() {
        let rel = Symbol::intern("pictures");
        let bytes = write_segment_bytes(rel, &sample_dump());
        let (r, dump) = read_segment(&bytes, "t.seg").unwrap();
        assert_eq!(r, rel);
        assert_eq!(dump, sample_dump());
    }

    #[test]
    fn segment_rejects_any_single_bit_flip() {
        let bytes = write_segment_bytes(Symbol::intern("r"), &sample_dump());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                read_segment(&bad, "t.seg").is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn segment_rejects_truncation() {
        let bytes = write_segment_bytes(Symbol::intern("r"), &sample_dump());
        for cut in 0..bytes.len() {
            assert!(read_segment(&bytes[..cut], "t.seg").is_err(), "cut {cut}");
        }
    }

    #[test]
    fn crc_known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_sensitive_to_single_bit() {
        let mut flipped = b"segment payload".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(crc32(b"segment payload"), crc32(&flipped));
    }
}

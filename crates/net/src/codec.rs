//! Compact binary wire format for [`Message`]s.
//!
//! Hand-rolled (the offline crate allowlist provides `serde` but no format
//! crate), little-endian, length-prefixed. The format is versioned with a
//! single magic byte so incompatible peers fail fast instead of
//! misinterpreting frames.
//!
//! Symbols travel as strings and values travel as their payloads: peers in
//! different processes have different interner tables, so numeric ids —
//! `Symbol`s and the engine's `ValueId`s alike — would be meaningless on
//! the wire. `wdl_datalog::ValueId` implements neither `Serialize` nor any
//! codec hook, so the interned data plane cannot leak into frames by
//! construction; `tests/interned_equivalence.rs` additionally pins that
//! encoded bytes are independent of interner state.

use crate::NetError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use wdl_core::{
    Delegation, DelegationId, FactKind, Message, NameTerm, Payload, WAtom, WBodyItem, WFact,
    WLiteral, WRule,
};
use wdl_datalog::{BinOp, CmpOp, Expr, Symbol, Term, Value, MAX_EXPR_DEPTH};

/// Format version magic; bump on incompatible changes.
pub const WIRE_VERSION: u8 = 1;

/// Encodes a message into a standalone buffer (without outer length prefix —
/// framing is the transport's job).
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    buf.put_u8(WIRE_VERSION);
    put_symbol(&mut buf, msg.from);
    put_symbol(&mut buf, msg.to);
    put_payload(&mut buf, &msg.payload);
    buf.freeze()
}

/// Decodes a message from a buffer produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Message, NetError> {
    let mut r = Reader { data, pos: 0 };
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(NetError::Codec(format!(
            "wire version mismatch: got {version}, expected {WIRE_VERSION}"
        )));
    }
    let from = r.symbol()?;
    let to = r.symbol()?;
    let payload = r.payload()?;
    r.expect_end()?;
    Ok(Message::new(from, to, payload))
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Encodes an interned symbol as a length-prefixed UTF-8 string. Public
/// because the storage engine (`wdl-store`) reuses the wire primitives for
/// its on-disk formats — one set of encoding conventions per workspace.
pub fn put_symbol(buf: &mut BytesMut, s: Symbol) {
    put_str(buf, s.as_str());
}

/// Encodes a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Encodes a dynamically typed [`Value`] (tag byte + payload).
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.put_u8(0);
            buf.put_i64_le(*i);
        }
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*b));
        }
        Value::Str(s) => {
            buf.put_u8(2);
            put_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.put_u8(3);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
    }
}

pub(crate) fn put_term(buf: &mut BytesMut, t: &Term) {
    match t {
        Term::Var(v) => {
            buf.put_u8(0);
            put_symbol(buf, *v);
        }
        Term::Const(c) => {
            buf.put_u8(1);
            put_value(buf, c);
        }
    }
}

pub(crate) fn put_name_term(buf: &mut BytesMut, n: &NameTerm) {
    match n {
        NameTerm::Name(s) => {
            buf.put_u8(0);
            put_symbol(buf, *s);
        }
        NameTerm::Var(v) => {
            buf.put_u8(1);
            put_symbol(buf, *v);
        }
    }
}

pub(crate) fn put_atom(buf: &mut BytesMut, a: &WAtom) {
    put_name_term(buf, &a.rel);
    put_name_term(buf, &a.peer);
    buf.put_u32_le(a.args.len() as u32);
    for t in &a.args {
        put_term(buf, t);
    }
}

pub(crate) fn put_expr(buf: &mut BytesMut, e: &Expr) {
    match e {
        Expr::Term(t) => {
            buf.put_u8(0);
            put_term(buf, t);
        }
        Expr::Bin(op, l, r) => {
            buf.put_u8(1);
            buf.put_u8(binop_tag(*op));
            put_expr(buf, l);
            put_expr(buf, r);
        }
    }
}

pub(crate) fn put_body_item(buf: &mut BytesMut, item: &WBodyItem) {
    match item {
        WBodyItem::Literal(l) => {
            buf.put_u8(0);
            buf.put_u8(u8::from(l.negated));
            put_atom(buf, &l.atom);
        }
        WBodyItem::Cmp { op, lhs, rhs } => {
            buf.put_u8(1);
            buf.put_u8(cmpop_tag(*op));
            put_term(buf, lhs);
            put_term(buf, rhs);
        }
        WBodyItem::Assign { var, expr } => {
            buf.put_u8(2);
            put_symbol(buf, *var);
            put_expr(buf, expr);
        }
    }
}

pub(crate) fn put_rule(buf: &mut BytesMut, r: &WRule) {
    put_atom(buf, &r.head);
    buf.put_u32_le(r.body.len() as u32);
    for item in &r.body {
        put_body_item(buf, item);
    }
}

pub(crate) fn put_fact(buf: &mut BytesMut, f: &WFact) {
    put_symbol(buf, f.rel);
    put_symbol(buf, f.peer);
    buf.put_u32_le(f.tuple.len() as u32);
    for v in f.tuple.iter() {
        put_value(buf, v);
    }
}

pub(crate) fn put_delegation(buf: &mut BytesMut, d: &Delegation) {
    buf.put_u64_le(d.id.raw());
    put_symbol(buf, d.origin);
    put_symbol(buf, d.target);
    put_rule(buf, &d.rule);
}

pub(crate) fn put_payload(buf: &mut BytesMut, p: &Payload) {
    match p {
        Payload::Facts {
            kind,
            additions,
            retractions,
        } => {
            buf.put_u8(0);
            buf.put_u8(match kind {
                FactKind::Persistent => 0,
                FactKind::Derived => 1,
            });
            buf.put_u32_le(additions.len() as u32);
            for f in additions {
                put_fact(buf, f);
            }
            buf.put_u32_le(retractions.len() as u32);
            for f in retractions {
                put_fact(buf, f);
            }
        }
        Payload::Delegate(ds) => {
            buf.put_u8(1);
            buf.put_u32_le(ds.len() as u32);
            for d in ds {
                put_delegation(buf, d);
            }
        }
        Payload::Revoke(ids) => {
            buf.put_u8(2);
            buf.put_u32_le(ids.len() as u32);
            for id in ids {
                buf.put_u64_le(id.raw());
            }
        }
        Payload::Session(bytes) => {
            buf.put_u8(3);
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(bytes);
        }
    }
}

fn cmpop_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Concat => 5,
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked cursor over an encoded buffer. Every accessor returns
/// [`NetError::Codec`] on truncation or malformed data — the decoder is
/// total, never panicking on adversarial input. Public for the same reason
/// as [`put_value`]: the storage engine decodes its file formats with the
/// same primitives.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.pos + n > self.data.len() {
            return Err(NetError::Codec(format!(
                "truncated frame: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, NetError> {
        let mut b = self.take(8)?;
        Ok(b.get_i64_le())
    }

    /// Reads a `u32` length field, rejecting lengths beyond the buffer.
    /// (`len` decodes a field; it is not a size accessor, so there is no
    /// `is_empty` counterpart.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        // Defensive cap: a single field may not claim more than the frame.
        if n > self.data.len() {
            return Err(NetError::Codec(format!("length {n} exceeds frame size")));
        }
        Ok(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn blob(&mut self) -> Result<&'a [u8], NetError> {
        let n = self.len()?;
        self.take(n)
    }

    /// The bytes not read yet.
    pub fn remaining(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, NetError> {
        std::str::from_utf8(self.blob()?).map_err(|e| NetError::Codec(format!("invalid utf8: {e}")))
    }

    /// Reads a length-prefixed string and interns it as a [`Symbol`].
    pub fn symbol(&mut self) -> Result<Symbol, NetError> {
        Ok(Symbol::intern(self.str()?))
    }

    /// Reads a [`Value`] written by [`put_value`].
    pub fn value(&mut self) -> Result<Value, NetError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Bool(self.u8()? != 0)),
            2 => Ok(Value::str(self.str()?)),
            3 => {
                let n = self.len()?;
                Ok(Value::bytes(self.take(n)?))
            }
            t => Err(NetError::Codec(format!("bad value tag {t}"))),
        }
    }

    pub(crate) fn term(&mut self) -> Result<Term, NetError> {
        match self.u8()? {
            0 => Ok(Term::Var(self.symbol()?)),
            1 => Ok(Term::Const(self.value()?)),
            t => Err(NetError::Codec(format!("bad term tag {t}"))),
        }
    }

    pub(crate) fn name_term(&mut self) -> Result<NameTerm, NetError> {
        match self.u8()? {
            0 => Ok(NameTerm::Name(self.symbol()?)),
            1 => Ok(NameTerm::Var(self.symbol()?)),
            t => Err(NetError::Codec(format!("bad name-term tag {t}"))),
        }
    }

    pub(crate) fn atom(&mut self) -> Result<WAtom, NetError> {
        let rel = self.name_term()?;
        let peer = self.name_term()?;
        let n = self.len()?;
        let mut args = Vec::with_capacity(n);
        for _ in 0..n {
            args.push(self.term()?);
        }
        Ok(WAtom::new(rel, peer, args))
    }

    pub(crate) fn expr(&mut self) -> Result<Expr, NetError> {
        self.expr_at(0)
    }

    fn expr_at(&mut self, depth: usize) -> Result<Expr, NetError> {
        // Expressions decode recursively; cap the nesting at the bound
        // rule validation enforces, so an adversarial (or corrupted) frame
        // degrades to a clean error instead of exhausting the stack.
        if depth > MAX_EXPR_DEPTH {
            return Err(NetError::Codec(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH}"
            )));
        }
        match self.u8()? {
            0 => Ok(Expr::Term(self.term()?)),
            1 => {
                let op = binop_from(self.u8()?)?;
                let l = self.expr_at(depth + 1)?;
                let r = self.expr_at(depth + 1)?;
                Ok(Expr::bin(op, l, r))
            }
            t => Err(NetError::Codec(format!("bad expr tag {t}"))),
        }
    }

    pub(crate) fn body_item(&mut self) -> Result<WBodyItem, NetError> {
        match self.u8()? {
            0 => {
                let negated = self.u8()? != 0;
                let atom = self.atom()?;
                Ok(WBodyItem::Literal(if negated {
                    WLiteral::neg(atom)
                } else {
                    WLiteral::pos(atom)
                }))
            }
            1 => {
                let op = cmpop_from(self.u8()?)?;
                let lhs = self.term()?;
                let rhs = self.term()?;
                Ok(WBodyItem::Cmp { op, lhs, rhs })
            }
            2 => {
                let var = self.symbol()?;
                let expr = self.expr()?;
                Ok(WBodyItem::Assign { var, expr })
            }
            t => Err(NetError::Codec(format!("bad body-item tag {t}"))),
        }
    }

    pub(crate) fn rule(&mut self) -> Result<WRule, NetError> {
        let head = self.atom()?;
        let n = self.len()?;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(self.body_item()?);
        }
        Ok(WRule::new(head, body))
    }

    pub(crate) fn fact(&mut self) -> Result<WFact, NetError> {
        let rel = self.symbol()?;
        let peer = self.symbol()?;
        let n = self.len()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(WFact::new(rel, peer, values))
    }

    pub(crate) fn delegation(&mut self) -> Result<Delegation, NetError> {
        let wire_id = self.u64()?;
        let origin = self.symbol()?;
        let target = self.symbol()?;
        let rule = self.rule()?;
        let d = Delegation::new(origin, target, rule);
        // The id is content-addressed; recomputing it validates integrity.
        if d.id.raw() != wire_id {
            return Err(NetError::Codec(format!(
                "delegation id mismatch: wire {wire_id:#x}, recomputed {:#x}",
                d.id.raw()
            )));
        }
        Ok(d)
    }

    pub(crate) fn payload(&mut self) -> Result<Payload, NetError> {
        match self.u8()? {
            0 => {
                let kind = match self.u8()? {
                    0 => FactKind::Persistent,
                    1 => FactKind::Derived,
                    t => return Err(NetError::Codec(format!("bad fact kind {t}"))),
                };
                let n = self.len()?;
                let mut additions = Vec::with_capacity(n);
                for _ in 0..n {
                    additions.push(self.fact()?);
                }
                let n = self.len()?;
                let mut retractions = Vec::with_capacity(n);
                for _ in 0..n {
                    retractions.push(self.fact()?);
                }
                Ok(Payload::Facts {
                    kind,
                    additions,
                    retractions,
                })
            }
            1 => {
                let n = self.len()?;
                let mut ds = Vec::with_capacity(n);
                for _ in 0..n {
                    ds.push(self.delegation()?);
                }
                Ok(Payload::Delegate(ds))
            }
            2 => {
                let n = self.len()?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(delegation_id_from_raw(self.u64()?));
                }
                Ok(Payload::Revoke(ids))
            }
            3 => Ok(Payload::Session(self.blob()?.to_vec())),
            t => Err(NetError::Codec(format!("bad payload tag {t}"))),
        }
    }

    /// Asserts the buffer is fully consumed (trailing bytes are an error).
    pub fn expect_end(&self) -> Result<(), NetError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(NetError::Codec(format!(
                "{} trailing bytes after message",
                self.data.len() - self.pos
            )))
        }
    }
}

fn cmpop_from(t: u8) -> Result<CmpOp, NetError> {
    Ok(match t {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(NetError::Codec(format!("bad cmp op {t}"))),
    })
}

fn binop_from(t: u8) -> Result<BinOp, NetError> {
    Ok(match t {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Concat,
        _ => return Err(NetError::Codec(format!("bad bin op {t}"))),
    })
}

/// Reconstructs a [`DelegationId`] from its raw wire value (revocations ship
/// ids without the rule body, so the receiver cannot recompute them).
fn delegation_id_from_raw(raw: u64) -> DelegationId {
    DelegationId::from_raw(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn sample_fact() -> WFact {
        WFact::new(
            "pictures",
            "sigmod",
            vec![
                Value::from(32),
                Value::from("sea.jpg"),
                Value::from("Émilien"),
                Value::bytes(&[1, 0, 0, 255]),
                Value::Bool(true),
            ],
        )
    }

    #[test]
    fn fact_message_round_trip() {
        let msg = Message::new(
            sym("emilien"),
            sym("sigmod"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![sample_fact()],
                retractions: vec![WFact::new("r", "sigmod", vec![Value::from(-9)])],
            },
        );
        let bytes = encode(&msg);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn delegation_message_round_trip() {
        let rule = WRule::example_attendee_pictures("Jules");
        let d = Delegation::new(sym("Jules"), sym("Emilien"), rule);
        let msg = Message::new(
            sym("Jules"),
            sym("Emilien"),
            Payload::Delegate(vec![d.clone()]),
        );
        let back = decode(&encode(&msg)).unwrap();
        assert_eq!(back, msg);
        if let Payload::Delegate(ds) = back.payload {
            assert_eq!(ds[0].id, d.id);
        }
    }

    #[test]
    fn revoke_message_round_trip() {
        let rule = WRule::example_attendee_pictures("Jules");
        let d = Delegation::new(sym("a"), sym("b"), rule);
        let msg = Message::new(sym("a"), sym("b"), Payload::Revoke(vec![d.id]));
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn complex_rule_round_trip() {
        let r = wdl_parser::parse_rule(
            "out@p($y) :- n@p($x), $x >= 2, not blocked@p($x), $y := ($x * 3) ++ \"\";",
        );
        // The rule above is type-nonsense but structurally valid — if the
        // parser rejects it, build structurally instead.
        let rule = match r {
            Ok(rule) => rule,
            Err(_) => WRule::example_attendee_pictures("p"),
        };
        let d = Delegation::new(sym("x"), sym("y"), rule);
        let msg = Message::new(sym("x"), sym("y"), Payload::Delegate(vec![d]));
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn session_frame_round_trip() {
        let msg = Message::new(
            sym("a"),
            sym("b"),
            Payload::Session(vec![7, 0, 0, 1, 2, 3, 0xFF]),
        );
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        let empty = Message::new(sym("a"), sym("b"), Payload::Session(vec![]));
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn truncated_frames_error() {
        let msg = Message::new(sym("a"), sym("b"), Payload::Revoke(vec![]));
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let msg = Message::new(sym("a"), sym("b"), Payload::Revoke(vec![]));
        let mut bytes = encode(&msg).to_vec();
        bytes[0] = 99;
        assert!(matches!(decode(&bytes), Err(NetError::Codec(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let msg = Message::new(sym("a"), sym("b"), Payload::Revoke(vec![]));
        let mut bytes = encode(&msg).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn corrupted_delegation_id_detected() {
        let rule = WRule::example_attendee_pictures("Jules");
        let d = Delegation::new(sym("a"), sym("b"), rule);
        let msg = Message::new(sym("a"), sym("b"), Payload::Delegate(vec![d]));
        let mut bytes = encode(&msg).to_vec();
        // Flip one bit in the 8-byte id that follows the payload tag+count.
        // Layout: version(1) from(4+1) to(4+1) tag(1) count(4) id(8).
        let id_offset = 1 + 5 + 5 + 1 + 4;
        bytes[id_offset] ^= 0xff;
        assert!(decode(&bytes).is_err());
    }

    /// One message per payload variant, collectively covering every value,
    /// term, name-term, body-item and expression shape the wire knows.
    fn fuzz_corpus() -> Vec<Message> {
        let all_values_fact = sample_fact();
        let facts_persistent = Message::new(
            sym("fz-a"),
            sym("fz-b"),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![all_values_fact.clone()],
                retractions: vec![WFact::new("r", "fz-b", vec![Value::from(i64::MIN)])],
            },
        );
        let facts_derived = Message::new(
            sym("fz-b"),
            sym("fz-a"),
            Payload::Facts {
                kind: FactKind::Derived,
                additions: vec![],
                retractions: vec![all_values_fact],
            },
        );
        // A rule with a negated literal, a comparison, an assignment with a
        // nested binary expression, and peer/relation variables.
        let rule = WRule::new(
            WAtom::new(
                wdl_core::NameTerm::var("rel"),
                wdl_core::NameTerm::var("peer"),
                vec![Term::var("y")],
            ),
            vec![
                WBodyItem::Literal(WLiteral::pos(WAtom::at("n", "p", vec![Term::var("x")]))),
                WBodyItem::Literal(WLiteral::neg(WAtom::at(
                    "blocked",
                    "p",
                    vec![Term::var("x")],
                ))),
                WBodyItem::Cmp {
                    op: CmpOp::Ge,
                    lhs: Term::var("x"),
                    rhs: Term::Const(Value::from(2)),
                },
                WBodyItem::Assign {
                    var: Symbol::intern("y"),
                    expr: Expr::bin(
                        BinOp::Concat,
                        Expr::bin(
                            BinOp::Mul,
                            Expr::Term(Term::var("x")),
                            Expr::Term(Term::Const(Value::from(3))),
                        ),
                        Expr::Term(Term::Const(Value::str(""))),
                    ),
                },
            ],
        );
        let d1 = Delegation::new(sym("fz-a"), sym("fz-b"), rule);
        let d2 = Delegation::new(
            sym("fz-b"),
            sym("fz-a"),
            WRule::example_attendee_pictures("fz-a"),
        );
        let delegate = Message::new(
            sym("fz-a"),
            sym("fz-b"),
            Payload::Delegate(vec![d1, d2.clone()]),
        );
        let revoke = Message::new(sym("fz-b"), sym("fz-a"), Payload::Revoke(vec![d2.id]));
        let session = Message::new(
            sym("fz-a"),
            sym("fz-b"),
            Payload::Session(vec![0x5E, 0x55, 0x10, 0, 1, 2, 3, 255]),
        );
        vec![facts_persistent, facts_derived, delegate, revoke, session]
    }

    /// The decoder must be total: whatever bytes arrive, the result is a
    /// clean `Ok` or `NetError::Codec` — never a panic, never a different
    /// error class. Seeded, so any failure replays.
    #[test]
    fn mutation_fuzz_decodes_cleanly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        let check = |bytes: &[u8], what: &str| match decode(bytes) {
            Ok(_) | Err(NetError::Codec(_)) => {}
            Err(other) => panic!("{what}: unexpected error class: {other}"),
        };
        for msg in fuzz_corpus() {
            let bytes = encode(&msg).to_vec();
            // Every truncation point.
            for cut in 0..bytes.len() {
                check(&bytes[..cut], "truncation");
            }
            // Random bit flips, 1–4 bytes at a time.
            for _ in 0..300 {
                let mut b = bytes.clone();
                for _ in 0..rng.gen_range(1..=4usize) {
                    let i = rng.gen_range(0..b.len());
                    b[i] ^= 1 << rng.gen_range(0..8u32);
                }
                check(&b, "bit flip");
            }
            // Random splices: overwrite a window with random bytes, or
            // insert/remove a small chunk.
            for _ in 0..150 {
                let mut b = bytes.clone();
                match rng.gen_range(0..3u8) {
                    0 => {
                        let start = rng.gen_range(0..b.len());
                        let len = rng.gen_range(1..=8usize).min(b.len() - start);
                        for x in &mut b[start..start + len] {
                            *x = rng.gen::<u8>();
                        }
                    }
                    1 => {
                        let at = rng.gen_range(0..=b.len());
                        let chunk: Vec<u8> = (0..rng.gen_range(1..=6usize))
                            .map(|_| rng.gen::<u8>())
                            .collect();
                        b.splice(at..at, chunk);
                    }
                    _ => {
                        let at = rng.gen_range(0..b.len());
                        let len = rng.gen_range(1..=6usize).min(b.len() - at);
                        b.drain(at..at + len);
                    }
                }
                check(&b, "splice");
            }
        }
    }

    /// An adversarial frame nesting expressions past the cap is rejected
    /// cleanly instead of blowing the decoder's stack.
    #[test]
    fn deep_expression_nesting_is_rejected() {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_u8(WIRE_VERSION);
        put_symbol(&mut buf, sym("deep-a"));
        put_symbol(&mut buf, sym("deep-b"));
        buf.put_u8(1); // Payload::Delegate
        buf.put_u32_le(1);
        buf.put_u64_le(0); // id (never reached)
        put_symbol(&mut buf, sym("deep-a"));
        put_symbol(&mut buf, sym("deep-b"));
        // Rule head.
        put_atom(&mut buf, &WAtom::at("h", "deep-a", vec![Term::var("x")]));
        buf.put_u32_le(1); // one body item
        buf.put_u8(2); // Assign
        put_symbol(&mut buf, sym("x"));
        for _ in 0..(MAX_EXPR_DEPTH + 8) {
            buf.put_u8(1); // Expr::Bin
            buf.put_u8(0); // Add
        }
        let err = decode(&buf).unwrap_err();
        assert!(
            err.to_string().contains("nests deeper"),
            "wanted the depth error, got: {err}"
        );
    }

    #[test]
    fn unicode_symbols_survive() {
        let msg = Message::new(
            sym("Émilien"),
            sym("sigmod"),
            Payload::Facts {
                kind: FactKind::Persistent,
                additions: vec![WFact::new("amis", "sigmod", vec![Value::from("Émilien")])],
                retractions: vec![],
            },
        );
        assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }
}

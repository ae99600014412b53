//! Recursive-descent parser producing `wdl-core` AST values.

use crate::lexer::{Lexer, Token, TokenKind};
use wdl_core::{NameTerm, RelationKind, WAtom, WBodyItem, WFact, WRule};
use wdl_datalog::{BinOp, CmpOp, Expr, Symbol, Term, Value, MAX_EXPR_DEPTH};

/// A parse failure with its source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Line (1-based).
    pub line: usize,
    /// Column (1-based).
    pub col: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// One parsed statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// A ground fact, e.g. `pictures@sigmod(32, "sea.jpg");`.
    Fact(WFact),
    /// A rule, e.g. `v@p($x) :- r@p($x);`.
    Rule(WRule),
    /// A relation declaration, e.g. `extensional pictures@Jules/4;`.
    Declaration {
        /// Relation name.
        rel: Symbol,
        /// Hosting peer.
        peer: Symbol,
        /// Number of columns.
        arity: usize,
        /// Extensional or intensional.
        kind: RelationKind,
    },
}

/// A statement together with the source position (1-based line and
/// column) of its first token — what the static analyzer threads into
/// diagnostics so they render `file:line:col`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpannedStatement {
    /// The parsed statement.
    pub statement: Statement,
    /// 1-based line of the statement's first token.
    pub line: usize,
    /// 1-based column of the statement's first token.
    pub col: usize,
}

/// Parses a whole program (a sequence of `;`-terminated statements).
pub fn parse_program(src: &str) -> Result<Vec<Statement>, ParseError> {
    Ok(parse_program_spanned(src)?
        .into_iter()
        .map(|s| s.statement)
        .collect())
}

/// [`parse_program`], but keeping each statement's source position.
pub fn parse_program_spanned(src: &str) -> Result<Vec<SpannedStatement>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while !p.at_eof() {
        let start = p.peek();
        let (line, col) = (start.line, start.col);
        out.push(SpannedStatement {
            statement: p.statement()?,
            line,
            col,
        });
    }
    Ok(out)
}

/// Parses exactly one statement.
pub fn parse_statement(src: &str) -> Result<Statement, ParseError> {
    let mut p = Parser::new(src)?;
    let s = p.statement()?;
    p.expect_eof()?;
    Ok(s)
}

/// Parses a single rule.
pub fn parse_rule(src: &str) -> Result<WRule, ParseError> {
    match parse_statement(src)? {
        Statement::Rule(r) => Ok(r),
        other => Err(ParseError {
            message: format!("expected a rule, found {other:?}"),
            line: 1,
            col: 1,
        }),
    }
}

/// Parses a single ground fact.
pub fn parse_fact(src: &str) -> Result<WFact, ParseError> {
    match parse_statement(src)? {
        Statement::Fact(f) => Ok(f),
        other => Err(ParseError {
            message: format!("expected a fact, found {other:?}"),
            line: 1,
            col: 1,
        }),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: Lexer::new(src).tokenize()?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        let idx = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.peek_kind() == &TokenKind::Eof
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            message: msg.into(),
            line: t.line,
            col: t.col,
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<Token, ParseError> {
        if self.peek_kind() == &kind {
            Ok(self.bump())
        } else {
            Err(self.error_here(format!("expected {what}, found {:?}", self.peek_kind())))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error_here("expected end of input"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error_here(format!("expected {what}, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if let TokenKind::Ident(word) = self.peek_kind() {
            let kind = match word.as_str() {
                "extensional" => Some(RelationKind::Extensional),
                "intensional" => Some(RelationKind::Intensional),
                _ => None,
            };
            // Only a declaration if followed by `ident @` (so a relation
            // actually named `extensional` still parses as an atom).
            if let Some(kind) = kind {
                if matches!(self.peek2_kind(), TokenKind::Ident(_)) {
                    return self.declaration(kind);
                }
            }
        }
        let start = self.peek();
        let (line, col) = (start.line, start.col);
        let head = self.watom()?;
        match self.peek_kind() {
            TokenKind::Semi => {
                self.bump();
                let fact = self.atom_to_fact(head, line, col)?;
                Ok(Statement::Fact(fact))
            }
            TokenKind::Turnstile => {
                self.bump();
                let mut body = vec![self.body_item()?];
                while self.peek_kind() == &TokenKind::Comma {
                    self.bump();
                    body.push(self.body_item()?);
                }
                self.expect(TokenKind::Semi, "`;`")?;
                Ok(Statement::Rule(WRule::new(head, body)))
            }
            _ => Err(self.error_here("expected `;` (fact) or `:-` (rule)")),
        }
    }

    fn declaration(&mut self, kind: RelationKind) -> Result<Statement, ParseError> {
        self.bump(); // keyword
        let rel = self.ident("relation name")?;
        self.expect(TokenKind::At, "`@`")?;
        let peer = self.ident("peer name")?;
        self.expect(TokenKind::Slash, "`/`")?;
        let arity = match self.peek_kind().clone() {
            TokenKind::Int(n) if n >= 0 => {
                self.bump();
                n as usize
            }
            _ => return Err(self.error_here("expected a non-negative arity")),
        };
        self.expect(TokenKind::Semi, "`;`")?;
        Ok(Statement::Declaration {
            rel: Symbol::intern(&rel),
            peer: Symbol::intern(&peer),
            arity,
            kind,
        })
    }

    /// `line`/`col` locate the statement's first token: the previously
    /// hardcoded `1:1` here misreported every fact error past the first
    /// line of a program.
    fn atom_to_fact(&self, atom: WAtom, line: usize, col: usize) -> Result<WFact, ParseError> {
        let (NameTerm::Name(rel), NameTerm::Name(peer)) = (atom.rel, atom.peer) else {
            return Err(ParseError {
                message: "facts cannot contain variables in name positions".into(),
                line,
                col,
            });
        };
        let mut values = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(v) => values.push(v.clone()),
                Term::Var(v) => {
                    return Err(ParseError {
                        message: format!("facts must be ground; found variable ${v}"),
                        line,
                        col,
                    })
                }
            }
        }
        Ok(WFact::new(rel, peer, values))
    }

    fn name_term(&mut self, what: &str) -> Result<NameTerm, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(NameTerm::name(s.as_str()))
            }
            TokenKind::Var(v) => {
                self.bump();
                Ok(NameTerm::var(v.as_str()))
            }
            other => Err(self.error_here(format!("expected {what}, found {other:?}"))),
        }
    }

    fn watom(&mut self) -> Result<WAtom, ParseError> {
        let rel = self.name_term("relation name or variable")?;
        self.expect(TokenKind::At, "`@`")?;
        let peer = self.name_term("peer name or variable")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek_kind() != &TokenKind::RParen {
            args.push(self.term()?);
            while self.peek_kind() == &TokenKind::Comma {
                self.bump();
                args.push(self.term()?);
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        Ok(WAtom::new(rel, peer, args))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Var(v) => {
                self.bump();
                Ok(Term::var(v.as_str()))
            }
            _ => Ok(Term::Const(self.value()?)),
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Value::Int(n))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Value::str(&s))
            }
            TokenKind::Bytes(b) => {
                self.bump();
                Ok(Value::bytes(&b))
            }
            TokenKind::Ident(w) if w == "true" => {
                self.bump();
                Ok(Value::Bool(true))
            }
            TokenKind::Ident(w) if w == "false" => {
                self.bump();
                Ok(Value::Bool(false))
            }
            other => Err(self.error_here(format!("expected a value, found {other:?}"))),
        }
    }

    fn body_item(&mut self) -> Result<WBodyItem, ParseError> {
        // `not atom`
        if let TokenKind::Ident(w) = self.peek_kind() {
            if w == "not" {
                self.bump();
                let atom = self.watom()?;
                return Ok(WBodyItem::not_atom(atom));
            }
        }
        // Variable-led items need lookahead: `$x := e`, `$x == t`, `$r@p(...)`.
        if matches!(self.peek_kind(), TokenKind::Var(_)) {
            match self.peek2_kind() {
                TokenKind::At => {
                    let atom = self.watom()?;
                    return Ok(WBodyItem::atom(atom));
                }
                TokenKind::Bind => {
                    let TokenKind::Var(v) = self.bump().kind else {
                        return Err(self.error_here("expected a variable before `:=`"));
                    };
                    self.bump(); // :=
                    let (expr, _) = self.expr(0, true)?;
                    return Ok(WBodyItem::assign(v.as_str(), expr));
                }
                _ => {
                    let lhs = self.term()?;
                    let op = self.cmp_op()?;
                    let rhs = self.term()?;
                    return Ok(WBodyItem::cmp(op, lhs, rhs));
                }
            }
        }
        // Constant-led: either an atom `rel@peer(...)` or a comparison.
        if matches!(self.peek_kind(), TokenKind::Ident(_)) && self.peek2_kind() == &TokenKind::At {
            let atom = self.watom()?;
            return Ok(WBodyItem::atom(atom));
        }
        let lhs = self.term()?;
        let op = self.cmp_op()?;
        let rhs = self.term()?;
        Ok(WBodyItem::cmp(op, lhs, rhs))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek_kind() {
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => {
                return Err(
                    self.error_here(format!("expected a comparison operator, found {other:?}"))
                )
            }
        };
        self.bump();
        Ok(op)
    }

    /// A chain of binary operators at one precedence level: additive
    /// (`+ - ++`) over multiplicative (`* / %`) over atoms.
    ///
    /// Every level returns the tree with its height, and `nest` counts the
    /// parentheses open around it: past [`MAX_EXPR_DEPTH`] of either the
    /// parse fails, before the recursion or the tree can grow deep enough
    /// to exhaust the stack.
    fn expr(&mut self, nest: usize, additive: bool) -> Result<(Expr, usize), ParseError> {
        let operand = |p: &mut Parser| {
            if additive {
                p.expr(nest, false)
            } else {
                p.expr_atom(nest)
            }
        };
        let (mut lhs, mut height) = operand(self)?;
        loop {
            let op = match (additive, self.peek_kind()) {
                (true, TokenKind::Plus) => BinOp::Add,
                (true, TokenKind::Minus) => BinOp::Sub,
                (true, TokenKind::Concat) => BinOp::Concat,
                (false, TokenKind::Star) => BinOp::Mul,
                (false, TokenKind::Slash) => BinOp::Div,
                (false, TokenKind::Percent) => BinOp::Mod,
                _ => return Ok((lhs, height)),
            };
            self.bump();
            let (rhs, rh) = operand(self)?;
            height = 1 + height.max(rh);
            if height > MAX_EXPR_DEPTH {
                return Err(self.too_deep());
            }
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn expr_atom(&mut self, nest: usize) -> Result<(Expr, usize), ParseError> {
        if self.peek_kind() == &TokenKind::LParen {
            if nest >= MAX_EXPR_DEPTH {
                return Err(self.too_deep());
            }
            self.bump();
            let e = self.expr(nest + 1, true)?;
            self.expect(TokenKind::RParen, "`)`")?;
            return Ok(e);
        }
        Ok((Expr::Term(self.term()?), 0))
    }

    fn too_deep(&self) -> ParseError {
        self.error_here(format!("expression nests deeper than {MAX_EXPR_DEPTH}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_fact() {
        let f = parse_fact(r#"pictures@sigmod(32, "sea.jpg", "Emilien", 0x640000);"#).unwrap();
        assert_eq!(f.rel.as_str(), "pictures");
        assert_eq!(f.peer.as_str(), "sigmod");
        assert_eq!(f.arity(), 4);
        assert_eq!(f.tuple[3], Value::bytes(&[0x64, 0, 0]));
    }

    #[test]
    fn parse_paper_attendee_rule() {
        let r = parse_rule(
            "attendeePictures@Jules($id, $name, $owner, $data) :- \
             selectedAttendee@Jules($attendee), \
             pictures@$attendee($id, $name, $owner, $data);",
        )
        .unwrap();
        assert_eq!(r, WRule::example_attendee_pictures("Jules"));
    }

    #[test]
    fn parse_protocol_dispatch_rule() {
        let r = parse_rule(
            "$protocol@$attendee($attendee, $name, $id, $owner) :- \
             selectedAttendee@Jules($attendee), \
             communicate@$attendee($protocol), \
             selectedPictures@Jules($name, $id, $owner);",
        )
        .unwrap();
        assert!(r.head.rel.is_var());
        assert!(r.head.peer.is_var());
        assert_eq!(r.body.len(), 3);
        r.check_safety().unwrap();
    }

    #[test]
    fn parse_rating_customization() {
        let r = parse_rule(
            "attendeePictures@Jules($id, $n, $o, $d) :- \
             selectedAttendee@Jules($a), pictures@$a($id, $n, $o, $d), \
             rate@$o($id, $r), $r == 5;",
        )
        .unwrap();
        assert_eq!(r.body.len(), 4);
        assert!(matches!(r.body[3], WBodyItem::Cmp { op: CmpOp::Eq, .. }));
    }

    #[test]
    fn parse_negation() {
        let r = parse_rule("keep@me($x) :- item@me($x), not blocked@me($x);").unwrap();
        assert!(matches!(&r.body[1], WBodyItem::Literal(l) if l.negated));
    }

    #[test]
    fn parse_assignment_with_precedence() {
        let r = parse_rule("out@me($y) :- n@me($x), $y := $x + 2 * 3;").unwrap();
        let WBodyItem::Assign { expr, .. } = &r.body[1] else {
            panic!("expected assign");
        };
        // + binds looser than *
        assert_eq!(expr.to_string(), "($x + (2 * 3))");
    }

    #[test]
    fn parse_declarations() {
        let prog =
            parse_program("extensional pictures@Jules/4;\nintensional attendeePictures@Jules/4;")
                .unwrap();
        assert_eq!(prog.len(), 2);
        assert!(matches!(
            prog[0],
            Statement::Declaration {
                arity: 4,
                kind: RelationKind::Extensional,
                ..
            }
        ));
    }

    #[test]
    fn parse_program_with_comments() {
        let prog = parse_program(
            "// Wepic rules\n\
             pictures@jules(1, \"a.jpg\");\n\
             # derived view\n\
             all@jules($x) :- pictures@jules($x, $n);",
        )
        .unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn non_ground_fact_rejected() {
        assert!(parse_fact("pictures@sigmod($x);").is_err());
    }

    #[test]
    fn variable_peer_fact_rejected() {
        assert!(parse_statement("pictures@$p(1);").is_err());
    }

    #[test]
    fn error_positions_are_useful() {
        let err = parse_rule("v@p($x) :- r@p($x)").unwrap_err(); // missing ;
        assert!(err.to_string().contains("expected"));
        let err = parse_program("v@p(").unwrap_err();
        assert!(err.line >= 1);
    }

    #[test]
    fn spanned_statements_carry_positions() {
        // Note: the third statement is indented by two real spaces (a `\`
        // continuation would strip them from the literal).
        let src = concat!(
            "extensional pictures@Jules/2;\n",
            "pictures@Jules(1, \"a.jpg\");\n",
            "  all@Jules($x) :- pictures@Jules($x, $n);",
        );
        let prog = parse_program_spanned(src).unwrap();
        assert_eq!(prog.len(), 3);
        assert_eq!((prog[0].line, prog[0].col), (1, 1));
        assert_eq!((prog[1].line, prog[1].col), (2, 1));
        assert_eq!((prog[2].line, prog[2].col), (3, 3));
    }

    #[test]
    fn non_ground_fact_error_reports_its_line() {
        let err = parse_program("ok@me(1);\nbad@me($x);").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_program("ok@me(1);\npictures@$p(1);").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_args_atom() {
        let r = parse_rule("tick@me() :- tock@me();").unwrap();
        assert!(r.head.args.is_empty());
    }

    #[test]
    fn booleans_parse() {
        let f = parse_fact("flags@me(true, false);").unwrap();
        assert_eq!(f.tuple[0], Value::Bool(true));
        assert_eq!(f.tuple[1], Value::Bool(false));
    }

    #[test]
    fn relation_named_like_keyword_still_parses_as_atom() {
        // `extensional@me(1);` — "extensional" followed by `@`, not an ident,
        // so it is an atom, not a declaration.
        let f = parse_fact("extensional@me(1);").unwrap();
        assert_eq!(f.rel.as_str(), "extensional");
    }

    #[test]
    fn comparison_between_two_constants() {
        let r = parse_rule("out@me($x) :- n@me($x), 1 < 2;").unwrap();
        assert!(matches!(r.body[1], WBodyItem::Cmp { op: CmpOp::Lt, .. }));
    }

    fn assignment(expr: &str) -> String {
        format!("out@me($x) :- n@me($y), $x := {expr};")
    }

    #[test]
    fn deep_expressions_are_parse_errors_not_stack_overflows() {
        let parens = format!("{}1{}", "(".repeat(200_000), ")".repeat(200_000));
        let chain = vec!["1"; 100_000].join(" + ");
        for expr in [parens, chain] {
            let err = parse_rule(&assignment(&expr)).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{err}");
            assert_eq!(err.line, 1);
        }
    }

    #[test]
    fn expressions_at_the_depth_bound_parse() {
        let n = MAX_EXPR_DEPTH;
        let chain = vec!["1"; n + 1].join(" * ");
        let r = parse_rule(&assignment(&chain)).unwrap();
        let WBodyItem::Assign { expr, .. } = &r.body[1] else {
            panic!("expected assign");
        };
        assert!(!expr.too_deep());
        // The fully parenthesised rendering nests `n` parentheses deep.
        assert_eq!(parse_rule(&crate::pretty::rule(&r)).unwrap(), r);
        let parens = format!("{}1{}", "(".repeat(n), ")".repeat(n));
        parse_rule(&assignment(&parens)).unwrap();

        let chain = vec!["1"; n + 2].join(" * ");
        assert!(parse_rule(&assignment(&chain)).is_err());
        let parens = format!("{}1{}", "(".repeat(n + 1), ")".repeat(n + 1));
        assert!(parse_rule(&assignment(&parens)).is_err());
    }
}

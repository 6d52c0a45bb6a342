//! A recursive-descent parser for the textual PSL subset used by the
//! LA-1 property suite.
//!
//! Grammar (simplified):
//!
//! ```text
//! directive  := ('assert'|'assume'|'cover') IDENT ':' property ';'?
//! property   := 'always' property
//!             | 'never' sere_block
//!             | 'eventually!' sere_block
//!             | 'next' ('!'?) ('[' NUM ']')? property
//!             | implication
//! implication:= until_p ('->' property)?
//! until_p    := seq_or_bool (('until'|'until!'|'before'|'before!') bool_or)?
//! seq_or_bool:= sere_block ('|->' property | '|=>' property | '!')?
//!             | bool_or
//! sere_block := '{' sere '}'
//! sere       := sere_and (';' sere_and | ':' sere_and)*
//! sere_and   := sere_rep ('|' sere_rep | '&&' sere_rep)*      (left assoc)
//! sere_rep   := sere_atom ('[*' (NUM (':' NUM?)?)? ']' | '[+]')*
//! sere_atom  := bool_or | sere_block
//! bool_or    := bool_and ('||' bool_and)*
//! bool_and   := bool_eq ('&&' bool_eq)*
//! bool_eq    := bool_unary (('=='|'^') bool_unary)*
//! bool_unary := '!' bool_unary | '(' bool_or ')' | IDENT | 'true' | 'false'
//! ```

use crate::ast::{BoolExpr, Directive, DirectiveKind, Property, Sere, Severity};
use std::error::Error;
use std::fmt;

/// Error produced when a PSL string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePslError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for ParsePslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "psl parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for ParsePslError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(u32),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Pipe,
    PipeArrow,    // |->
    PipeDblArrow, // |=>
    Arrow,        // ->
    AndAnd,
    OrOr,
    Bang,
    Star,
    Plus,
    Caret,
    EqEq,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn tokens(src: &'a str) -> Result<Vec<(Tok, usize)>, ParsePslError> {
        let mut lx = Lexer { src, pos: 0 };
        let mut out = Vec::new();
        while let Some((tok, at)) = lx.next_token()? {
            out.push((tok, at));
        }
        Ok(out)
    }

    fn next_token(&mut self) -> Result<Option<(Tok, usize)>, ParsePslError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        if self.pos >= bytes.len() {
            return Ok(None);
        }
        let at = self.pos;
        // match multi-byte operators on the raw bytes: slicing the &str
        // at a fixed width could split a multi-byte UTF-8 character and
        // panic, and the parser must never panic on malformed input
        let rest = &bytes[self.pos..];
        let tok = if rest.starts_with(b"|->") {
            self.pos += 3;
            Tok::PipeArrow
        } else if rest.starts_with(b"|=>") {
            self.pos += 3;
            Tok::PipeDblArrow
        } else if rest.starts_with(b"->") {
            self.pos += 2;
            Tok::Arrow
        } else if rest.starts_with(b"&&") {
            self.pos += 2;
            Tok::AndAnd
        } else if rest.starts_with(b"||") {
            self.pos += 2;
            Tok::OrOr
        } else if rest.starts_with(b"==") {
            self.pos += 2;
            Tok::EqEq
        } else {
            let c = bytes[self.pos];
            match c {
                b'{' => {
                    self.pos += 1;
                    Tok::LBrace
                }
                b'}' => {
                    self.pos += 1;
                    Tok::RBrace
                }
                b'(' => {
                    self.pos += 1;
                    Tok::LParen
                }
                b')' => {
                    self.pos += 1;
                    Tok::RParen
                }
                b'[' => {
                    self.pos += 1;
                    Tok::LBracket
                }
                b']' => {
                    self.pos += 1;
                    Tok::RBracket
                }
                b';' => {
                    self.pos += 1;
                    Tok::Semi
                }
                b':' => {
                    self.pos += 1;
                    Tok::Colon
                }
                b'|' => {
                    self.pos += 1;
                    Tok::Pipe
                }
                b'!' => {
                    self.pos += 1;
                    Tok::Bang
                }
                b'*' => {
                    self.pos += 1;
                    Tok::Star
                }
                b'+' => {
                    self.pos += 1;
                    Tok::Plus
                }
                b'^' => {
                    self.pos += 1;
                    Tok::Caret
                }
                b'0'..=b'9' => {
                    let start = self.pos;
                    while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
                        self.pos += 1;
                    }
                    let n: u32 = self.src[start..self.pos]
                        .parse()
                        .map_err(|_| ParsePslError {
                            message: "number too large".into(),
                            offset: start,
                        })?;
                    Tok::Num(n)
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = self.pos;
                    while self.pos < bytes.len()
                        && (bytes[self.pos].is_ascii_alphanumeric()
                            || bytes[self.pos] == b'_'
                            || bytes[self.pos] == b'.')
                    {
                        self.pos += 1;
                    }
                    Tok::Ident(self.src[start..self.pos].to_string())
                }
                other => {
                    return Err(ParsePslError {
                        message: format!("unexpected character {:?}", other as char),
                        offset: at,
                    })
                }
            }
        };
        Ok(Some((tok, at)))
    }
}

/// Nesting bound for the recursive-descent productions. Without it,
/// pathological inputs such as ten thousand `(`s or `!`s would overflow
/// the stack — an abort, not a catchable error — so every recursive
/// entry point descends through [`Parser::descend`].
const MAX_DEPTH: usize = 128;

/// Bound on the state one construct lays out in every monitor: the
/// positions of a SERE's automaton, and the `n` of `next[n]` (a chain
/// of `n` delay registers). Without it a short text such as
/// `{a[*100000000]}` exhausts memory, an abort rather than an error.
/// The largest SERE in the LA-1 suite has 4 positions.
const MAX_POSITIONS: u64 = 1024;

/// The number of positions `Nfa::from_sere` lays out for `s`, or an
/// upper bound on it; saturating, so any count beyond
/// [`MAX_POSITIONS`] stays beyond it.
fn positions(s: &Sere) -> u64 {
    match s {
        Sere::Bool(_) => 1,
        Sere::Concat(a, b) | Sere::Or(a, b) => positions(a).saturating_add(positions(b)),
        Sere::Fusion(a, b) => {
            let (a, b) = (positions(a), positions(b));
            a.saturating_add(b).saturating_add(a.saturating_mul(b))
        }
        Sere::And(a, b) => positions(a).saturating_mul(positions(b)),
        // `[*m:n]` lays out n copies, `[*m:]` m + 1
        Sere::Repeat { sere, min, max } => {
            positions(sere).saturating_mul(max.map_or(u64::from(*min) + 1, u64::from))
        }
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    len: usize,
    depth: usize,
}

impl Parser {
    /// Runs `f` one nesting level deeper, failing cleanly when the
    /// input nests beyond [`MAX_DEPTH`].
    fn descend<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParsePslError>,
    ) -> Result<T, ParsePslError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn at(&self) -> usize {
        self.toks.get(self.pos).map_or(self.len, |&(_, a)| a)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParsePslError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, message: String) -> ParsePslError {
        ParsePslError {
            message,
            offset: self.at(),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Eats the `!` of a strong operator (`next!`, `until!`, `before!`),
    /// which must touch the keyword just consumed: a spaced `next !p`
    /// is the weak `next` of `!p`.
    fn eat_strong(&mut self, kw: &str) -> bool {
        let kw_end = self.toks[self.pos - 1].1 + kw.len();
        self.at() == kw_end && self.eat(&Tok::Bang)
    }

    // ---- properties -----------------------------------------------------

    fn property(&mut self) -> Result<Property, ParsePslError> {
        self.descend(Self::property_inner)
    }

    fn property_inner(&mut self) -> Result<Property, ParsePslError> {
        if self.keyword("always") {
            return Ok(Property::Always(Box::new(self.property()?)));
        }
        if self.keyword("never") {
            let s = self.sere_block()?;
            return Ok(Property::Never(s));
        }
        if self.keyword("eventually") {
            self.expect(&Tok::Bang, "`!` after eventually")?;
            let s = self.sere_block()?;
            return Ok(Property::Eventually(s));
        }
        if self.keyword("next") {
            let strong = self.eat_strong("next");
            let n = if self.eat(&Tok::LBracket) {
                let Some(Tok::Num(n)) = self.bump() else {
                    return Err(self.err("expected cycle count in next[...]".into()));
                };
                self.expect(&Tok::RBracket, "`]`")?;
                if n == 0 {
                    return Err(
                        self.err("next[0] is not allowed; write the property directly".into())
                    );
                }
                if u64::from(n) > MAX_POSITIONS {
                    return Err(
                        self.err(format!("next[{n}] delays more than {MAX_POSITIONS} cycles"))
                    );
                }
                n
            } else {
                1
            };
            let body = self.property()?;
            return Ok(Property::Next {
                n,
                strong,
                body: Box::new(body),
            });
        }
        self.implication()
    }

    fn implication(&mut self) -> Result<Property, ParsePslError> {
        let lhs = self.until_property()?;
        if self.eat(&Tok::Arrow) {
            let Property::Bool(b) = lhs else {
                return Err(self.err(
                    "left-hand side of `->` must be a Boolean expression (simple subset)".into(),
                ));
            };
            let rhs = self.property()?;
            return Ok(Property::Implies(b, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn until_property(&mut self) -> Result<Property, ParsePslError> {
        let lhs = self.seq_or_bool()?;
        for (kw, before) in [("until", false), ("before", true)] {
            if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
                self.pos += 1;
                let strong = self.eat_strong(kw);
                let Property::Bool(p) = lhs else {
                    return Err(self.err(format!(
                        "left-hand side of `{kw}` must be Boolean (simple subset)"
                    )));
                };
                let q = self.bool_or()?;
                return Ok(if before {
                    Property::Before { p, q, strong }
                } else {
                    Property::Until { p, q, strong }
                });
            }
        }
        Ok(lhs)
    }

    fn seq_or_bool(&mut self) -> Result<Property, ParsePslError> {
        if self.peek() == Some(&Tok::LParen) {
            // `( property )` — backtrack to the Boolean reading when the
            // parenthesized body is itself Boolean and a Boolean operator
            // follows, e.g. `(a || b) && c`.
            let save = self.pos;
            self.pos += 1;
            if let Ok(prop) = self.property() {
                if self.eat(&Tok::RParen) {
                    let boolean_continues = matches!(
                        self.peek(),
                        Some(Tok::AndAnd | Tok::OrOr | Tok::Caret | Tok::EqEq)
                    );
                    match prop {
                        Property::Bool(b) if !boolean_continues => return Ok(Property::Bool(b)),
                        Property::Bool(_) => self.pos = save,
                        other => return Ok(other),
                    }
                } else {
                    self.pos = save;
                }
            } else {
                self.pos = save;
            }
        }
        if self.peek() == Some(&Tok::LBrace) {
            let s = self.sere_block()?;
            if self.eat(&Tok::PipeArrow) {
                let post = self.property()?;
                return Ok(Property::SuffixImpl {
                    pre: s,
                    post: Box::new(post),
                    overlap: true,
                });
            }
            if self.eat(&Tok::PipeDblArrow) {
                let post = self.property()?;
                return Ok(Property::SuffixImpl {
                    pre: s,
                    post: Box::new(post),
                    overlap: false,
                });
            }
            if self.eat(&Tok::Bang) {
                return Ok(Property::SereStrong(s));
            }
            // weak plain SERE: treat as strong-with-weak-finalize is out
            // of the simple subset; require an operator.
            return Err(self.err("a plain SERE must be followed by `|->`, `|=>` or `!`".into()));
        }
        Ok(Property::Bool(self.bool_or()?))
    }

    // ---- SEREs -----------------------------------------------------------

    fn sere_block(&mut self) -> Result<Sere, ParsePslError> {
        self.descend(|p| {
            p.expect(&Tok::LBrace, "`{`")?;
            let s = p.sere()?;
            p.expect(&Tok::RBrace, "`}`")?;
            if positions(&s) > MAX_POSITIONS {
                return Err(p.err(format!("SERE needs more than {MAX_POSITIONS} positions")));
            }
            Ok(s)
        })
    }

    fn sere(&mut self) -> Result<Sere, ParsePslError> {
        let mut acc = self.sere_or()?;
        loop {
            if self.eat(&Tok::Semi) {
                let rhs = self.sere_or()?;
                acc = Sere::Concat(Box::new(acc), Box::new(rhs));
            } else if self.eat(&Tok::Colon) {
                let rhs = self.sere_or()?;
                acc = Sere::Fusion(Box::new(acc), Box::new(rhs));
            } else {
                return Ok(acc);
            }
        }
    }

    fn sere_or(&mut self) -> Result<Sere, ParsePslError> {
        let mut acc = self.sere_and()?;
        while self.eat(&Tok::Pipe) {
            let rhs = self.sere_and()?;
            acc = Sere::Or(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn sere_and(&mut self) -> Result<Sere, ParsePslError> {
        let mut acc = self.sere_rep()?;
        while self.peek() == Some(&Tok::AndAnd) {
            // ambiguity: inside a SERE, `a && b` on plain Booleans is the
            // Boolean conjunction; on braced sub-SEREs it is the
            // length-matching SERE conjunction. Both meanings coincide for
            // single-cycle operands, so we always build the SERE form.
            self.pos += 1;
            let rhs = self.sere_rep()?;
            acc = Sere::And(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn sere_rep(&mut self) -> Result<Sere, ParsePslError> {
        let mut acc = self.sere_atom()?;
        while self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            if self.eat(&Tok::Plus) {
                self.expect(&Tok::RBracket, "`]`")?;
                acc = acc.repeat(1, None);
                continue;
            }
            self.expect(&Tok::Star, "`*` or `+` in repetition")?;
            let (min, max) = if self.eat(&Tok::RBracket) {
                (0, None)
            } else {
                let Some(Tok::Num(lo)) = self.bump() else {
                    return Err(self.err("expected repetition count".into()));
                };
                let r = if self.eat(&Tok::Colon) {
                    if let Some(Tok::Num(hi)) = self.peek().cloned() {
                        self.pos += 1;
                        (lo, Some(hi))
                    } else {
                        (lo, None)
                    }
                } else {
                    (lo, Some(lo))
                };
                self.expect(&Tok::RBracket, "`]`")?;
                r
            };
            if let Some(mx) = max {
                if min > mx {
                    return Err(self.err(format!("repetition [{min}:{mx}] has min > max")));
                }
            }
            acc = acc.repeat(min, max);
        }
        Ok(acc)
    }

    fn sere_atom(&mut self) -> Result<Sere, ParsePslError> {
        if self.peek() == Some(&Tok::LBrace) {
            return self.sere_block();
        }
        Ok(Sere::Bool(self.bool_or()?))
    }

    // ---- Boolean layer ----------------------------------------------------

    fn bool_or(&mut self) -> Result<BoolExpr, ParsePslError> {
        let mut acc = self.bool_and()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.bool_and()?;
            acc = BoolExpr::Or(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn bool_and(&mut self) -> Result<BoolExpr, ParsePslError> {
        let mut acc = self.bool_eq()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.bool_eq()?;
            acc = BoolExpr::And(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn bool_eq(&mut self) -> Result<BoolExpr, ParsePslError> {
        let mut acc = self.bool_unary()?;
        loop {
            if self.eat(&Tok::EqEq) {
                let rhs = self.bool_unary()?;
                acc = BoolExpr::Iff(Box::new(acc), Box::new(rhs));
            } else if self.eat(&Tok::Caret) {
                let rhs = self.bool_unary()?;
                acc = BoolExpr::Xor(Box::new(acc), Box::new(rhs));
            } else {
                return Ok(acc);
            }
        }
    }

    fn bool_unary(&mut self) -> Result<BoolExpr, ParsePslError> {
        if self.eat(&Tok::Bang) {
            return self.descend(|p| Ok(BoolExpr::Not(Box::new(p.bool_unary()?))));
        }
        if self.eat(&Tok::LParen) {
            return self.descend(|p| {
                let e = p.bool_or()?;
                p.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            });
        }
        match self.bump() {
            Some(Tok::Ident(s)) if s == "true" => Ok(BoolExpr::Const(true)),
            Some(Tok::Ident(s)) if s == "false" => Ok(BoolExpr::Const(false)),
            Some(Tok::Ident(mut s)) => {
                // allow indexed signals: data[3]
                if self.peek() == Some(&Tok::LBracket) {
                    if let Some((Tok::Num(n), _)) = self.toks.get(self.pos + 1) {
                        if self.toks.get(self.pos + 2).map(|(t, _)| t) == Some(&Tok::RBracket) {
                            s = format!("{s}[{n}]");
                            self.pos += 3;
                        }
                    }
                }
                Ok(BoolExpr::Var(s))
            }
            _ => Err(self.err("expected a Boolean expression".into())),
        }
    }
}

fn make_parser(src: &str) -> Result<Parser, ParsePslError> {
    Ok(Parser {
        toks: Lexer::tokens(src)?,
        pos: 0,
        len: src.len(),
        depth: 0,
    })
}

/// Parses a PSL property such as `always {req} |=> ack`.
///
/// # Errors
///
/// Returns [`ParsePslError`] on malformed input (position included).
pub fn parse_property(src: &str) -> Result<Property, ParsePslError> {
    let mut p = make_parser(src)?;
    let prop = p.property()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after property".into()));
    }
    Ok(prop)
}

/// Parses a braced SERE such as `{req ; busy[*] ; done}`.
///
/// # Errors
///
/// Returns [`ParsePslError`] on malformed input.
pub fn parse_sere(src: &str) -> Result<Sere, ParsePslError> {
    let mut p = make_parser(src)?;
    let s = p.sere_block()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after SERE".into()));
    }
    Ok(s)
}

/// Parses a Boolean-layer expression such as `a && (!b || c)`.
///
/// # Errors
///
/// Returns [`ParsePslError`] on malformed input.
pub fn parse_bool_expr(src: &str) -> Result<BoolExpr, ParsePslError> {
    let mut p = make_parser(src)?;
    let e = p.bool_or()?;
    if p.peek().is_some() {
        return Err(p.err("trailing input after expression".into()));
    }
    Ok(e)
}

/// Parses a verification directive such as
/// `assert read_latency : always {read} |=> valid;`.
///
/// # Errors
///
/// Returns [`ParsePslError`] on malformed input.
pub fn parse_directive(src: &str) -> Result<Directive, ParsePslError> {
    let mut p = make_parser(src)?;
    let kind = if p.keyword("assert") {
        DirectiveKind::Assert
    } else if p.keyword("assume") {
        DirectiveKind::Assume
    } else if p.keyword("cover") {
        DirectiveKind::Cover
    } else {
        return Err(p.err("expected `assert`, `assume` or `cover`".into()));
    };
    let Some(Tok::Ident(name)) = p.bump() else {
        return Err(p.err("expected directive name".into()));
    };
    p.expect(&Tok::Colon, "`:` after directive name")?;
    let property = p.property()?;
    let _ = p.eat(&Tok::Semi);
    if p.peek().is_some() {
        return Err(p.err("trailing input after directive".into()));
    }
    Ok(Directive {
        kind,
        message: format!("{kind} {name} failed"),
        name,
        property,
        severity: Severity::Error,
    })
}

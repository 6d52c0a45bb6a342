//! The PSL abstract syntax: Boolean layer, SEREs, temporal layer and
//! verification directives.

use crate::Valuation;
use std::fmt;

/// A Boolean-layer expression, evaluated within a single cycle.
///
/// ```
/// use la1_psl::{parse_bool_expr, Valuation};
/// let e = parse_bool_expr("a && (!b || c)").unwrap();
/// assert!(e.eval(&[("a", true), ("b", false)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Constant `true` / `false`.
    Const(bool),
    /// A named design signal.
    Var(String),
    /// Negation `!e`.
    Not(Box<BoolExpr>),
    /// Conjunction `a && b`.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction `a || b`.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Exclusive or `a ^ b`.
    Xor(Box<BoolExpr>, Box<BoolExpr>),
    /// Implication `a -> b` at the Boolean layer.
    Implies(Box<BoolExpr>, Box<BoolExpr>),
    /// Equivalence `a == b`.
    Iff(Box<BoolExpr>, Box<BoolExpr>),
}

impl BoolExpr {
    /// Shorthand for a signal reference.
    pub fn var(name: impl Into<String>) -> Self {
        BoolExpr::Var(name.into())
    }

    /// Evaluates the expression against the given cycle snapshot.
    pub fn eval<V: Valuation + ?Sized>(&self, env: &V) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(name) => env.value(name),
            BoolExpr::Not(e) => !e.eval(env),
            BoolExpr::And(a, b) => a.eval(env) && b.eval(env),
            BoolExpr::Or(a, b) => a.eval(env) || b.eval(env),
            BoolExpr::Xor(a, b) => a.eval(env) ^ b.eval(env),
            BoolExpr::Implies(a, b) => !a.eval(env) || b.eval(env),
            BoolExpr::Iff(a, b) => a.eval(env) == b.eval(env),
        }
    }

    /// All signal names referenced, ascending, deduplicated.
    pub fn signals(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out.sort();
        out.dedup();
        out
    }

    pub(crate) fn collect_signals(&self, out: &mut Vec<String>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(n) => out.push(n.clone()),
            BoolExpr::Not(e) => e.collect_signals(out),
            BoolExpr::And(a, b)
            | BoolExpr::Or(a, b)
            | BoolExpr::Xor(a, b)
            | BoolExpr::Implies(a, b)
            | BoolExpr::Iff(a, b) => {
                a.collect_signals(out);
                b.collect_signals(out);
            }
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{b}"),
            BoolExpr::Var(n) => write!(f, "{n}"),
            BoolExpr::Not(e) => write!(f, "!({e})"),
            BoolExpr::And(a, b) => write!(f, "({a} && {b})"),
            BoolExpr::Or(a, b) => write!(f, "({a} || {b})"),
            BoolExpr::Xor(a, b) => write!(f, "({a} ^ {b})"),
            BoolExpr::Implies(a, b) => write!(f, "({a} -> {b})"),
            BoolExpr::Iff(a, b) => write!(f, "({a} == {b})"),
        }
    }
}

/// A Sequential Extended Regular Expression — PSL's multi-cycle pattern.
///
/// SEREs describe sets of finite trace segments. They are written inside
/// braces in the textual syntax: `{req ; busy[*] ; done}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sere {
    /// A single cycle in which the Boolean holds.
    Bool(BoolExpr),
    /// `a ; b` — `b` starts the cycle after `a` ends.
    Concat(Box<Sere>, Box<Sere>),
    /// `a : b` — fusion: `b` starts on the cycle `a` ends.
    Fusion(Box<Sere>, Box<Sere>),
    /// `a | b` — either matches.
    Or(Box<Sere>, Box<Sere>),
    /// `a && b` — both match over the same cycles (length-matching).
    And(Box<Sere>, Box<Sere>),
    /// `a[*min:max]` — consecutive repetition; `max = None` is unbounded.
    /// `[*]` is `[*0:∞]`, `[+]` is `[*1:∞]`, `[*n]` is `[*n:n]`.
    Repeat {
        /// The repeated sub-expression.
        sere: Box<Sere>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions (`None` = unbounded).
        max: Option<u32>,
    },
}

impl Sere {
    /// Shorthand for a single-cycle Boolean SERE over one signal.
    pub fn signal(name: impl Into<String>) -> Self {
        Sere::Bool(BoolExpr::var(name))
    }

    /// `self ; other`.
    pub fn then(self, other: Sere) -> Sere {
        Sere::Concat(Box::new(self), Box::new(other))
    }

    /// `self[*min:max]`.
    pub fn repeat(self, min: u32, max: Option<u32>) -> Sere {
        Sere::Repeat {
            sere: Box::new(self),
            min,
            max,
        }
    }

    /// All signal names referenced, ascending, deduplicated.
    pub fn signals(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out.sort();
        out.dedup();
        out
    }

    pub(crate) fn collect_signals(&self, out: &mut Vec<String>) {
        match self {
            Sere::Bool(b) => b.collect_signals(out),
            Sere::Concat(a, b) | Sere::Fusion(a, b) | Sere::Or(a, b) | Sere::And(a, b) => {
                a.collect_signals(out);
                b.collect_signals(out);
            }
            Sere::Repeat { sere, .. } => sere.collect_signals(out),
        }
    }
}

impl fmt::Display for Sere {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sere::Bool(b) => write!(f, "{b}"),
            Sere::Concat(a, b) => write!(f, "{a} ; {b}"),
            Sere::Fusion(a, b) => write!(f, "{a} : {b}"),
            Sere::Or(a, b) => write!(f, "{{{a}}} | {{{b}}}"),
            Sere::And(a, b) => write!(f, "{{{a}}} && {{{b}}}"),
            Sere::Repeat { sere, min, max } => match (min, max) {
                (0, None) => write!(f, "{{{sere}}}[*]"),
                (1, None) => write!(f, "{{{sere}}}[+]"),
                (m, None) => write!(f, "{{{sere}}}[*{m}:]"),
                (m, Some(x)) if m == x => write!(f, "{{{sere}}}[*{m}]"),
                (m, Some(x)) => write!(f, "{{{sere}}}[*{m}:{x}]"),
            },
        }
    }
}

/// A temporal-layer property (PSL simple subset).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Property {
    /// A Boolean that must hold in the property's start cycle.
    Bool(BoolExpr),
    /// `always p` — `p` holds starting at every cycle.
    Always(Box<Property>),
    /// `never {r}` — the SERE never matches any segment of the trace.
    Never(Sere),
    /// `eventually! {r}` — the SERE matches some segment (strong).
    Eventually(Sere),
    /// `next[n] p` / `next![n] p` — `p` holds `n` cycles later.
    /// A strong `next!` fails if the trace ends before cycle `n`.
    Next {
        /// Number of cycles to skip (1 for plain `next`).
        n: u32,
        /// Strong variant: the later cycle must exist.
        strong: bool,
        /// The delayed property.
        body: Box<Property>,
    },
    /// `p until q` / `p until! q` — `p` holds every cycle strictly before
    /// the first cycle where `q` holds. Strong requires `q` to occur.
    Until {
        /// Holds while waiting.
        p: BoolExpr,
        /// The releasing condition.
        q: BoolExpr,
        /// Strong variant: `q` must eventually hold.
        strong: bool,
    },
    /// `p before q` / `p before! q` — `p` occurs strictly before `q`.
    /// Strong requires `p` to occur even if `q` never does.
    Before {
        /// The event that must come first.
        p: BoolExpr,
        /// The event it must precede.
        q: BoolExpr,
        /// Strong variant.
        strong: bool,
    },
    /// `b -> p` — if the Boolean holds now, the property holds now.
    Implies(BoolExpr, Box<Property>),
    /// `{r} |-> p` (overlap) / `{r} |=> p` — whenever the SERE matches,
    /// the property holds starting at the match's last (`|->`) or
    /// following (`|=>`) cycle.
    SuffixImpl {
        /// The triggering SERE.
        pre: Sere,
        /// The consequent property.
        post: Box<Property>,
        /// `true` for `|->`, `false` for `|=>`.
        overlap: bool,
    },
    /// `{r}!` — the SERE matches a prefix of the trace (strong).
    SereStrong(Sere),
    /// `p && q` at the property level.
    And(Box<Property>, Box<Property>),
}

impl Property {
    /// Convenience: `always self`.
    pub fn always(self) -> Property {
        Property::Always(Box::new(self))
    }

    /// All signal names referenced, ascending, deduplicated.
    pub fn signals(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_signals(&self, out: &mut Vec<String>) {
        match self {
            Property::Bool(b) => b.collect_signals(out),
            Property::Always(p) => p.collect_signals(out),
            Property::Never(s) | Property::Eventually(s) | Property::SereStrong(s) => {
                s.collect_signals(out)
            }
            Property::Next { body, .. } => body.collect_signals(out),
            Property::Until { p, q, .. } | Property::Before { p, q, .. } => {
                p.collect_signals(out);
                q.collect_signals(out);
            }
            Property::Implies(b, p) => {
                b.collect_signals(out);
                p.collect_signals(out);
            }
            Property::SuffixImpl { pre, post, .. } => {
                pre.collect_signals(out);
                post.collect_signals(out);
            }
            Property::And(a, b) => {
                a.collect_signals(out);
                b.collect_signals(out);
            }
        }
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Property::Bool(b) => write!(f, "{b}"),
            Property::Always(p) => write!(f, "always {p}"),
            Property::Never(s) => write!(f, "never {{{s}}}"),
            Property::Eventually(s) => write!(f, "eventually! {{{s}}}"),
            Property::Next { n, strong, body } => {
                let bang = if *strong { "!" } else { "" };
                if *n == 1 {
                    write!(f, "next{bang} {body}")
                } else {
                    write!(f, "next{bang}[{n}] {body}")
                }
            }
            Property::Until { p, q, strong } => {
                write!(f, "{p} until{} {q}", if *strong { "!" } else { "" })
            }
            Property::Before { p, q, strong } => {
                write!(f, "{p} before{} {q}", if *strong { "!" } else { "" })
            }
            Property::Implies(b, p) => write!(f, "{b} -> ({p})"),
            Property::SuffixImpl { pre, post, overlap } => {
                write!(
                    f,
                    "{{{pre}}} {} {post}",
                    if *overlap { "|->" } else { "|=>" }
                )
            }
            Property::SereStrong(s) => write!(f, "{{{s}}}!"),
            Property::And(a, b) => write!(f, "({a}) && ({b})"),
        }
    }
}

/// Severity of a failed directive, mirroring OVL's classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Severity {
    /// Informational only.
    Note,
    /// A minor problem; simulation may continue.
    Warning,
    /// A major problem (OVL default).
    #[default]
    Error,
    /// Fatal: the host should stop the simulation.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Fatal => "fatal",
        };
        f.write_str(s)
    }
}

/// What the verification layer asks the tool to do with a property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectiveKind {
    /// Prove/monitor that the property holds.
    Assert,
    /// Constrain inputs (used by the SMC to restrict the environment).
    Assume,
    /// Check that the property's trigger is reachable.
    Cover,
}

impl fmt::Display for DirectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DirectiveKind::Assert => "assert",
            DirectiveKind::Assume => "assume",
            DirectiveKind::Cover => "cover",
        };
        f.write_str(s)
    }
}

/// A verification-layer directive: a named property with a kind and
/// severity, e.g. `assert read_latency : always {r} |=> d;`.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// Verification-layer keyword.
    pub kind: DirectiveKind,
    /// Name used in reports.
    pub name: String,
    /// The property body.
    pub property: Property,
    /// Failure severity.
    pub severity: Severity,
    /// Message to display on failure.
    pub message: String,
}

impl Directive {
    /// Creates an `assert` directive with [`Severity::Error`] and a
    /// default message.
    pub fn assert(name: impl Into<String>, property: Property) -> Self {
        let name = name.into();
        Directive {
            kind: DirectiveKind::Assert,
            message: format!("assertion {name} failed"),
            name,
            property,
            severity: Severity::Error,
        }
    }

    /// Creates a `cover` directive.
    pub fn cover(name: impl Into<String>, property: Property) -> Self {
        let name = name.into();
        Directive {
            kind: DirectiveKind::Cover,
            message: format!("cover {name} never hit"),
            name,
            property,
            severity: Severity::Warning,
        }
    }
}

impl fmt::Display for Directive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} : {};", self.kind, self.name, self.property)
    }
}

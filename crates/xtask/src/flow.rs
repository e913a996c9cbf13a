//! `determinism-taint`: intraprocedural wall-clock taint on the token stream.
//!
//! Values derived from `Instant::now()`, `SystemTime::now()`, `.elapsed()`
//! or `span::drain()` are tracked through `let` bindings, assignment and
//! every expression form inside one function body, and flagged when they
//! flow into sim-state writes (field or index assignments), event scheduling
//! (`schedule*`), trace payloads (`record`) or `SimTime` / `SimDuration` /
//! `SimRng` constructors. Clippy's `disallowed_methods` bans the *read*
//! outside the sanctioned sites; this pass is what holds the sanctioned
//! sites (`obs::span`, `desim::supervise`) to measuring the simulation
//! without steering it — a flow, which no clippy lint expresses.
//!
//! This is a lexer-level abstract interpreter, not a type checker: an
//! unknown name is untainted, so what it cannot follow reduces coverage and
//! never produces noise.

use std::collections::BTreeMap;

use crate::lex::{Kind, Tok};
use crate::rules::{fn_signature, is_ident, is_punct, skip_generics, split_commas};
use crate::{Ctx, Rule, Sink};

/// Event-plane / trace-plane sinks: a wall-clock-tainted argument here means
/// profiling data is steering the simulation.
const TAINT_SINK_CALLS: &[&str] = &["schedule", "schedule_at", "schedule_in", "record"];

/// Run the taint pass over every function body in the file (test code
/// included: a test steered by the clock is a flaky test).
pub(crate) fn taint_pass<'c, 'a>(ctx: &'c Ctx<'a>, sink: &mut Sink<'c, 'a>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        if !is_ident(code[i], "fn") {
            continue;
        }
        let Some((_, _, close)) = fn_signature(code, i) else {
            continue;
        };
        // Body: first `{` after the signature (a `;` first means a
        // trait-method declaration with no body).
        let mut b = close + 1;
        while b < code.len() && !is_punct(code[b], "{") && !is_punct(code[b], ";") {
            b += 1;
        }
        if b < code.len() && is_punct(code[b], "{") {
            let mut scan = Scan {
                ctx,
                sink,
                env: Vec::new(),
            };
            scan.scan_block(b + 1, matching_brace(code, b));
        }
    }
}

/// Index of the `}` matching the `{` at `open` (depth-accurate via the
/// lexer's brace tracking).
fn matching_brace(code: &[&Tok], open: usize) -> usize {
    let d = code[open].depth;
    let mut j = open + 1;
    while j < code.len() {
        if is_punct(code[j], "}") && code[j].depth == d {
            return j;
        }
        j += 1;
    }
    code.len()
}

/// Index of the matching closer for a single-char delimiter pair.
fn matching_pair(code: &[&Tok], open: usize, end: usize, o: &str, c: &str) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < end {
        if is_punct(code[j], o) {
            depth += 1;
        } else if is_punct(code[j], c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end
}

/// Paren / bracket / brace nesting while walking a token range.
#[derive(Default)]
struct Nest(i64, i64, i64);

impl Nest {
    /// Account for `t`; returns whether `t` itself sits at nesting zero
    /// (an opener counts as nested, its closer as back at zero).
    fn step(&mut self, t: &Tok) -> bool {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" => self.0 += 1,
                ")" => self.0 -= 1,
                "[" => self.1 += 1,
                "]" => self.1 -= 1,
                "{" => self.2 += 1,
                "}" => self.2 -= 1,
                _ => {}
            }
        }
        self.0 == 0 && self.1 == 0 && self.2 == 0
    }
}

const CONTROL_KWS: &[&str] = &["if", "while", "for", "loop", "match", "unsafe"];

const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
];

struct Scan<'x, 'c, 'a> {
    ctx: &'c Ctx<'a>,
    sink: &'x mut Sink<'c, 'a>,
    /// Lexically-scoped "is this local wall-clock-derived", innermost last.
    env: Vec<BTreeMap<String, bool>>,
}

impl<'c> Scan<'_, 'c, '_> {
    fn code(&self) -> &'c [&'c Tok] {
        &self.ctx.code
    }

    fn lookup(&self, name: &str) -> bool {
        self.env
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .copied()
            .unwrap_or(false)
    }

    fn bind(&mut self, name: &str, tainted: bool) {
        if let Some(top) = self.env.last_mut() {
            top.insert(name.to_string(), tainted);
        }
    }

    fn violation(&mut self, tok: &Tok, msg: String) {
        self.sink
            .push(tok.line as usize, tok.col as usize, Rule::DetTaint, msg);
    }

    /// Scan the statements between a `{`'s interior bounds.
    fn scan_block(&mut self, s: usize, e: usize) {
        self.env.push(BTreeMap::new());
        let code = self.code();
        let mut i = s;
        while i < e {
            let t = code[i];
            if is_punct(t, ";") {
                i += 1;
                continue;
            }
            if is_ident(t, "let") {
                let semi = self.find_semi(i, e);
                self.handle_let(i + 1, semi);
                i = semi + 1;
                continue;
            }
            if is_ident(t, "fn") {
                // Nested fn: skip here; the outer pass visits it separately.
                if let Some((_, _, close)) = fn_signature(code, i) {
                    let mut b = close + 1;
                    while b < e && !is_punct(code[b], "{") && !is_punct(code[b], ";") {
                        b += 1;
                    }
                    if b < e && is_punct(code[b], "{") {
                        i = matching_brace(code, b) + 1;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            if t.kind == Kind::Ident && CONTROL_KWS.contains(&t.text.as_str()) {
                i = self.scan_control(i, e);
                continue;
            }
            if is_punct(t, "{") {
                let close = matching_brace(code, i);
                self.scan_block(i + 1, close);
                i = close + 1;
                continue;
            }
            let semi = self.find_semi(i, e);
            self.handle_stmt(i, semi);
            i = semi + 1;
        }
        self.env.pop();
    }

    /// First `;` at zero nesting in `[s, e)`, else `e`.
    fn find_semi(&self, s: usize, e: usize) -> usize {
        let code = self.code();
        let mut nest = Nest::default();
        (s..e)
            .find(|&j| nest.step(code[j]) && is_punct(code[j], ";"))
            .unwrap_or(e)
    }

    /// First top-level assignment operator from `ops` in `[s, e)`.
    fn find_assign(&self, s: usize, e: usize, ops: &[&str]) -> Option<usize> {
        let code = self.code();
        let mut nest = Nest::default();
        (s..e).find(|&j| {
            nest.step(code[j])
                && code[j].kind == Kind::Punct
                && ops.contains(&code[j].text.as_str())
        })
    }

    /// An `if`/`while`/`for`/`loop`/`match`/`unsafe` construct (or a bare
    /// block) starting at `i`; returns the index just past it.
    fn scan_control(&mut self, i: usize, e: usize) -> usize {
        let code = self.code();
        if is_punct(code[i], "{") {
            let close = matching_brace(code, i);
            self.scan_block(i + 1, close);
            return close + 1;
        }
        let is_if = is_ident(code[i], "if");
        let mut j = i + 1;
        loop {
            // Header stretch up to the construct's `{`.
            let hs = j;
            let (mut p, mut bk) = (0i64, 0i64);
            while j < e {
                let u = code[j];
                if u.kind == Kind::Punct {
                    match u.text.as_str() {
                        "(" => p += 1,
                        ")" => p -= 1,
                        "[" => bk += 1,
                        "]" => bk -= 1,
                        "{" if p == 0 && bk == 0 => break,
                        ";" if p == 0 && bk == 0 => {
                            self.scan_region(hs, j);
                            return j + 1;
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            self.scan_region(hs, j);
            if j >= e {
                return e;
            }
            let close = matching_brace(code, j);
            self.scan_block(j + 1, close);
            j = close + 1;
            // `else` / `else if` chains.
            if is_if && j < e && is_ident(code[j], "else") {
                j += 1;
                if j < e && is_ident(code[j], "if") {
                    j += 1;
                }
                continue;
            }
            return j;
        }
    }

    /// `let [mut] PAT [: ty] [= expr]` (tokens after the `let` keyword).
    fn handle_let(&mut self, s: usize, e: usize) {
        let code = self.code();
        let mut i = s;
        if i < e && is_ident(code[i], "mut") {
            i += 1;
        }
        let single = i < e
            && code[i].kind == Kind::Ident
            && code
                .get(i + 1)
                .is_some_and(|t| is_punct(t, ":") || is_punct(t, "=") || i + 1 == e);
        if !single {
            // Pattern binding (`let (a, b) = …`, `let Some(x) = …`): every
            // pattern ident takes the initializer's taint.
            let eq = self.find_assign(s, e, &["="]);
            let tainted = eq.is_some_and(|eq| self.scan_region(eq + 1, e));
            for t in &code[s..eq.unwrap_or(e)] {
                if t.kind == Kind::Ident
                    && !matches!(
                        t.text.as_str(),
                        "mut" | "ref" | "Some" | "Ok" | "Err" | "None"
                    )
                {
                    self.bind(&t.text, tainted);
                }
            }
            return;
        }
        let mut j = i + 1;
        if j < e && is_punct(code[j], ":") {
            j = self.find_assign(j, e, &["="]).unwrap_or(e);
        }
        let tainted = j < e && is_punct(code[j], "=") && self.scan_region(j + 1, e);
        self.bind(&code[i].text, tainted);
    }

    /// A non-`let` statement: assignment or bare expression.
    fn handle_stmt(&mut self, s: usize, e: usize) {
        let code = self.code();
        let Some(op_idx) = self.find_assign(s, e, ASSIGN_OPS) else {
            self.scan_region(s, e);
            return;
        };
        let rhs_tainted = self.scan_region(op_idx + 1, e);
        // Left-hand side: a plain local, or a field/index path (state write).
        let mut ls = s;
        while ls < op_idx && (is_punct(code[ls], "*") || is_punct(code[ls], "&")) {
            ls += 1;
        }
        let is_state_write = (ls..op_idx).any(|k| is_punct(code[k], ".") || is_punct(code[k], "["));
        // Scan any index expressions inside the lhs.
        let mut k = ls;
        while k < op_idx {
            if is_punct(code[k], "[") {
                let close = matching_pair(code, k, op_idx, "[", "]");
                self.scan_region(k + 1, close);
                k = close + 1;
            } else {
                k += 1;
            }
        }
        if is_state_write && rhs_tainted {
            self.violation(
                code[op_idx],
                "wall-clock-derived value written into simulation state; profiling may \
                 measure the simulation but must never steer it (keep wall-clock reads \
                 inside obs::span)"
                    .to_string(),
            );
        }
        // Update a plain-local binding.
        if op_idx - ls == 1 && code[ls].kind == Kind::Ident {
            let name = &code[ls].text;
            let compound = code[op_idx].text != "=";
            let tainted = rhs_tainted || (compound && self.lookup(name));
            self.bind(name, tainted);
        }
    }

    /// A region: an expression stretch possibly containing barrier tokens
    /// (`,`, `=>`, `&&`, `||`, `;`, `return`, `else`, `in`, `let`) and
    /// blocks. Scans every segment; tainted if any segment is.
    fn scan_region(&mut self, s: usize, e: usize) -> bool {
        let code = self.code();
        let mut nest = Nest::default();
        let mut tainted = false;
        let mut seg = s;
        for j in s..e {
            let t = code[j];
            let top = nest.step(t);
            let barrier = top
                && match t.kind {
                    Kind::Punct => matches!(t.text.as_str(), "," | "=>" | "&&" | "||" | ";"),
                    Kind::Ident => matches!(t.text.as_str(), "return" | "else" | "in" | "let"),
                    _ => false,
                };
            if barrier {
                tainted |= self.scan_segment(seg, j);
                seg = j + 1;
            }
        }
        tainted | self.scan_segment(seg, e)
    }

    /// One barrier-free segment: a primary expression plus its postfix chain
    /// (calls, fields, indexing, casts, `?`); whatever follows an operator is
    /// scanned as a region of its own and joins the taint.
    fn scan_segment(&mut self, s: usize, e: usize) -> bool {
        let code = self.code();
        let mut i = s;
        // Unary prefixes.
        while i < e
            && (code[i].kind == Kind::Punct
                && matches!(code[i].text.as_str(), "&" | "&&" | "*" | "-" | "!")
                || is_ident(code[i], "mut"))
        {
            i += 1;
        }
        if i >= e {
            return false;
        }
        let mut tainted = false;
        let t = code[i];
        match t.kind {
            Kind::Float | Kind::Int | Kind::Str | Kind::Char | Kind::Lifetime => i += 1,
            Kind::Punct if t.text == "(" => {
                let close = matching_pair(code, i, e, "(", ")");
                tainted = self.scan_region(i + 1, close);
                i = close + 1;
            }
            Kind::Punct if t.text == "{" => {
                let close = matching_brace(code, i);
                self.scan_block(i + 1, close);
                i = close + 1;
            }
            Kind::Punct if t.text == "|" => {
                // Closure: find the closing `|`, bind nothing, scan the body.
                let mut j = i + 1;
                while j < e && !is_punct(code[j], "|") {
                    j += 1;
                }
                return self.scan_region(j + 1, e);
            }
            Kind::Ident if CONTROL_KWS.contains(&t.text.as_str()) => {
                self.scan_control(i, e);
                return false;
            }
            Kind::Ident => {
                // Path: ident (:: ident | ::<…>)*
                let mut path: Vec<&str> = vec![&t.text];
                let mut j = i + 1;
                while j + 1 < e && is_punct(code[j], "::") {
                    if is_punct(code[j + 1], "<") {
                        j = skip_generics(code, j + 1);
                    } else if code[j + 1].kind == Kind::Ident {
                        path.push(&code[j + 1].text);
                        j += 2;
                    } else {
                        break;
                    }
                }
                if j < e && is_punct(code[j], "(") {
                    let close = matching_pair(code, j, e, "(", ")");
                    tainted = self.call(&path, t, j + 1, close);
                    i = close + 1;
                } else if j < e
                    && is_punct(code[j], "!")
                    && code
                        .get(j + 1)
                        .is_some_and(|n| is_punct(n, "(") || is_punct(n, "[") || is_punct(n, "{"))
                {
                    // Macro invocation: scan the arguments as a region.
                    let close = match code[j + 1].text.as_str() {
                        "(" => matching_pair(code, j + 1, e, "(", ")"),
                        "[" => matching_pair(code, j + 1, e, "[", "]"),
                        _ => matching_brace(code, j + 1),
                    };
                    tainted = self.scan_region(j + 2, close);
                    i = close + 1;
                } else {
                    if let [name] = path.as_slice() {
                        tainted = self.lookup(name);
                    }
                    i = j;
                }
            }
            // Unrecognized leading token: skip it, scan the rest.
            _ => return self.scan_region(i + 1, e),
        }
        // Postfix chain.
        while i < e {
            let t = code[i];
            if is_punct(t, ".") && code.get(i + 1).is_some_and(|n| n.kind == Kind::Ident) {
                let m = code[i + 1];
                let mut j = i + 2;
                if j + 1 < e && is_punct(code[j], "::") && is_punct(code[j + 1], "<") {
                    j = skip_generics(code, j + 1); // turbofish
                }
                if j < e && is_punct(code[j], "(") {
                    let close = matching_pair(code, j, e, "(", ")");
                    tainted = self.method(tainted, m, j + 1, close);
                    i = close + 1;
                } else {
                    i += 2; // field access (or tuple index) keeps the taint
                }
            } else if is_punct(t, "[") {
                let close = matching_pair(code, i, e, "[", "]");
                tainted |= self.scan_region(i + 1, close);
                i = close + 1;
            } else if is_punct(t, "?") {
                i += 1;
            } else if is_ident(t, "as") {
                // Cast: consume the type.
                i += 1;
                while i < e
                    && (code[i].kind == Kind::Ident
                        || is_punct(code[i], "::")
                        || is_punct(code[i], "<")
                        || is_punct(code[i], ">"))
                {
                    i += 1;
                }
            } else {
                // An operator ends the chain; its right-hand side joins.
                return tainted | self.scan_region(i + 1, e);
            }
        }
        tainted
    }

    /// A free/path call `path(args)`.
    fn call(&mut self, path: &[&str], at: &Tok, args_s: usize, args_e: usize) -> bool {
        let mut any_tainted = false;
        for (s, e) in split_commas(self.code(), args_s, args_e) {
            any_tainted |= self.scan_region(s, e);
        }
        let last = path.last().copied().unwrap_or("");
        let penult = path.len().checked_sub(2).map_or("", |k| path[k]);
        // Taint sinks: scheduling, tracing, sim-time/RNG construction.
        if any_tainted {
            if TAINT_SINK_CALLS.contains(&last) {
                self.violation(
                    at,
                    format!(
                        "wall-clock-derived value passed to `{}` — profiling data must not \
                         reach the event queue or trace payloads",
                        path.join("::")
                    ),
                );
            }
            if (penult == "SimTime" || penult == "SimDuration") && last.starts_with("from")
                || (penult == "SimRng" && last == "new")
            {
                self.violation(
                    at,
                    format!(
                        "wall-clock-derived value used to construct `{}` — simulation \
                         time/randomness must derive only from the seed",
                        path.join("::")
                    ),
                );
            }
        }
        // Taint sources: the wall clock, and the span totals read from it.
        any_tainted
            || (last == "now" && (penult == "Instant" || penult == "SystemTime"))
            || (last == "drain" && path.contains(&"span"))
    }

    /// A method call `recv.m(args)`; `recv_tainted` is the receiver's taint.
    fn method(&mut self, recv_tainted: bool, m: &Tok, args_s: usize, args_e: usize) -> bool {
        let mut any_tainted = false;
        for (s, e) in split_commas(self.code(), args_s, args_e) {
            any_tainted |= self.scan_segment(s, e);
        }
        let name = m.text.as_str();
        if any_tainted && TAINT_SINK_CALLS.contains(&name) {
            self.violation(
                m,
                format!(
                    "wall-clock-derived value passed to `.{name}()` — profiling data must \
                     not reach the event queue or trace payloads"
                ),
            );
        }
        recv_tainted || any_tainted || name == "elapsed"
    }
}

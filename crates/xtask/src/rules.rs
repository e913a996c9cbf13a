//! `index-literal` and `unit-suffix`: token-pattern and signature scanning.
//!
//! Everything here pattern-matches the comment-stripped token stream
//! ([`crate::Ctx::code`]) — strings, chars, raw strings and comments are
//! whole tokens, so an `xs[0]` inside a multi-line raw string or in prose
//! cannot fire.

use crate::lex::{Kind, Tok};
use crate::{is_attr, lacks_unit, rename_hint, skip_attr, Ctx, Rule, Violation};

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == Kind::Ident && t.text == s
}

pub(crate) fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == Kind::Punct && t.text == s
}

/// `index-literal`: indexing by an integer literal (`xs[0]`, `xs[0usize]`,
/// `xs[1_000]`) without a comment on the same or the preceding line. Test
/// code is exempt.
pub(crate) fn index_literal(ctx: &Ctx, out: &mut Vec<Violation>) {
    let code = &ctx.code;
    for i in 1..code.len() {
        let t = code[i];
        let line = t.line as usize;
        let indexes_a_value = code[i - 1].kind == Kind::Ident
            || is_punct(code[i - 1], ")")
            || is_punct(code[i - 1], "]");
        if !(is_punct(t, "[") && indexes_a_value) || ctx.is_test_line(line) {
            continue;
        }
        let literal = code.get(i + 1).is_some_and(|n| n.kind == Kind::Num)
            && code.get(i + 2).is_some_and(|n| is_punct(n, "]"));
        if literal && !ctx.has_comment(line) {
            let col = t.col as usize;
            out.push(ctx.finding(
                t,
                Rule::IndexLiteral,
                format!(
                    "literal index at column {col} without a bound-justifying comment on \
                     this or the preceding line"
                ),
            ));
        }
    }
}

/// Count angle-bracket nesting contributed by one punct token's characters.
/// `->` / `=>` never open or close a generic list and are skipped whole.
fn angle_delta(t: &Tok) -> i64 {
    if t.kind != Kind::Punct || t.text == "->" || t.text == "=>" {
        return 0;
    }
    t.text
        .chars()
        .map(|c| match c {
            '<' => 1,
            '>' => -1,
            _ => 0,
        })
        .sum()
}

/// Starting at `i` (which must point at `<`), return the index just past the
/// matching `>`, counting angle characters across multi-char puncts.
fn skip_generics(code: &[&Tok], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < code.len() {
        depth += angle_delta(code[j]);
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// Split `code[range]` at top-level commas (parens, brackets, braces and
/// angles all count as nesting). Returns index ranges.
fn split_commas(code: &[&Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut paren, mut bracket, mut brace, mut angle) = (0i64, 0i64, 0i64, 0i64);
    let mut seg = start;
    for (j, &t) in code.iter().enumerate().take(end).skip(start) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => brace += 1,
                "}" => brace -= 1,
                "," if paren == 0 && bracket == 0 && brace == 0 && angle <= 0 => {
                    out.push((seg, j));
                    seg = j + 1;
                    continue;
                }
                _ => {}
            }
            angle += angle_delta(t);
        }
    }
    if seg < end {
        out.push((seg, end));
    }
    out
}

/// Is the token range exactly the type `f64`?
fn is_f64_type(code: &[&Tok], start: usize, end: usize) -> bool {
    end - start == 1 && is_ident(code[start], "f64")
}

/// `unit-suffix` over signatures: `pub fn` params and return types, and
/// struct fields.
pub(crate) fn unit_suffix(ctx: &Ctx, out: &mut Vec<Violation>) {
    let code = &ctx.code;
    let mut i = 0;
    while i < code.len() {
        if is_ident(code[i], "struct") {
            i = check_struct_fields(ctx, out, i);
            continue;
        }
        if is_ident(code[i], "fn") {
            i = check_pub_fn(ctx, out, i);
            continue;
        }
        i += 1;
    }
}

/// Returns the index to resume scanning from.
fn check_struct_fields(ctx: &Ctx, out: &mut Vec<Violation>, i: usize) -> usize {
    let code = &ctx.code;
    let Some(name) = code.get(i + 1) else {
        return i + 1;
    };
    if name.kind != Kind::Ident {
        return i + 1;
    }
    let mut j = i + 2;
    if code.get(j).is_some_and(|t| is_punct(t, "<")) {
        j = skip_generics(code, j);
    }
    // Skip `where` clauses up to the body.
    while j < code.len()
        && !is_punct(code[j], "{")
        && !is_punct(code[j], "(")
        && !is_punct(code[j], ";")
    {
        j += 1;
    }
    let Some(open) = code.get(j) else { return j };
    if !is_punct(open, "{") {
        return j + 1; // tuple or unit struct: no named fields to check
    }
    let body_depth = open.depth;
    let mut k = j + 1;
    // Walk named fields until the matching `}`.
    while k < code.len() {
        let t = code[k];
        if is_punct(t, "}") && t.depth == body_depth {
            return k + 1;
        }
        if is_attr(code, k) {
            k = skip_attr(code, k);
            continue;
        }
        // Optional visibility.
        if is_ident(t, "pub") {
            k += 1;
            if code.get(k).is_some_and(|n| is_punct(n, "(")) {
                while k < code.len() && !is_punct(code[k], ")") {
                    k += 1;
                }
                k += 1;
            }
            continue;
        }
        // Field: `name : type ,`
        if t.kind == Kind::Ident && code.get(k + 1).is_some_and(|n| is_punct(n, ":")) {
            // Find the end of the type: top-level comma or the closing brace.
            let ty_start = k + 2;
            let mut ty_end = ty_start;
            let (mut paren, mut bracket, mut angle) = (0i64, 0i64, 0i64);
            while ty_end < code.len() {
                let u = code[ty_end];
                if is_punct(u, "}") && u.depth == body_depth {
                    break;
                }
                if u.kind == Kind::Punct {
                    match u.text.as_str() {
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        "," if paren == 0 && bracket == 0 && angle <= 0 => break,
                        _ => {}
                    }
                    angle += angle_delta(u);
                }
                ty_end += 1;
            }
            let fline = t.line as usize;
            if is_f64_type(code, ty_start, ty_end)
                && !ctx.is_test_line(fline)
                && lacks_unit(&t.text)
            {
                out.push(ctx.finding(
                    t,
                    Rule::UnitSuffix,
                    format!(
                        "struct field `{}: f64` carries a dimension but no unit suffix; {}",
                        t.text,
                        rename_hint()
                    ),
                ));
            }
            k = ty_end + 1;
            continue;
        }
        k += 1;
    }
    k
}

/// Is the `fn` at index `i` preceded by a `pub` (skipping `const`, `unsafe`,
/// `async`, `extern "..."` and a visibility-path group)?
fn fn_is_pub(code: &[&Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = code[j];
        match t.kind {
            Kind::Ident if matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern") => {
                continue
            }
            Kind::Str => continue, // extern ABI string
            Kind::Punct if t.text == ")" => {
                // Possible `pub(crate)` group: rewind to the matching `(`.
                let mut p = 1i64;
                while j > 0 && p > 0 {
                    j -= 1;
                    if is_punct(code[j], ")") {
                        p += 1;
                    } else if is_punct(code[j], "(") {
                        p -= 1;
                    }
                }
                continue;
            }
            Kind::Ident if t.text == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Locate the parameter-list parens of the `fn` at `i`; returns
/// `(name_idx, open_paren_idx, close_paren_idx)`.
fn fn_signature(code: &[&Tok], i: usize) -> Option<(usize, usize, usize)> {
    let name = code.get(i + 1)?;
    if name.kind != Kind::Ident {
        return None;
    }
    let mut j = i + 2;
    if code.get(j).is_some_and(|t| is_punct(t, "<")) {
        j = skip_generics(code, j);
    }
    if !code.get(j).is_some_and(|t| is_punct(t, "(")) {
        return None;
    }
    let open = j;
    let mut depth = 0i64;
    while j < code.len() {
        if is_punct(code[j], "(") {
            depth += 1;
        } else if is_punct(code[j], ")") {
            depth -= 1;
            if depth == 0 {
                return Some((i + 1, open, j));
            }
        }
        j += 1;
    }
    None
}

/// Returns the index to resume scanning from.
fn check_pub_fn(ctx: &Ctx, out: &mut Vec<Violation>, i: usize) -> usize {
    let code = &ctx.code;
    let fn_line = code[i].line as usize;
    if ctx.is_test_line(fn_line) || !fn_is_pub(code, i) {
        return i + 1;
    }
    let Some((name_idx, open, close)) = fn_signature(code, i) else {
        return i + 1;
    };
    let fname = &code[name_idx].text;
    for (ps, pe) in split_commas(code, open + 1, close) {
        // Parameter pattern: `[mut] name : type`.
        let mut s = ps;
        if code.get(s).is_some_and(|t| is_ident(t, "mut")) {
            s += 1;
        }
        let Some(nt) = code.get(s) else { continue };
        if nt.kind != Kind::Ident || !code.get(s + 1).is_some_and(|t| is_punct(t, ":")) {
            continue; // `self`, destructuring patterns, …
        }
        if is_f64_type(code, s + 2, pe) && lacks_unit(&nt.text) {
            out.push(ctx.finding(
                nt,
                Rule::UnitSuffix,
                format!(
                    "pub fn parameter `{}: f64` carries a dimension but no unit suffix; {}",
                    nt.text,
                    rename_hint()
                ),
            ));
        }
    }
    // Return type: `-> f64` with a dimensioned fn name.
    if code.get(close + 1).is_some_and(|t| is_punct(t, "->")) {
        let ty_start = close + 2;
        let mut ty_end = ty_start;
        while ty_end < code.len()
            && !is_punct(code[ty_end], "{")
            && !is_punct(code[ty_end], ";")
            && !is_ident(code[ty_end], "where")
        {
            ty_end += 1;
        }
        if is_f64_type(code, ty_start, ty_end) && lacks_unit(fname) {
            let nt = code[name_idx];
            out.push(ctx.finding(
                nt,
                Rule::UnitSuffix,
                format!(
                    "pub fn `{fname}` returns a dimensioned f64 but its name has no unit \
                     suffix; {}",
                    rename_hint()
                ),
            ));
        }
    }
    close + 1
}

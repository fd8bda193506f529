//! Hand-rolled Rust lexer — just enough fidelity for token-pattern
//! linting.
//!
//! The rules in this crate match on *token* shapes (`self . pages .
//! lock ( )`, `recv . drain ( )`), so the lexer's one job is to never
//! mistake prose for code: string literals (including raw strings with
//! any number of `#`s and byte strings), char literals vs lifetimes,
//! and nested block comments must all be consumed exactly. Everything
//! else — numeric suffixes, float forms, exact keyword sets — can stay
//! coarse.
//!
//! Comments are not emitted as tokens, but `// lint:allow(rule)`
//! directives inside them are collected per line so the engine can
//! suppress findings (see [`LexedFile::allows`]).

use std::collections::{BTreeMap, BTreeSet};

/// One lexical token with the 1-based line it started on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
}

/// Token kinds. Punctuation is emitted one char at a time except `::`,
/// which rules need as a single path separator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`self`, `fn`, `HashMap`, …).
    Ident(String),
    /// Lifetime such as `'a` or `'static` (without the quote).
    Lifetime(String),
    /// String literal content (escapes left undecoded except `\"`);
    /// covers `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str(String),
    /// Char or byte literal (`'x'`, `b'\n'`); content not preserved.
    Char,
    /// Numeric literal; value not preserved.
    Num,
    /// `::`
    PathSep,
    /// Any other single punctuation character.
    Punct(char),
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == s)
    }

    /// True if this token is the punctuation char `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// Result of lexing one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// Line → rule names allowed by `// lint:allow(rule)` directives.
    /// A directive suppresses findings on its own line; if its line has
    /// no code tokens it also covers the next line (comment-above
    /// style).
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Lines that carry at least one code token.
    pub code_lines: BTreeSet<u32>,
}

impl LexedFile {
    /// True when `rule` is suppressed at `line` by an allow directive
    /// on the line itself or on a directive-only line above it.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allowing_line(rule, line).is_some()
    }

    /// The line of the `lint:allow` directive suppressing `rule` at
    /// `line`, if any — the line itself, or a directive-only line
    /// reached by walking upward over consecutive comment-only lines.
    /// Identifying the directive (not just the suppression) lets the
    /// engine track which directives are actually used and report the
    /// rest as stale.
    pub fn allowing_line(&self, rule: &str, line: u32) -> Option<u32> {
        if let Some(rules) = self.allows.get(&line) {
            if rules.contains(rule) {
                return Some(line);
            }
        }
        // Walk upward over consecutive comment-only lines.
        let mut l = line;
        while l > 1 {
            l -= 1;
            if self.code_lines.contains(&l) {
                return None;
            }
            if let Some(rules) = self.allows.get(&l) {
                if rules.contains(rule) {
                    return Some(l);
                }
            }
        }
        None
    }
}

/// Lex `src` into tokens plus allow-directive metadata.
pub fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr, $ln:expr) => {
            out.code_lines.insert($ln);
            out.tokens.push(Token { kind: $kind, line: $ln });
        };
    }

    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment: scan to newline, harvesting directives.
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                collect_allows(&src[start..i], line, &mut out.allows);
            }
            '/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment, nested. Directives inside are honored
                // line by line.
                let mut depth = 1;
                let start_line = line;
                let comment_start = i;
                i += 2;
                let mut seg_start = comment_start;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            collect_allows(&src[seg_start..i], line, &mut out.allows);
                            seg_start = i + 1;
                            line += 1;
                        }
                        i += 1;
                    }
                }
                collect_allows(&src[seg_start..i.min(b.len())], line, &mut out.allows);
                let _ = start_line;
            }
            '"' => {
                let (s, ni, nl) = scan_string(src, i, line);
                push!(Tok::Str(s), line);
                i = ni;
                line = nl;
            }
            'r' | 'b' if starts_special_literal(b, i) => {
                let first = b[i];
                // b'x' byte char
                if first == b'b' && b[i + 1] == b'\'' {
                    push!(Tok::Char, line);
                    i = skip_char_literal(b, i + 1);
                    continue;
                }
                // b"…" byte string: escapes apply, so scan like "…".
                if first == b'b' && b[i + 1] == b'"' {
                    let (s, ni, nl) = scan_string(src, i + 1, line);
                    push!(Tok::Str(s), line);
                    i = ni;
                    line = nl;
                    continue;
                }
                // b"..", r"..", r#".."#, br#".."#, rb.. is not valid Rust
                let mut j = i + 1;
                if (first == b'b' && j < b.len() && b[j] == b'r')
                    || (first == b'r' && j < b.len() && b[j] == b'b')
                {
                    j += 1;
                }
                let mut hashes = 0usize;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    // Raw (or byte) string: scan to `"` followed by
                    // `hashes` hash marks, no escapes.
                    let content_start = j + 1;
                    let mut k = content_start;
                    let mut nl = line;
                    loop {
                        if k >= b.len() {
                            break;
                        }
                        if b[k] == b'\n' {
                            nl += 1;
                            k += 1;
                            continue;
                        }
                        if b[k] == b'"' {
                            let mut h = 0;
                            while h < hashes && k + 1 + h < b.len() && b[k + 1 + h] == b'#' {
                                h += 1;
                            }
                            if h == hashes {
                                break;
                            }
                        }
                        k += 1;
                    }
                    push!(Tok::Str(src[content_start..k.min(b.len())].to_string()), line);
                    i = (k + 1 + hashes).min(b.len());
                    line = nl;
                } else {
                    // Plain identifier starting with r/b.
                    let (id, ni) = scan_ident(src, i);
                    push!(Tok::Ident(id), line);
                    i = ni;
                }
            }
            '\'' => {
                // Lifetime vs char literal. `'` + ident-start: lifetime
                // unless the char after the single ident char is `'`
                // (i.e. 'a'). Escapes ('\n', '\u{..}') are always chars.
                let next = b.get(i + 1).copied();
                match next {
                    Some(n)
                        if (n as char).is_alphabetic() || n == b'_' =>
                    {
                        let (id, ni) = scan_ident(src, i + 1);
                        if b.get(ni).copied() == Some(b'\'') && id.chars().count() == 1 {
                            push!(Tok::Char, line);
                            i = ni + 1;
                        } else {
                            push!(Tok::Lifetime(id), line);
                            i = ni;
                        }
                    }
                    _ => {
                        push!(Tok::Char, line);
                        i = skip_char_literal(b, i);
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let (id, ni) = scan_ident(src, i);
                push!(Tok::Ident(id), line);
                i = ni;
            }
            c if c.is_ascii_digit() => {
                while i < b.len()
                    && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // Stop a `0..10` range from being eaten as one number.
                    if b[i] == b'.' && b.get(i + 1).copied() == Some(b'.') {
                        break;
                    }
                    i += 1;
                }
                push!(Tok::Num, line);
            }
            ':' if i + 1 < b.len() && b[i + 1] == b':' => {
                push!(Tok::PathSep, line);
                i += 2;
            }
            _ => {
                push!(Tok::Punct(c), line);
                i += 1;
            }
        }
    }
    out
}

fn starts_special_literal(b: &[u8], i: usize) -> bool {
    // r" r# b" b' br" br# (and rb, not valid but harmless)
    let Some(&n) = b.get(i + 1) else { return false };
    match b[i] {
        b'r' => n == b'"' || n == b'#' || (n == b'b' && matches!(b.get(i + 2), Some(b'"' | b'#'))),
        b'b' => n == b'"' || n == b'\'' || (n == b'r' && matches!(b.get(i + 2), Some(b'"' | b'#'))),
        _ => false,
    }
}

fn scan_ident(src: &str, start: usize) -> (String, usize) {
    let mut end = start;
    for (off, ch) in src[start..].char_indices() {
        if ch.is_alphanumeric() || ch == '_' {
            end = start + off + ch.len_utf8();
        } else {
            break;
        }
    }
    (src[start..end].to_string(), end)
}

/// Scan a `"…"` literal from the opening quote; returns (content,
/// index-after-closing-quote, updated-line).
fn scan_string(src: &str, start: usize, mut line: u32) -> (String, usize, u32) {
    let b = src.as_bytes();
    let mut i = start + 1;
    let content_start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                return (src[content_start..i].to_string(), i + 1, line);
            }
            _ => i += 1,
        }
    }
    (src[content_start..].to_string(), b.len(), line)
}

/// Skip a char literal from its opening quote; tolerant of escapes.
fn skip_char_literal(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // malformed; bail at line end
            _ => i += 1,
        }
    }
    i
}

/// Harvest `lint:allow(rule1, rule2)` directives from one comment line.
///
/// A directive must *lead* the comment (first content after the
/// `//`/`/*`/`!`/`*` markers): prose that merely mentions
/// `lint:allow(...)` mid-sentence — the lint crate's own docs do this
/// constantly — is not a directive and must not register (it would
/// then be reported as stale).
fn collect_allows(comment: &str, line: u32, allows: &mut BTreeMap<u32, BTreeSet<String>>) {
    let lead = comment.trim_start_matches(['/', '*', '!', ' ', '\t']);
    if !lead.starts_with("lint:allow(") {
        return;
    }
    let mut rest = lead;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        if let Some(close) = rest.find(')') {
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    allows.entry(line).or_default().insert(rule.to_string());
                }
            }
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.kind.ident().map(|s| s.to_string()))
            .collect()
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Tok::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Tok::Char))
            .collect();
        assert_eq!(chars.len(), 1);
    }

    #[test]
    fn static_lifetime_and_escaped_char() {
        let lexed = lex(r"const S: &'static str = X; let c = '\n'; let u = '\u{1F600}';");
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Lifetime(l) if l == "static")));
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| matches!(t.kind, Tok::Char))
                .count(),
            2
        );
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "a /* one /* two */ still comment */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lexed = lex(r###"let s = r#"quote " inside"#; let t = r"plain"; x"###);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![r#"quote " inside"#, "plain"]);
        // The trailing `x` must survive (raw string terminated correctly).
        assert!(lexed.tokens.iter().any(|t| t.kind.is_ident("x")));
    }

    #[test]
    fn raw_string_containing_comment_and_fake_quote() {
        let src = r####"let s = r##"has "# and // not a comment"##; y"####;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![r##"has "# and // not a comment"##]);
        assert!(lexed.tokens.iter().any(|t| t.kind.is_ident("y")));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let lexed = lex(r#"let a = b"bytes"; let c = b'x'; z"#);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Str(s) if s == "bytes")));
        assert!(lexed.tokens.iter().any(|t| matches!(t.kind, Tok::Char)));
        assert!(lexed.tokens.iter().any(|t| t.kind.is_ident("z")));
    }

    #[test]
    fn string_escapes_do_not_terminate_early() {
        let lexed = lex(r#"let s = "a \" b"; tail"#);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, Tok::Str(s) if s == r#"a \" b"#)));
        assert!(lexed.tokens.iter().any(|t| t.kind.is_ident("tail")));
    }

    #[test]
    fn line_numbers_track_newlines_in_all_literal_forms() {
        let src = "a\n\"two\nline\"\n/* c\nc */\nr\"raw\nraw\"\nlast";
        let lexed = lex(src);
        let last = lexed
            .tokens
            .iter()
            .find(|t| t.kind.is_ident("last"))
            .unwrap();
        assert_eq!(last.line, 8);
    }

    #[test]
    fn allow_directives_same_line_and_line_above() {
        let src = "// lint:allow(rule-a): reason\nlet x = 1;\nlet y = 2; // lint:allow(rule-b, rule-c)\n";
        let lexed = lex(src);
        assert!(lexed.is_allowed("rule-a", 2));
        assert!(!lexed.is_allowed("rule-a", 3));
        assert!(lexed.is_allowed("rule-b", 3));
        assert!(lexed.is_allowed("rule-c", 3));
        assert!(!lexed.is_allowed("rule-b", 2));
    }

    #[test]
    fn allow_skips_over_comment_block_lines() {
        let src = "// lint:allow(r1)\n// more prose\nlet x = 1;\n";
        let lexed = lex(src);
        assert!(lexed.is_allowed("r1", 3));
    }

    #[test]
    fn path_sep_is_one_token() {
        let lexed = lex("std::thread::sleep(d)");
        let seps = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Tok::PathSep))
            .count();
        assert_eq!(seps, 2);
    }

    #[test]
    fn shift_and_turbofish_do_not_confuse() {
        // `>>` and `::<` around generics must not eat neighbors.
        assert_eq!(
            idents("let m: Arc<Mutex<HashMap<u64, Vec<u8>>>> = x.collect::<Vec<_>>();"),
            vec!["let", "m", "Arc", "Mutex", "HashMap", "u64", "Vec", "u8", "x", "collect", "Vec", "_"]
        );
    }
}

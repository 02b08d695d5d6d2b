//! Property-based coverage of the analyzer front end: the lexer and
//! the block-tree parser must never panic and always terminate, on
//! arbitrary byte soup and on adversarial brace/keyword salads alike —
//! the analyzer runs over every workspace file on every CI push, so a
//! crash on weird-but-legal input would block unrelated work. The
//! parsed tree must also be structurally sane (spans in range, nested,
//! and statement-partitioned), since the dataflow pass indexes tokens
//! through it unchecked.

use proptest::prelude::*;
use rms_analyze::lexer::lex;
use rms_analyze::parse::parse;

/// Arbitrary byte soup rendered as a (lossy) string — covers non-UTF8
/// leftovers, control characters, embedded NULs, unterminated strings.
fn arb_junk_source() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..400)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Adversarial near-Rust fragments: the corner a uniform byte fuzzer
/// almost never reaches — unbalanced braces, orphan `fn`, generics
/// with stray angles, pragmas mid-garbage, raw and lifetime quotes.
fn arb_brace_salad() -> impl Strategy<Value = String> {
    let pieces = [
        "{",
        "}",
        "(",
        ")",
        "[",
        "]",
        "fn ",
        "fn f",
        "fn f(",
        "fn f() ",
        "-> ",
        "=>",
        "<T>",
        "<<",
        ">>",
        ";",
        "let x = ",
        "drop(x)",
        "\"unterminated",
        "\"s\"",
        "'a",
        "'x'",
        "// line\n",
        "/* block",
        "*/",
        "#[cfg(test)]",
        "mod tests ",
        "r#\"raw\"#",
        "// rms-analyze: allow(lock-poison-policy, \"reason\")\n",
        "// rms-analyze: atomic-policy(x: Relaxed)\n",
        "// rms-analyze: atomic-policy(x Relaxed)\n",
        "\n",
        " ",
    ];
    prop::collection::vec(0..pieces.len(), 0..60)
        .prop_map(move |picks| picks.into_iter().map(|i| pieces[i]).collect())
}

/// Lexes and parses one source, asserting the structural invariants
/// the dataflow pass relies on.
fn lex_parse_check(src: &str) -> Result<(), TestCaseError> {
    let out = lex(src);
    let tree = parse(&out.tokens);
    let n = out.tokens.len();
    for (si, scope) in tree.scopes.iter().enumerate() {
        prop_assert!(scope.start <= scope.end, "scope {si} span inverted");
        prop_assert!(scope.end <= n, "scope {si} escapes the token stream");
        for &c in &scope.children {
            prop_assert!(c < tree.scopes.len(), "scope {si} child out of range");
            let child = &tree.scopes[c];
            prop_assert!(
                scope.start <= child.start && child.end <= scope.end,
                "scope {si} child {c} not nested"
            );
        }
        for &(lo, hi) in &scope.stmts {
            prop_assert!(lo <= hi && hi <= scope.end, "scope {si} stmt span bad");
        }
    }
    for f in &tree.functions {
        if let Some(b) = f.body {
            prop_assert!(b < tree.scopes.len(), "fn `{}` body out of range", f.name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn junk_never_panics(src in arb_junk_source()) {
        lex_parse_check(&src)?;
    }

    #[test]
    fn brace_salad_never_panics(src in arb_brace_salad()) {
        lex_parse_check(&src)?;
    }

    /// Concatenating two salads (the classic way to cross an
    /// unterminated construct with a fresh one) stays panic-free too.
    #[test]
    fn salad_pairs_never_panic(a in arb_brace_salad(), b in arb_junk_source()) {
        lex_parse_check(&format!("{a}{b}"))?;
    }
}

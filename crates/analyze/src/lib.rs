//! `rms-analyze` — project-specific static analysis for the krms
//! workspace: a hand-rolled lexer, a lightweight block-tree parser, and
//! an intraprocedural dataflow layer (no full AST, no dependencies)
//! behind eight lint rules encoding the concurrency, wire-protocol,
//! metrics and memory-layout invariants this codebase has historically
//! broken in review-invisible ways.
//!
//! Rules (see [`rules::RULE_DESCRIPTIONS`] / `--list-rules` for the
//! authoritative catalog):
//!
//! | id | checks |
//! |----|--------|
//! | `guard-across-blocking` | no lock guard alive across a blocking call, through scopes/`drop()`/may-block local calls; unbounded `Sender::send` exempt |
//! | `wire-grammar` | server and client wire vocabularies must match exactly |
//! | `lock-poison-policy` | lock results go through `recover_poisoned`, not ad-hoc unwraps |
//! | `index-no-box-node` | no per-node `Box` allocations in `crates/index/src` |
//! | `metric-name-discipline` | literal `rms_<subsystem>_` snake_case names, one owning call site per family |
//! | `lock-order` | the serve-layer lock-acquisition-order graph stays acyclic |
//! | `atomic-ordering-discipline` | every `Ordering::` use matches the file's declared atomic-policy table |
//! | `reactor-no-block` | no blocking call at all on the reactor dispatch path; unbounded `Sender::send` exempt |
//!
//! Any finding can be suppressed in place with
//! `// rms-analyze: allow(<rule-id>, "<reason>")` — on the offending
//! line, or on its own line covering the next line. The reason is
//! mandatory; unused or malformed pragmas are findings themselves
//! (rule id `pragma`). Atomic policies are declared per file with
//! `// rms-analyze: atomic-policy(<name>: <Ordering>|…, …)`.

pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

use lexer::{LexOutput, Token};
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use rules::{
    ALL_RULES, RULE_ATOMIC, RULE_BOXNODE, RULE_DESCRIPTIONS, RULE_GUARD, RULE_LOCKORDER,
    RULE_METRIC, RULE_POISON, RULE_PRAGMA, RULE_WIRE,
};

/// The outcome of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, in file-then-line order. Nonzero ⇒ exit 1.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a pragma, with the pragma's reason —
    /// reported (to stderr) but not fatal.
    pub suppressed: Vec<(Finding, String)>,
    /// Total number of well-formed `allow` pragmas seen.
    pub pragma_count: usize,
    /// Number of files lexed.
    pub files_scanned: usize,
}

/// A lexed source file ready for rule application.
struct SourceFile {
    path: PathBuf,
    rel: PathBuf,
    lex: LexOutput,
}

fn read_and_lex(root: &Path, rel: PathBuf) -> std::io::Result<SourceFile> {
    let path = root.join(&rel);
    let lex = lexer::lex(&std::fs::read_to_string(&path)?);
    Ok(SourceFile { path, rel, lex })
}

/// Collects the `.rs` files under `dir` (recursively), as paths
/// relative to `root`. Sorted for deterministic output.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&abs)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let rel = dir.join(p.file_name().unwrap_or_default());
        if p.is_dir() {
            collect_rs(root, &rel, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// The workspace file set `--workspace` scans: every crate's `src/`
/// plus `examples/` and `benches/`, and the root binary's `src/`.
/// `vendor/` (vendored stand-in dependencies) is deliberately excluded
/// — we lint our code, not our stand-ins. Fixture trees under
/// `tests/fixtures/` are likewise excluded (they violate rules on
/// purpose), but regular integration tests are scanned.
fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(root, Path::new("src"), &mut files)?;
    collect_rs(root, Path::new("examples"), &mut files)?;
    collect_rs(root, Path::new("benches"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for m in members {
            let Some(name) = m.file_name().map(std::ffi::OsStr::to_os_string) else {
                continue;
            };
            let base = Path::new("crates").join(&name);
            collect_rs(root, &base.join("src"), &mut files)?;
            collect_rs(root, &base.join("examples"), &mut files)?;
            collect_rs(root, &base.join("benches"), &mut files)?;
            // Integration tests, but never tests/fixtures/.
            let tests = base.join("tests");
            if root.join(&tests).is_dir() {
                let mut sub = Vec::new();
                collect_rs(root, &tests, &mut sub)?;
                files.extend(
                    sub.into_iter()
                        .filter(|p| !p.starts_with(tests.join("fixtures"))),
                );
            }
        }
    }
    Ok(files)
}

/// Per-rule file scoping for a workspace run. Paths are relative,
/// `/`-separated as produced by [`workspace_files`].
fn rule_applies(rule: &'static str, rel: &Path) -> bool {
    let in_serve_src = rel.starts_with("crates/serve/src");
    let in_metrics_src = rel.starts_with("crates/metrics/src");
    let in_net_src = rel.starts_with("crates/net/src");
    match rule {
        // The PR-4/PR-5 bug class lives in the serving layer — and,
        // since PR 10, in the evented network layer under it.
        rules::RULE_GUARD => in_serve_src || in_net_src,
        // The reactor dispatch path: the event loop itself plus the
        // serve-side handler its callbacks drive. The orchestration
        // half (tcp.rs) legitimately blocks and stays out of scope.
        rules::RULE_REACTOR => in_net_src || rel == Path::new("crates/serve/src/net.rs"),
        // Everything scanned must follow the one poison policy.
        rules::RULE_POISON => true,
        // The flat-layout guarantee is an index-crate invariant.
        rules::RULE_BOXNODE => rel.starts_with("crates/index/src"),
        // Atomics policy covers the serving layer and the metrics
        // hot-path counters.
        rules::RULE_ATOMIC => in_serve_src || in_metrics_src,
        // R3, R6, R7 are cross-file; handled separately in `analyze`.
        rules::RULE_WIRE | rules::RULE_METRIC | rules::RULE_LOCKORDER => false,
        _ => false,
    }
}

/// The two file sets R3 diffs: the serve-side protocol implementation
/// and the client re-implementation.
const WIRE_SERVER_FILES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/tcp.rs",
    "crates/serve/src/net.rs",
];
const WIRE_CLIENT_FILES: &[&str] = &["crates/client/src/lib.rs"];

/// Options for an analysis run.
pub struct Options {
    /// Rule ids to run (defaults to all).
    pub rules: Vec<&'static str>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            rules: ALL_RULES.to_vec(),
        }
    }
}

/// Analyzes the workspace rooted at `root`.
///
/// # Errors
/// Propagates I/O errors from walking or reading the source tree.
pub fn analyze_workspace(root: &Path, opts: &Options) -> std::io::Result<Report> {
    let rels = workspace_files(root)?;
    let mut sources = Vec::with_capacity(rels.len());
    for rel in rels {
        sources.push(read_and_lex(root, rel)?);
    }
    Ok(analyze(&sources, opts))
}

/// Analyzes an explicit list of files (paths used verbatim in output).
/// Scoping is disabled: every requested per-file rule runs on every
/// file; the cross-file rules pair files by name fragments (fixture
/// convention): R3 needs a `protocol`/`server` and a `client` file, and
/// R6 and R7 run over the whole set.
///
/// # Errors
/// Propagates I/O errors from reading the files.
pub fn analyze_files(paths: &[PathBuf], opts: &Options) -> std::io::Result<Report> {
    let mut sources = Vec::with_capacity(paths.len());
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        let lex = lexer::lex(&src);
        sources.push(SourceFile {
            path: p.clone(),
            rel: p.clone(),
            lex,
        });
    }
    Ok(analyze_adhoc(&sources, opts))
}

fn analyze(sources: &[SourceFile], opts: &Options) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for sf in sources {
        for rule in &opts.rules {
            if rule_applies(rule, &sf.rel) {
                raw.extend(run_rule(rule, &sf.path, &sf.lex));
            }
        }
    }
    let pick = |names: &[&str]| -> Vec<(PathBuf, Vec<Token>)> {
        sources
            .iter()
            .filter(|sf| names.iter().any(|n| sf.rel == Path::new(n)))
            .map(|sf| (sf.path.clone(), sf.lex.tokens.clone()))
            .collect()
    };
    if opts.rules.contains(&rules::RULE_WIRE) {
        let server = pick(WIRE_SERVER_FILES);
        let client = pick(WIRE_CLIENT_FILES);
        if !server.is_empty() && !client.is_empty() {
            raw.extend(rules::wire_grammar(&server, &client));
        }
    }
    if opts.rules.contains(&rules::RULE_LOCKORDER) {
        let serve: Vec<(&Path, &[Token])> = sources
            .iter()
            .filter(|sf| sf.rel.starts_with("crates/serve/src"))
            .map(|sf| (sf.path.as_path(), sf.lex.tokens.as_slice()))
            .collect();
        raw.extend(flow::lock_order(&serve));
    }
    if opts.rules.contains(&rules::RULE_METRIC) {
        raw.extend(rules::metric_name_discipline(&borrow_all(sources)));
    }
    apply_pragmas(sources, raw, &opts.rules)
}

/// Borrows every source as the `(path, tokens)` pair the cross-file
/// rules take.
fn borrow_all(sources: &[SourceFile]) -> Vec<(&Path, &[Token])> {
    sources
        .iter()
        .map(|sf| (sf.path.as_path(), sf.lex.tokens.as_slice()))
        .collect()
}

fn analyze_adhoc(sources: &[SourceFile], opts: &Options) -> Report {
    let name_has = |sf: &&SourceFile, frag: &str| {
        sf.rel
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(frag))
    };
    let mut raw: Vec<Finding> = Vec::new();
    for sf in sources {
        for rule in &opts.rules {
            let cross_file = matches!(*rule, rules::RULE_WIRE | rules::RULE_LOCKORDER);
            // R11 bans calls that are perfectly ordinary outside the
            // reactor dispatch path, so even ad hoc it only runs on
            // files that opt in by name.
            if *rule == rules::RULE_REACTOR && !name_has(&sf, "reactor") {
                continue;
            }
            if !cross_file {
                raw.extend(run_rule(rule, &sf.path, &sf.lex));
            }
        }
    }
    let pick_frag = |frags: &[&str]| -> Vec<(PathBuf, Vec<Token>)> {
        sources
            .iter()
            .filter(|sf| frags.iter().any(|f| name_has(sf, f)))
            .map(|sf| (sf.path.clone(), sf.lex.tokens.clone()))
            .collect()
    };
    if opts.rules.contains(&rules::RULE_WIRE) {
        let server = pick_frag(&["protocol", "server"]);
        let client = pick_frag(&["client"]);
        if !server.is_empty() && !client.is_empty() {
            raw.extend(rules::wire_grammar(&server, &client));
        }
    }
    if opts.rules.contains(&rules::RULE_LOCKORDER) {
        raw.extend(flow::lock_order(&borrow_all(sources)));
    }
    if opts.rules.contains(&rules::RULE_METRIC) {
        raw.extend(rules::metric_name_discipline(&borrow_all(sources)));
    }
    apply_pragmas(sources, raw, &opts.rules)
}

fn run_rule(rule: &'static str, path: &Path, lex: &LexOutput) -> Vec<Finding> {
    match rule {
        rules::RULE_GUARD => rules::guard_across_blocking(path, &lex.tokens),
        rules::RULE_POISON => rules::lock_poison_policy(path, &lex.tokens),
        rules::RULE_BOXNODE => rules::index_no_box_node(path, &lex.tokens),
        rules::RULE_ATOMIC => {
            rules::atomic_ordering_discipline(path, &lex.tokens, &lex.atomic_policies)
        }
        rules::RULE_REACTOR => rules::reactor_no_block(path, &lex.tokens),
        _ => Vec::new(),
    }
}

/// Applies `allow` pragmas to the raw findings: a pragma on the finding
/// line (or an own-line pragma covering the next line) with a matching
/// rule id suppresses the finding. Unknown-rule and unused pragmas,
/// plus the lexer's malformed-pragma notes, become `pragma` findings.
/// A pragma for a known rule that is not in `active` (e.g. under
/// `--rules lock-order`) is left alone: its rule never ran, so whether
/// it suppresses anything cannot be judged on this pass.
fn apply_pragmas(sources: &[SourceFile], raw: Vec<Finding>, active: &[&str]) -> Report {
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    // (path, rule, covered-line) → (pragma index within file, reason)
    let mut allow: BTreeMap<(PathBuf, String, u32), (usize, String)> = BTreeMap::new();
    let mut used: BTreeMap<(PathBuf, usize), bool> = BTreeMap::new();
    for sf in sources {
        for (idx, p) in sf.lex.pragmas.iter().enumerate() {
            report.pragma_count += 1;
            if !ALL_RULES.contains(&p.rule.as_str()) {
                report.findings.push(Finding::new(
                    &sf.path,
                    p.line,
                    rules::RULE_PRAGMA,
                    format!(
                        "pragma names unknown rule `{}` (known: {})",
                        p.rule,
                        ALL_RULES.join(", ")
                    ),
                ));
                continue;
            }
            if !active.contains(&p.rule.as_str()) {
                continue;
            }
            used.insert((sf.path.clone(), idx), false);
            let covered = if p.own_line { p.line + 1 } else { p.line };
            allow.insert(
                (sf.path.clone(), p.rule.clone(), covered),
                (idx, p.reason.clone()),
            );
        }
        for (line, msg) in &sf.lex.pragma_errors {
            report.findings.push(Finding::new(
                &sf.path,
                *line,
                rules::RULE_PRAGMA,
                msg.clone(),
            ));
        }
    }
    for f in raw {
        let key = (f.file.clone(), f.rule.to_string(), f.line);
        if let Some((idx, reason)) = allow.get(&key) {
            used.insert((f.file.clone(), *idx), true);
            report.suppressed.push((f, reason.clone()));
        } else {
            report.findings.push(f);
        }
    }
    for ((path, idx), was_used) in &used {
        if !was_used {
            // Recover the pragma for its line/rule.
            if let Some(sf) = sources.iter().find(|s| &s.path == path) {
                let p = &sf.lex.pragmas[*idx];
                report.findings.push(Finding::new(
                    path,
                    p.line,
                    rules::RULE_PRAGMA,
                    format!(
                        "unused pragma: allow({}) suppresses nothing on its line — remove it",
                        p.rule
                    ),
                ));
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

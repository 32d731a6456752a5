//! Offline workspace lint engine, token-level edition.
//!
//! A deliberately dependency-free analyzer (no `syn`, no proc-macro
//! machinery) built on a real Rust lexer ([`lexer`]): every file is
//! tokenized — nested block comments, raw strings (`r#"…"#`), byte strings,
//! multi-line string literals, char literals and lifetimes all handled — and
//! the rules walk the token stream. That kills both false-positive classes
//! of the old line-local substring scanner (`.unwrap()` inside a block
//! comment, `panic!(` inside a multi-line string) and its false negatives
//! (a comparison split across lines).
//!
//! The rules enforce the workspace's reproducibility and robustness
//! contracts (see DESIGN.md §8.2 for the authoritative table):
//!
//! * [`Rule::NoUnwrap`], [`Rule::NondeterministicRng`], [`Rule::FloatEq`],
//!   [`Rule::UnjustifiedAllow`], [`Rule::ThreadSpawn`],
//!   [`Rule::NoPrintInLibrary`] — carried over from the line engine,
//!   re-expressed as token patterns;
//! * [`Rule::EnvReadOutsideConfig`] — only `from_env`-style constructors
//!   may read `UOF_*` environment knobs, so no other code's behaviour
//!   depends on ambient process state;
//! * [`Rule::HashMapIteration`] — no hash-order iteration in
//!   simulation/cache code whose outputs must be bit-identical;
//! * [`Rule::WallclockInSim`] — no `Instant::now` / `SystemTime::now` in
//!   simulation crates (telemetry and server rate limiting are exempt by
//!   class);
//! * [`Rule::DynamicMetricName`] — metric/span name arguments in library
//!   code must be string literals, so the metric namespace stays greppable
//!   (`uof-telemetry`'s generic registry plumbing is exempt by class);
//! * [`Rule::BadWaiver`] — a `lint:allow` with an unknown rule name,
//!   missing reason or unterminated marker is itself an error, so a typo
//!   can never silently waive nothing.
//!
//! Findings can be waived inline with
//! `// lint:allow(<rule>) — reason` on the offending line or the line
//! directly above it; the reason is mandatory, and every waiver is
//! inventoried (`cargo run -p xtask -- lint --waivers`) against
//! [`WAIVER_BUDGET`]. Waived findings still appear in the JSON report with
//! `"waived":true`.
//!
//! The engine is exposed as a library so the workspace test-suite can gate
//! on it in-process (see `tests/lint_gate.rs` at the workspace root), and as
//! a CLI via `cargo run -p xtask -- lint [--format json] [--waivers]`. The
//! workspace walk fans file analysis out through the vendored rayon pool
//! and sorts findings by `(path, line, col)`, so the report — including the
//! JSON bytes — is identical at any `UOF_THREADS`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
mod rules;
pub mod trace_report;

/// The workspace's one JSON writer and parser, shared with the trace sink
/// and the reach-api codec.
pub use uof_telemetry::json;

pub use rules::{analyze_source, waivers_in_source, FileClass, Rule, Violation, Waiver};

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rayon::prelude::*;

/// Ceiling on the number of active waiver comments in the workspace,
/// asserted by `tests/lint_gate.rs`. Raising it is a reviewed change to a
/// checked-in file, not a drive-by: each waiver is debt against the
/// reproducibility contract and the budget keeps the total visible.
/// The budget was raised from 24 when `dynamic-metric-name` landed: the
/// rule retroactively covers the per-opcode dispatch tables in `reach-api`
/// (four sites whose names come from a static table, waived by design).
pub const WAIVER_BUDGET: usize = 28;

/// Top-level directories `lint_workspace` walks, the single source of truth
/// `classify` is tested against (everything else at the root — `vendor/`,
/// `target/`, `scripts/` — is out of scope).
pub const WALK_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benches"];

/// A finding attached to the file it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileViolation {
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// The finding.
    pub violation: Violation,
}

impl fmt::Display for FileViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.violation.line,
            self.violation.col,
            self.violation.rule,
            self.violation.excerpt
        )
    }
}

/// A waiver attached to the file it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverSite {
    /// Path relative to the lint root.
    pub path: PathBuf,
    /// The parsed waiver.
    pub waiver: Waiver,
}

impl fmt::Display for WaiverSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rules: Vec<&str> = self.waiver.rules.iter().map(|r| r.name()).collect();
        write!(
            f,
            "{}:{} [{}] {}",
            self.path.display(),
            self.waiver.line,
            rules.join(", "),
            self.waiver.reason
        )
    }
}

/// The full result of linting a workspace: every finding (waived ones
/// flagged, not dropped) plus the file count, sorted `(path, line, col)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Number of files analyzed (classified in-scope).
    pub files: usize,
    /// All findings, sorted by `(path, line, col, rule)`.
    pub findings: Vec<FileViolation>,
}

impl Report {
    /// Findings not covered by a waiver — what fails the gate.
    pub fn active(&self) -> impl Iterator<Item = &FileViolation> {
        self.findings.iter().filter(|f| !f.violation.waived)
    }

    /// Serializes the report to the stable machine-readable JSON format:
    ///
    /// ```json
    /// {"findings":[{"path":…,"line":…,"col":…,"rule":…,"severity":…,
    ///   "excerpt":…,"waived":…},…],
    ///  "summary":{"files":…,"total":…,"active":…,"waived":…,
    ///   "per_rule":{"no-unwrap":{"active":…,"waived":…},…}}}
    /// ```
    ///
    /// Key order, member order and escaping are canonical (see [`json`]),
    /// and findings are pre-sorted — the same tree always produces the same
    /// bytes, at any thread count.
    pub fn to_json(&self) -> String {
        use json::Value;
        let findings: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("path".into(), Value::Str(f.path.display().to_string())),
                    ("line".into(), Value::int(f.violation.line)),
                    ("col".into(), Value::int(f.violation.col)),
                    ("rule".into(), Value::Str(f.violation.rule.name().into())),
                    ("severity".into(), Value::Str(f.violation.rule.severity().into())),
                    ("excerpt".into(), Value::Str(f.violation.excerpt.clone())),
                    ("waived".into(), Value::Bool(f.violation.waived)),
                ])
            })
            .collect();
        let mut per_rule = Vec::new();
        for rule in Rule::ALL {
            let active = self
                .findings
                .iter()
                .filter(|f| f.violation.rule == rule && !f.violation.waived)
                .count();
            let waived = self
                .findings
                .iter()
                .filter(|f| f.violation.rule == rule && f.violation.waived)
                .count();
            per_rule.push((
                rule.name().to_string(),
                Value::Obj(vec![
                    ("active".into(), Value::int(active)),
                    ("waived".into(), Value::int(waived)),
                ]),
            ));
        }
        let waived_total = self.findings.iter().filter(|f| f.violation.waived).count();
        let summary = Value::Obj(vec![
            ("files".into(), Value::int(self.files)),
            ("total".into(), Value::int(self.findings.len())),
            ("active".into(), Value::int(self.findings.len() - waived_total)),
            ("waived".into(), Value::int(waived_total)),
            ("per_rule".into(), Value::Obj(per_rule)),
        ]);
        Value::Obj(vec![("findings".into(), Value::Arr(findings)), ("summary".into(), summary)])
            .to_json_string()
    }
}

/// Lints one file's source under a [`FileClass`], returning only the
/// **active** (unwaived) findings. Use [`analyze_source`] for the full
/// list including waived findings.
pub fn lint_source(source: &str, class: FileClass) -> Vec<Violation> {
    analyze_source(source, class).into_iter().filter(|v| !v.waived).collect()
}

/// Classifies a workspace-relative path; `None` means the file is out of
/// scope (vendored, generated, or a non-Rust file).
pub fn classify(rel: &Path) -> Option<FileClass> {
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    if parts.first() == Some(&"vendor") || parts.first() == Some(&"target") {
        return None;
    }
    // tests/, benches/, examples/ anywhere in the path — whether a
    // root-level directory from WALK_DIRS or nested inside a crate: not
    // library code, but float-eq and allow hygiene still apply.
    let test_like = parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples"));
    // Binary targets may talk to a terminal; unwraps there abort one run,
    // not a simulation library call.
    let bin_like =
        parts.contains(&"bin") || rel.file_name().and_then(|f| f.to_str()) == Some("main.rs");
    let crate_name = if parts.first() == Some(&"crates") {
        parts.get(1).copied().unwrap_or("")
    } else {
        // Workspace-root src/, tests/, examples/ and benches/ belong to the
        // facade crate.
        "unique-on-facebook"
    };
    let simulation = crate_name.starts_with("fbsim")
        || matches!(crate_name, "uniqueness" | "nanotarget" | "unique-on-facebook");
    let library = !test_like && !bin_like;
    // reach-api's thread-per-connection server is I/O concurrency, not data
    // parallelism — it may spawn; everything else goes through the pool.
    let thread_policed = library && crate_name != "reach-api";
    // The xtask CLI and the bench reporting harness exist to talk to a
    // terminal; every other library crate must route diagnostics through
    // uof-telemetry rather than stdio.
    let print_policed = library && !matches!(crate_name, "xtask" | "bench");
    // The env contract covers everything that is not a test: library code
    // AND binaries must funnel UOF_* reads through from_env constructors.
    let env_policed = !test_like;
    // Bit-identity contract: simulation crates plus the reach cache (whose
    // warm/cold answers must match the engine exactly).
    let order_policed = library && (simulation || crate_name == "reach-cache");
    // Simulated results must not observe the wall clock; telemetry (whose
    // purpose is timing) and reach-api rate limiting are exempt by class.
    let wallclock_policed = library && simulation;
    // Metric/span names must be greppable string literals everywhere except
    // uof-telemetry itself (its registry plumbing is generic over names) and
    // the terminal-facing crates that are already stdio-exempt.
    let metric_name_policed = library && !matches!(crate_name, "uof-telemetry" | "xtask" | "bench");
    Some(FileClass {
        library,
        simulation,
        thread_policed,
        print_policed,
        env_policed,
        order_policed,
        wallclock_policed,
        metric_name_policed,
    })
}

/// Recursively collects `.rs` files under `dir`, skipping `vendor/`,
/// `target/` and hidden directories.
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "vendor" || name == "target" {
                continue;
            }
            collect_rs(&path, root, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

/// The sorted list of in-scope `.rs` files under `root` (relative paths,
/// [`WALK_DIRS`] only, unclassifiable files excluded).
///
/// # Errors
///
/// Propagates I/O errors from walking the tree.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in WALK_DIRS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, root, &mut files)?;
        }
    }
    files.retain(|rel| classify(rel).is_some());
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`, returning the full
/// [`Report`] (waived findings included).
///
/// Files are analyzed in parallel on the vendored rayon pool — honouring
/// `UOF_THREADS` and `rayon::with_thread_count` — and findings are sorted
/// by `(path, line, col, rule)`, so the report is bit-identical at any
/// thread count.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace_report(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let per_file: Vec<io::Result<Vec<FileViolation>>> = files
        .par_iter()
        .map(|rel| {
            let Some(class) = classify(rel) else { return Ok(Vec::new()) };
            let source = fs::read_to_string(root.join(rel))?;
            Ok(analyze_source(&source, class)
                .into_iter()
                .map(|violation| FileViolation { path: rel.clone(), violation })
                .collect())
        })
        .collect();
    let mut findings = Vec::new();
    for result in per_file {
        findings.extend(result?);
    }
    findings.sort_by(|a, b| {
        let ka = (&a.path, a.violation.line, a.violation.col, a.violation.rule.name());
        let kb = (&b.path, b.violation.line, b.violation.col, b.violation.rule.name());
        ka.cmp(&kb)
    });
    Ok(Report { files: files.len(), findings })
}

/// Lints the whole workspace rooted at `root`, returning only the active
/// (unwaived) findings — the gate's view.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<FileViolation>> {
    let report = lint_workspace_report(root)?;
    Ok(report.findings.into_iter().filter(|f| !f.violation.waived).collect())
}

/// Inventories every well-formed waiver in the workspace, sorted by
/// `(path, line)`. Malformed waivers are not listed — they surface as
/// [`Rule::BadWaiver`] findings in the lint report instead.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn waiver_inventory(root: &Path) -> io::Result<Vec<WaiverSite>> {
    let files = workspace_files(root)?;
    let per_file: Vec<io::Result<Vec<WaiverSite>>> = files
        .par_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(rel))?;
            Ok(waivers_in_source(&source)
                .into_iter()
                .map(|waiver| WaiverSite { path: rel.clone(), waiver })
                .collect())
        })
        .collect();
    let mut waivers = Vec::new();
    for result in per_file {
        waivers.extend(result?);
    }
    waivers.sort_by(|a, b| (&a.path, a.waiver.line).cmp(&(&b.path, b.waiver.line)));
    Ok(waivers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(source: &str) -> Vec<Violation> {
        lint_source(source, FileClass::STRICT)
    }

    // -- carried-over rule semantics ---------------------------------------

    #[test]
    fn flags_unwrap_expect_panic_in_library_code() {
        let src = "fn f() {\n    let x = g().unwrap();\n    let y = h().expect(\"nope\");\n    panic!(\"boom\");\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.rule == Rule::NoUnwrap));
        assert_eq!(v[0].line, 2);
        assert!(v[0].col > 1, "column is recorded");
    }

    #[test]
    fn unwrap_adjacent_names_do_not_fire() {
        assert!(strict("fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }\n").is_empty());
        assert!(strict("fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n").is_empty());
        // `should_panic` contains `panic` as a substring but is one ident.
        assert!(strict("fn f() -> &'static str { \"should_panic(expected)\" }\n").is_empty());
    }

    #[test]
    fn test_modules_are_exempt_from_no_unwrap() {
        let src = "fn lib() -> u8 { 0 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        foo().unwrap();\n    }\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn code_after_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { foo().unwrap(); }\n}\nfn after() { bar().unwrap(); }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn brace_less_cfg_test_item_does_not_exempt_later_code() {
        let src = "#[cfg(test)]\nmod tests;\nfn after() { bar().unwrap(); }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        let src = "#[cfg(test)] use helpers::fixture;\nfn after() { bar().unwrap(); }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn non_library_files_may_unwrap() {
        let class = FileClass { library: false, ..FileClass::STRICT };
        assert!(lint_source("fn main() { run().unwrap(); }\n", class).is_empty());
    }

    #[test]
    fn flags_nondeterministic_rng_in_simulation_code() {
        let src = "fn f() {\n    let mut rng = rand::thread_rng();\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NondeterministicRng);
        let class = FileClass { simulation: false, ..FileClass::STRICT };
        assert!(lint_source(src, class).is_empty());
        assert_eq!(strict("fn f() -> u8 { rand::random() }\n").len(), 1);
    }

    #[test]
    fn flags_thread_spawn_in_policed_library_code() {
        let src = "fn f() {\n    let h = std::thread::spawn(|| 1);\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::ThreadSpawn);
        assert_eq!(strict("fn f() {\n    thread::spawn(|| 1);\n}\n")[0].rule, Rule::ThreadSpawn);
        let class = FileClass { thread_policed: false, ..FileClass::STRICT };
        assert!(lint_source(src, class).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| 1); }\n}\n";
        assert!(strict(test_src).is_empty());
        let waived =
            "fn f() {\n    // lint:allow(thread-spawn) — watchdog timer, not data parallelism\n    std::thread::spawn(|| 1);\n}\n";
        assert!(strict(waived).is_empty());
    }

    #[test]
    fn flags_print_macros_in_library_code() {
        let src = "fn f() {\n    println!(\"a\");\n    eprintln!(\"b\");\n    print!(\"c\");\n    eprint!(\"d\");\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::NoPrintInLibrary));
        // One finding per macro: `eprintln!` is a single ident token, so it
        // can no longer double-match the `println!` pattern even in theory.
        assert_eq!(strict("fn f() { eprintln!(\"x\"); }\n").len(), 1);
        let class = FileClass { print_policed: false, ..FileClass::STRICT };
        assert!(lint_source(src, class).is_empty());
        let inert =
            "fn f() -> &'static str {\n    // the CLI used println!(...) here\n    \"println!(not code)\"\n}\n";
        assert!(strict(inert).is_empty());
    }

    #[test]
    fn flags_float_equality_but_not_integers_or_ranges() {
        assert_eq!(strict("fn f(x: f64) -> bool { x == 0.0 }\n").len(), 1);
        assert_eq!(strict("fn f(x: f64) -> bool { 1.5 != x }\n").len(), 1);
        assert_eq!(strict("fn f(x: f64) -> bool { x == 1e-3 }\n").len(), 1);
        assert_eq!(strict("fn f(x: f64) -> bool { x == -0.5 }\n").len(), 1);
        assert!(strict("fn f(x: u8) -> bool { x == 3 }\n").is_empty());
        assert!(strict("fn f(x: f64) -> bool { x <= 0.5 }\n").is_empty());
        assert!(strict("fn f(x: f64) -> bool { x >= 0.5 }\n").is_empty());
        assert!(strict("fn f(v: &[u8]) -> bool { v.len() == 2 }\n").is_empty());
        assert!(strict("fn f(w: &[(u16, f64)]) -> bool { w[0].0 != w[1].0 }\n").is_empty());
        assert!(strict("fn f(p: (u8, u8), q: (u8, u8)) -> bool { p.0 == q.0 }\n").is_empty());
    }

    #[test]
    fn float_comparison_split_across_lines_is_caught() {
        // The old line scanner could not see this; the token engine can.
        let src = "fn f(x: f64) -> bool {\n    x ==\n        0.25\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatEq);
        assert_eq!(v[0].line, 2, "reported at the operator");
    }

    #[test]
    fn flags_unjustified_allow_and_accepts_commented_ones() {
        let bare = "#[allow(dead_code)]\nfn f() {}\n";
        let v = strict(bare);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnjustifiedAllow);
        let same_line = "#[allow(dead_code)] // kept for the public API sketch\nfn f() {}\n";
        assert!(strict(same_line).is_empty());
        let line_above =
            "// The variants mirror the paper's table.\n#[allow(dead_code)]\nfn f() {}\n";
        assert!(strict(line_above).is_empty());
    }

    // -- decoys the line scanner used to misfire on ------------------------

    #[test]
    fn block_comment_decoys_do_not_fire() {
        let src = "/*\n * example: call .unwrap() then panic!(\"x\")\n * and compare x == 1.0 via thread::spawn\n */\nfn f() -> u8 { 0 }\n";
        assert!(strict(src).is_empty(), "{:?}", strict(src));
    }

    #[test]
    fn nested_block_comment_decoys_do_not_fire() {
        let src = "/* outer /* inner .unwrap() */ still comment panic!( */\nfn f() -> u8 { 0 }\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn raw_string_decoys_do_not_fire() {
        let src =
            "fn f() -> &'static str {\n    r#\"calls .unwrap() and \" panic!(\"inside\") \"#\n}\n";
        assert!(strict(src).is_empty(), "{:?}", strict(src));
    }

    #[test]
    fn multi_line_string_decoys_do_not_fire() {
        // The middle lines look exactly like violating code to a per-line
        // scanner; the token engine sees one string literal.
        let src = "fn f() -> String {\n    let s = \"first\n        x.unwrap();\n        panic!(\\\"boom\\\");\n        y == 1.0\n    \".to_string();\n    s\n}\n";
        assert!(strict(src).is_empty(), "{:?}", strict(src));
    }

    #[test]
    fn char_literal_quote_does_not_open_a_string() {
        let src = "fn f(c: char) -> bool {\n    c == '\"' && g().is_some()\n}\nfn g() -> Option<u8> { x().unwrap() }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn byte_string_decoys_do_not_fire() {
        let src = "fn f() -> &'static [u8] {\n    b\".unwrap() panic!(\"\n}\n";
        assert!(strict(src).is_empty());
    }

    // -- the three workspace-contract rules --------------------------------

    #[test]
    fn env_read_outside_from_env_fires() {
        let src = "pub fn master_seed() -> u64 {\n    std::env::var(\"UOF_SEED\").ok().and_then(|s| s.parse().ok()).unwrap_or(2021)\n}\n";
        let v = strict(src);
        assert!(v.iter().any(|v| v.rule == Rule::EnvReadOutsideConfig), "{v:?}");
    }

    #[test]
    fn env_read_inside_from_env_is_classified() {
        let src = "pub fn from_env() -> Config {\n    let on = std::env::var(\"UOF_CACHE\").is_ok();\n    Config { on }\n}\npub fn seed_from_env() -> u64 {\n    std::env::var(\"UOF_SEED\").map(|s| s.len() as u64).unwrap_or(0)\n}\n";
        assert!(!strict(src).iter().any(|v| v.rule == Rule::EnvReadOutsideConfig));
    }

    #[test]
    fn env_read_of_non_uof_literal_is_out_of_scope() {
        let src = "fn home() -> Option<String> {\n    std::env::var(\"HOME\").ok()\n}\n";
        assert!(!strict(src).iter().any(|v| v.rule == Rule::EnvReadOutsideConfig));
    }

    #[test]
    fn env_read_of_non_literal_name_is_conservative() {
        let src = "fn read(name: &str) -> Option<String> {\n    std::env::var(name).ok()\n}\n";
        let v = strict(src);
        assert!(v.iter().any(|v| v.rule == Rule::EnvReadOutsideConfig), "{v:?}");
    }

    #[test]
    fn env_macro_is_not_an_env_read() {
        let src = "fn root() -> &'static str {\n    env!(\"CARGO_MANIFEST_DIR\")\n}\n";
        assert!(!strict(src).iter().any(|v| v.rule == Rule::EnvReadOutsideConfig));
    }

    #[test]
    fn hashmap_iteration_fires_on_iter_and_for() {
        let src = "use std::collections::HashMap;\nfn f(map: HashMap<u8, u8>) -> u32 {\n    let mut sum = 0u32;\n    for (_, v) in &map {\n        sum += u32::from(*v);\n    }\n    sum + map.values().map(|v| u32::from(*v)).sum::<u32>()\n}\n";
        let v: Vec<_> =
            strict(src).into_iter().filter(|v| v.rule == Rule::HashMapIteration).collect();
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 4);
        assert_eq!(v[1].line, 7);
    }

    #[test]
    fn hashmap_point_operations_are_legal() {
        let src = "use std::collections::HashMap;\nstruct S { map: HashMap<u8, u8> }\nimpl S {\n    fn get(&mut self, k: u8) -> Option<u8> {\n        self.map.get(&k).copied()\n    }\n    fn put(&mut self, k: u8) { self.map.insert(k, 0); self.map.remove(&k); }\n    fn size(&self) -> usize { self.map.len() }\n}\n";
        assert!(
            !strict(src).iter().any(|v| v.rule == Rule::HashMapIteration),
            "point lookups never observe order"
        );
    }

    #[test]
    fn hashset_and_self_field_iteration_fire() {
        let src = "use std::collections::HashSet;\nstruct S { seen: HashSet<u64> }\nimpl S {\n    fn all(&self) -> Vec<u64> {\n        let mut out = Vec::new();\n        for x in &self.seen {\n            out.push(*x);\n        }\n        out\n    }\n}\n";
        let v = strict(src);
        assert!(v.iter().any(|v| v.rule == Rule::HashMapIteration), "{v:?}");
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "use std::collections::BTreeMap;\nfn f(map: BTreeMap<u8, u8>) -> u32 {\n    map.values().map(|v| u32::from(*v)).sum()\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn hashmap_iteration_in_tests_is_exempt_and_class_gated() {
        let test_src = "use std::collections::HashSet;\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let seen: HashSet<u8> = HashSet::new();\n        for x in &seen {}\n    }\n}\n";
        assert!(strict(test_src).is_empty());
        let src = "use std::collections::HashMap;\nfn f(map: HashMap<u8,u8>) -> usize { map.keys().count() }\n";
        let class = FileClass { order_policed: false, ..FileClass::STRICT };
        assert!(lint_source(src, class).is_empty());
    }

    #[test]
    fn wallclock_in_sim_fires_and_is_class_gated() {
        let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\nfn g() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n";
        let v: Vec<_> =
            strict(src).into_iter().filter(|v| v.rule == Rule::WallclockInSim).collect();
        assert_eq!(v.len(), 2, "{v:?}");
        let class = FileClass { wallclock_policed: false, ..FileClass::STRICT };
        assert!(!lint_source(src, class).iter().any(|v| v.rule == Rule::WallclockInSim));
    }

    #[test]
    fn flags_dynamic_metric_names_but_not_literals() {
        // A variable (or any non-literal expression) as the name argument
        // fires for every metric-defining method and for `span`.
        let dynamic = "fn f(t: &Telemetry, name: &'static str) {\n    t.registry().counter(name).incr();\n    t.registry().gauge(name).set(1);\n    t.registry().histogram(name, &B).observe(2);\n    t.registry().latency_histogram(name).observe(3);\n    let _s = t.span(name).start();\n}\n";
        let v: Vec<_> =
            strict(dynamic).into_iter().filter(|v| v.rule == Rule::DynamicMetricName).collect();
        assert_eq!(v.len(), 5, "{v:?}");
        // String literals — of any flavour — are fine.
        let literal = "fn f(t: &Telemetry) {\n    t.registry().counter(\"reach.requests\").incr();\n    let _s = t.span(r#\"server.frame\"#).start();\n}\n";
        assert!(strict(literal).is_empty(), "{:?}", strict(literal));
        // Unrelated idents sharing a prefix, and `count` (which collides
        // with Iterator::count / the index's count), never fire.
        let inert = "fn f(v: &[u8], idx: &Index, w: &World) -> usize {\n    v.iter().count() + idx.count(w)\n}\n";
        assert!(strict(inert).is_empty(), "{:?}", strict(inert));
    }

    #[test]
    fn dynamic_metric_name_is_class_gated_waivable_and_test_exempt() {
        let src = "fn f(t: &Telemetry, name: &'static str) {\n    t.registry().counter(name).incr();\n}\n";
        let class = FileClass { metric_name_policed: false, ..FileClass::STRICT };
        assert!(lint_source(src, class).is_empty());
        let waived = "fn f(t: &Telemetry, name: &'static str) {\n    // lint:allow(dynamic-metric-name) — name comes from a static table\n    t.registry().counter(name).incr();\n}\n";
        assert!(strict(waived).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t(r: &Registry, n: &str) { r.counter(n).incr(); }\n}\n";
        assert!(strict(test_src).is_empty());
    }

    // -- waivers ------------------------------------------------------------

    #[test]
    fn waiver_suppresses_only_named_rule() {
        let src = "fn f() {\n    x().unwrap(); // lint:allow(no-unwrap) — startup invariant, cannot fail\n}\n";
        assert!(strict(src).is_empty());
        let wrong_rule = "fn f() {\n    x().unwrap(); // lint:allow(float-eq) — misdirected\n}\n";
        assert_eq!(strict(wrong_rule).len(), 1);
    }

    #[test]
    fn waiver_on_preceding_line_applies() {
        let src = "fn f() {\n    // lint:allow(no-unwrap) — the mutex cannot be poisoned here\n    x().unwrap();\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn waived_findings_are_reported_not_dropped() {
        let src = "fn f() {\n    x().unwrap(); // lint:allow(no-unwrap) — startup invariant, cannot fail\n}\n";
        let all = analyze_source(src, FileClass::STRICT);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
        assert_eq!(all[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn waiver_without_reason_is_a_bad_waiver_finding() {
        let src = "fn f() {\n    x().unwrap(); // lint:allow(no-unwrap)\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == Rule::NoUnwrap), "the unwrap still fires");
        assert!(v.iter().any(|v| v.rule == Rule::BadWaiver), "and the waiver is flagged");
        let dash_only = "fn f() {\n    x().unwrap(); // lint:allow(no-unwrap) —\n}\n";
        assert!(strict(dash_only).iter().any(|v| v.rule == Rule::BadWaiver));
    }

    #[test]
    fn unknown_rule_in_waiver_is_an_error_finding() {
        // The typo'd name waives nothing AND is loudly reported — the
        // failure mode this rule exists for.
        let src = "fn f() {\n    x().unwrap(); // lint:allow(no-unwarp) — reason text here\n}\n";
        let v = strict(src);
        assert!(v.iter().any(|v| v.rule == Rule::NoUnwrap), "{v:?}");
        let bad: Vec<_> = v.iter().filter(|v| v.rule == Rule::BadWaiver).collect();
        assert_eq!(bad.len(), 1, "{v:?}");
        assert!(bad[0].excerpt.contains("no-unwarp"), "{:?}", bad[0].excerpt);
    }

    #[test]
    fn unterminated_waiver_is_an_error_finding() {
        let src = "fn f() -> u8 {\n    // lint:allow(no-unwrap — missing close paren\n    0\n}\n";
        assert!(strict(src).iter().any(|v| v.rule == Rule::BadWaiver));
    }

    #[test]
    fn documentation_placeholder_waivers_are_ignored() {
        let src =
            "//! Waive with `lint:allow(<rule>) — reason` on the line above.\nfn f() -> u8 { 0 }\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn bad_waiver_is_not_waivable() {
        let src = "fn f() -> u8 {\n    // lint:allow(bad-waiver, no-unwarp) — trying to waive the waiver checker\n    0\n}\n";
        assert!(strict(src).iter().any(|v| v.rule == Rule::BadWaiver));
    }

    #[test]
    fn waivers_in_source_inventories_reasons() {
        let src = "fn f() {\n    // lint:allow(no-unwrap, float-eq) — two rules, one reason\n    x().unwrap();\n}\n";
        let waivers = waivers_in_source(src);
        assert_eq!(waivers.len(), 1);
        assert_eq!(waivers[0].line, 2);
        assert_eq!(waivers[0].rules, vec![Rule::NoUnwrap, Rule::FloatEq]);
        assert_eq!(waivers[0].reason, "two rules, one reason");
    }

    // -- classification -----------------------------------------------------

    #[test]
    fn classify_maps_paths() {
        let lib = classify(Path::new("crates/uniqueness/src/np.rs")).unwrap();
        assert!(lib.library && lib.simulation && lib.thread_policed && lib.print_policed);
        assert!(lib.env_policed && lib.order_policed && lib.wallclock_policed);
        let bin = classify(Path::new("crates/bench/src/bin/fig_np.rs")).unwrap();
        assert!(!bin.library && !bin.thread_policed && !bin.print_policed);
        assert!(bin.env_policed, "binaries still funnel UOF_* reads through from_env");
        let test = classify(Path::new("tests/end_to_end.rs")).unwrap();
        assert!(!test.library && test.simulation && !test.thread_policed);
        assert!(!test.env_policed && !test.order_policed && !test.wallclock_policed);
        let xt = classify(Path::new("crates/xtask/src/lib.rs")).unwrap();
        assert!(xt.library && !xt.simulation && !xt.print_policed && !xt.wallclock_policed);
        let bench_lib = classify(Path::new("crates/bench/src/lib.rs")).unwrap();
        assert!(bench_lib.library && !bench_lib.print_policed && bench_lib.env_policed);
        assert!(!bench_lib.wallclock_policed, "bench timing is operational, not simulated");
        let telemetry = classify(Path::new("crates/uof-telemetry/src/lib.rs")).unwrap();
        assert!(telemetry.print_policed);
        assert!(!telemetry.wallclock_policed, "telemetry's purpose is wall-clock timing");
        assert!(!telemetry.metric_name_policed, "registry plumbing is generic over names");
        let api = classify(Path::new("crates/reach-api/src/server.rs")).unwrap();
        assert!(api.library && !api.thread_policed);
        assert!(!api.wallclock_policed, "rate limiting may read the clock");
        assert!(api.metric_name_policed, "instrumented code must use literal metric names");
        assert!(!bin.metric_name_policed && !xt.metric_name_policed);
        assert!(!bench_lib.metric_name_policed);
        let cache = classify(Path::new("crates/reach-cache/src/lru.rs")).unwrap();
        assert!(cache.order_policed, "cache answers must be order-deterministic");
        assert!(!cache.simulation && !cache.wallclock_policed);
        let pop = classify(Path::new("crates/fbsim-population/src/reach.rs")).unwrap();
        assert!(pop.thread_policed && pop.order_policed);
        // The marketplace is a simulation crate like the other fbsim-*
        // members: deterministic-RNG, iteration-order, thread, and
        // wall-clock rules all apply to its auction/pacing hot paths.
        let market = classify(Path::new("crates/fbsim-marketplace/src/pacing.rs")).unwrap();
        assert!(market.library && market.simulation);
        assert!(market.order_policed && market.wallclock_policed);
        assert!(market.thread_policed && market.print_policed && market.env_policed);
        assert!(classify(Path::new("vendor/rand/src/lib.rs")).is_none());
        assert!(classify(Path::new("README.md")).is_none());
    }

    #[test]
    fn classify_covers_every_walked_top_level_dir() {
        // Satellite contract: the classification of each top-level dir in
        // WALK_DIRS is pinned, so the walk list and the class table cannot
        // drift apart silently.
        for top in WALK_DIRS {
            let rel = PathBuf::from(top).join("probe.rs");
            let class = classify(&rel).unwrap_or_else(|| panic!("{top}/probe.rs must classify"));
            match top {
                "crates" | "src" => {
                    assert!(class.library, "{top}: library code");
                    assert!(class.env_policed, "{top}: env contract applies");
                }
                "tests" | "examples" | "benches" => {
                    assert!(!class.library, "{top}: not library code");
                    assert!(class.simulation, "{top}: facade crate, determinism still applies");
                    assert!(!class.thread_policed, "{top}: may spawn threads");
                    assert!(!class.print_policed, "{top}: may print");
                    assert!(!class.env_policed, "{top}: harness code may read the environment");
                    assert!(!class.order_policed && !class.wallclock_policed);
                }
                other => panic!("unexpected walk dir {other}"),
            }
        }
        // Nested test/bench/example dirs inside crates classify the same
        // way as the root-level ones.
        let nested = classify(Path::new("crates/bench/benches/reach_engine.rs")).unwrap();
        assert!(!nested.library && !nested.env_policed);
        let nested = classify(Path::new("crates/reach-api/tests/loopback.rs")).unwrap();
        assert!(!nested.library && !nested.env_policed);
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    // -- report / JSON -------------------------------------------------------

    #[test]
    fn report_json_round_trips_and_counts() {
        let src = "fn f() {\n    x().unwrap(); // lint:allow(no-unwrap) — startup invariant, cannot fail\n    let _gap = 0;\n    y().unwrap();\n}\n";
        let findings: Vec<FileViolation> = analyze_source(src, FileClass::STRICT)
            .into_iter()
            .map(|violation| FileViolation { path: PathBuf::from("src/demo.rs"), violation })
            .collect();
        let report = Report { files: 1, findings };
        let text = report.to_json();
        let value = json::parse(&text).expect("report JSON parses");
        assert_eq!(value.to_json_string(), text, "canonical bytes round-trip");
        let summary = value.get("summary").expect("summary present");
        assert_eq!(summary.get("total"), Some(&json::Value::Num("2".into())));
        assert_eq!(summary.get("active"), Some(&json::Value::Num("1".into())));
        assert_eq!(summary.get("waived"), Some(&json::Value::Num("1".into())));
        let per_rule = summary.get("per_rule").expect("per_rule present");
        let unwrap_counts = per_rule.get("no-unwrap").expect("no-unwrap entry");
        assert_eq!(unwrap_counts.get("active"), Some(&json::Value::Num("1".into())));
        assert_eq!(unwrap_counts.get("waived"), Some(&json::Value::Num("1".into())));
        // Every rule appears in per_rule, even with zero counts.
        for rule in Rule::ALL {
            assert!(per_rule.get(rule.name()).is_some(), "{} missing", rule.name());
        }
    }
}

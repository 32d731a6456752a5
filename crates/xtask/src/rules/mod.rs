//! The token-level rule engine: rule catalog, file classes, waiver parsing,
//! `#[cfg(test)]`-region tracking, and per-rule dispatch.
//!
//! Every rule walks the same token stream (comments filtered out, string
//! literals atomic), so a pattern inside a block comment, raw string or
//! multi-line string literal can never fire — the false-positive classes the
//! old line-local substring scanner suffered from. Conversely a construct
//! split across lines (e.g. `x ==\n    1.0`) is now caught, because the
//! rules see adjacent tokens, not lines.

mod allow_attr;
mod env_read;
mod float_eq;
mod hashmap_iter;
mod patterns;

use std::fmt;

use crate::lexer::{lex, Token, TokenKind};

/// The lint rules the engine knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `unwrap()` / `expect(` / `panic!(` in library non-test code.
    NoUnwrap,
    /// Nondeterministic RNG construction in simulation crates.
    NondeterministicRng,
    /// `==` / `!=` against floating-point literals.
    FloatEq,
    /// `#[allow(...)]` without a justification comment.
    UnjustifiedAllow,
    /// Direct `std::thread::spawn` in library code that should use the
    /// vendored rayon pool instead.
    ThreadSpawn,
    /// `println!` / `eprintln!` / `print!` / `eprint!` in library code that
    /// should report through the telemetry layer instead of stdio.
    NoPrintInLibrary,
    /// `std::env::var` of a `UOF_*` knob (or of a non-literal name) outside
    /// a `from_env`-style constructor — the "a config is the value its
    /// caller builds" contract.
    EnvReadOutsideConfig,
    /// Iterating a `std::collections::HashMap` / `HashSet` in
    /// order-policed (simulation / cache) code: iteration order is
    /// nondeterministic and threatens bit-identity.
    HashMapIteration,
    /// `Instant::now` / `SystemTime::now` in simulation-crate library code:
    /// simulated results must never depend on the wall clock.
    WallclockInSim,
    /// A metric or span name argument (`counter(…)`, `gauge(…)`,
    /// `histogram(…)`, `latency_histogram(…)`, `span(…)`) that is not a
    /// string literal in library code: the metric namespace must stay
    /// greppable, and dynamic names can explode snapshot cardinality.
    DynamicMetricName,
    /// A malformed `lint:allow` waiver: unknown rule name, missing reason,
    /// or unterminated marker. Not waivable.
    BadWaiver,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 11] = [
        Rule::NoUnwrap,
        Rule::NondeterministicRng,
        Rule::FloatEq,
        Rule::UnjustifiedAllow,
        Rule::ThreadSpawn,
        Rule::NoPrintInLibrary,
        Rule::EnvReadOutsideConfig,
        Rule::HashMapIteration,
        Rule::WallclockInSim,
        Rule::DynamicMetricName,
        Rule::BadWaiver,
    ];

    /// The rule's waiver / report name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NondeterministicRng => "nondeterministic-rng",
            Rule::FloatEq => "float-eq",
            Rule::UnjustifiedAllow => "unjustified-allow",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::NoPrintInLibrary => "no-print-in-library",
            Rule::EnvReadOutsideConfig => "env-read-outside-config",
            Rule::HashMapIteration => "hashmap-iteration",
            Rule::WallclockInSim => "wallclock-in-sim",
            Rule::DynamicMetricName => "dynamic-metric-name",
            Rule::BadWaiver => "bad-waiver",
        }
    }

    /// The rule's severity label in reports. Everything the gate enforces
    /// is an error today; the field exists so the JSON format does not have
    /// to change when advisory rules arrive.
    pub fn severity(self) -> &'static str {
        "error"
    }

    /// Parses a waiver name back to a rule.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Index in [`Rule::ALL`], for stable sort order.
    fn order(self) -> usize {
        Rule::ALL.iter().position(|r| *r == self).unwrap_or(Rule::ALL.len())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a file participates in linting, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Library (non-test, non-bin) code: [`Rule::NoUnwrap`] applies.
    pub library: bool,
    /// Simulation crate: [`Rule::NondeterministicRng`] applies.
    pub simulation: bool,
    /// Library code that must parallelise through the vendored rayon pool:
    /// [`Rule::ThreadSpawn`] applies.
    pub thread_policed: bool,
    /// Library code that must not write to stdio:
    /// [`Rule::NoPrintInLibrary`] applies.
    pub print_policed: bool,
    /// Code that must not read `UOF_*` environment knobs outside a
    /// `from_env`-style constructor: [`Rule::EnvReadOutsideConfig`] applies.
    pub env_policed: bool,
    /// Library code whose outputs must be bit-identical run to run
    /// (simulation crates and the reach cache): [`Rule::HashMapIteration`]
    /// applies.
    pub order_policed: bool,
    /// Simulation-crate library code: [`Rule::WallclockInSim`] applies.
    /// Telemetry (its whole purpose is timing) and `reach-api` rate
    /// limiting (operational, not simulated) are exempt by class.
    pub wallclock_policed: bool,
    /// Library code whose metric/span names must be string literals:
    /// [`Rule::DynamicMetricName`] applies. `uof-telemetry` itself (the
    /// registry plumbing is generic over names) is exempt by class.
    pub metric_name_policed: bool,
}

impl FileClass {
    /// Class under which every rule fires — what the unit-test fixtures use.
    pub const STRICT: Self = Self {
        library: true,
        simulation: true,
        thread_policed: true,
        print_policed: true,
        env_policed: true,
        order_policed: true,
        wallclock_policed: true,
        metric_name_policed: true,
    };
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: Rule,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (in chars) of the offending token.
    pub col: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Whether an inline `lint:allow` waiver covers this finding. Waived
    /// findings are reported (JSON `waived: true`) but do not fail the gate.
    pub waived: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: [{}] {}", self.line, self.col, self.rule, self.excerpt)
    }
}

/// A waiver comment parsed from source:
/// `// lint:allow(<rule-a>, <rule-b>) — reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the `lint:allow` marker appears on. The waiver covers
    /// findings on this line and the next one.
    pub line: usize,
    /// The rules it waives.
    pub rules: Vec<Rule>,
    /// The mandatory justification.
    pub reason: String,
}

/// Everything the per-rule checkers need.
pub(crate) struct Context<'a> {
    /// Code tokens (comments stripped).
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: inside a `#[cfg(test)]` region.
    pub in_test: &'a [bool],
    /// The file's class.
    pub class: FileClass,
    /// Raw source lines, for excerpts.
    pub lines: &'a [&'a str],
}

impl Context<'_> {
    /// Builds a finding at a token's span.
    pub fn finding(&self, rule: Rule, at: &Token) -> Violation {
        let excerpt: String = self
            .lines
            .get(at.line.saturating_sub(1))
            .map(|l| l.trim().chars().take(120).collect())
            .unwrap_or_default();
        Violation { rule, line: at.line, col: at.col, excerpt, waived: false }
    }
}

/// Analyzes one file's source under a [`FileClass`], returning **all**
/// findings — waived ones carry `waived: true`. Findings are sorted by
/// `(line, col, rule)`.
pub fn analyze_source(source: &str, class: FileClass) -> Vec<Violation> {
    let all_tokens = lex(source);
    let lines: Vec<&str> = source.lines().collect();

    // Split trivia from code, preserving spans.
    let mut code: Vec<Token> = Vec::with_capacity(all_tokens.len());
    let mut comments: Vec<Token> = Vec::new();
    for token in all_tokens {
        if token.is_comment() {
            comments.push(token);
        } else {
            code.push(token);
        }
    }
    let in_test = test_regions(&code);

    let ctx = Context { tokens: &code, in_test: &in_test, class, lines: &lines };
    let mut findings = Vec::new();
    patterns::check(&ctx, &mut findings);
    float_eq::check(&ctx, &mut findings);
    allow_attr::check(&ctx, &comments, &mut findings);
    env_read::check(&ctx, &mut findings);
    hashmap_iter::check(&ctx, &mut findings);

    // Waivers: parse every comment, emit bad-waiver findings for malformed
    // markers, and mark covered findings as waived.
    let mut waivers = Vec::new();
    for comment in &comments {
        parse_waiver_comment(comment, &lines, &mut waivers, &mut findings);
    }
    for finding in &mut findings {
        if finding.rule == Rule::BadWaiver {
            continue; // not waivable
        }
        let covered = waivers.iter().any(|w| {
            (w.line == finding.line || w.line + 1 == finding.line)
                && w.rules.contains(&finding.rule)
        });
        if covered {
            finding.waived = true;
        }
    }

    findings.sort_by(|a, b| (a.line, a.col, a.rule.order()).cmp(&(b.line, b.col, b.rule.order())));
    findings
}

/// Parses the waivers in one file (for the `lint --waivers` inventory).
/// Malformed markers are skipped here — `analyze_source` reports them.
pub fn waivers_in_source(source: &str) -> Vec<Waiver> {
    let lines: Vec<&str> = source.lines().collect();
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for token in lex(source) {
        if token.is_comment() {
            parse_waiver_comment(&token, &lines, &mut waivers, &mut findings);
        }
    }
    waivers
}

const MARKER: &str = "lint:allow(";

/// Parses a `lint:allow(<rule>)` marker out of one comment token, pushing a
/// [`Waiver`] when well-formed and a [`Rule::BadWaiver`] finding when not.
///
/// Markers whose rule list contains `<` or `>` are documentation
/// placeholders (`lint:allow(<rule>) — reason` in prose) and are ignored
/// entirely — rule names cannot contain angle brackets.
fn parse_waiver_comment(
    comment: &Token,
    lines: &[&str],
    waivers: &mut Vec<Waiver>,
    findings: &mut Vec<Violation>,
) {
    let Some(marker) = comment.text.find(MARKER) else { return };
    // The marker's own line: comments can span lines (block comments), so
    // offset the token's start line by newlines preceding the marker.
    let line = comment.line + comment.text[..marker].matches('\n').count();
    let excerpt: String = lines
        .get(line.saturating_sub(1))
        .map(|l| l.trim().chars().take(120).collect())
        .unwrap_or_default();
    let mut bad = |why: &str| {
        findings.push(Violation {
            rule: Rule::BadWaiver,
            line,
            col: comment.col,
            excerpt: format!("{why}: {excerpt}"),
            waived: false,
        });
    };

    let after = &comment.text[marker + MARKER.len()..];
    let Some(close) = after.find(')') else {
        bad("unterminated lint:allow marker");
        return;
    };
    let names = &after[..close];
    if names.contains(['<', '>']) {
        return; // documentation placeholder, not a real waiver
    }
    let mut rules = Vec::new();
    let mut unknown = Vec::new();
    for name in names.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        match Rule::from_name(name) {
            Some(rule) => rules.push(rule),
            None => unknown.push(name.to_string()),
        }
    }
    for name in &unknown {
        bad(&format!("unknown rule `{name}` in lint:allow"));
    }
    let mut reason = after[close + 1..].trim_start_matches([' ', '\u{2014}', '-', ':']).trim();
    if let Some(stripped) = reason.strip_suffix("*/") {
        reason = stripped.trim();
    }
    let reason = reason.lines().next().unwrap_or("").trim();
    if reason.is_empty() {
        bad("lint:allow without a reason");
        return;
    }
    if rules.is_empty() {
        if unknown.is_empty() {
            bad("lint:allow with an empty rule list");
        }
        return;
    }
    waivers.push(Waiver { line, rules, reason: reason.to_string() });
}

/// Marks every code token inside a `#[cfg(test)]` item's extent.
///
/// The attribute sequence `# [ cfg ( test ) ]` (or the inner form with a
/// `!`) starts a region; the region covers subsequent attributes and either
/// the item's brace-matched `{ … }` body or, for a brace-less item
/// (`mod tests;`, `#[cfg(test)] use …;`), just up to the `;` — so a later
/// unrelated braced item is never silently exempted.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test(tokens, i) {
            let mut j = after_attr;
            // Skip further attributes between cfg(test) and the item.
            while j < tokens.len() && tokens[j].is_punct("#") {
                j = skip_attribute(tokens, j);
            }
            // Find the item's extent: first `{` at paren depth 0 opens the
            // body (match braces); a `;` first means a brace-less item.
            let mut paren = 0i64;
            let mut end = tokens.len();
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren -= 1;
                } else if paren == 0 && t.is_punct(";") {
                    end = j + 1;
                    break;
                } else if paren == 0 && t.is_punct("{") {
                    end = matching_brace(tokens, j);
                    break;
                }
                j += 1;
            }
            for flag in in_test.iter_mut().take(end.min(tokens.len())).skip(i) {
                *flag = true;
            }
            i = end.max(i + 1);
        } else {
            i += 1;
        }
    }
    in_test
}

/// If `tokens[i..]` starts a `#[cfg(test)]` / `#![cfg(test)]` attribute,
/// returns the index just past its closing `]`.
fn match_cfg_test(tokens: &[Token], i: usize) -> Option<usize> {
    let mut j = i;
    if !tokens.get(j)?.is_punct("#") {
        return None;
    }
    j += 1;
    if tokens.get(j)?.is_punct("!") {
        j += 1;
    }
    if !tokens.get(j)?.is_punct("[") {
        return None;
    }
    j += 1;
    if !tokens.get(j)?.is_ident("cfg") {
        return None;
    }
    j += 1;
    if !tokens.get(j)?.is_punct("(") {
        return None;
    }
    j += 1;
    if !tokens.get(j)?.is_ident("test") {
        return None;
    }
    j += 1;
    if !tokens.get(j)?.is_punct(")") {
        return None;
    }
    j += 1;
    if !tokens.get(j)?.is_punct("]") {
        return None;
    }
    Some(j + 1)
}

/// Skips a `#[...]` attribute starting at `i` (which must be `#`), returning
/// the index past its closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return j;
    }
    let mut depth = 0i64;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Index just past the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct("{") {
            depth += 1;
        } else if tokens[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// For each code token, the innermost enclosing function's name token index
/// (`None` at module level). Closures inherit their enclosing `fn`.
pub(crate) fn enclosing_fn(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut enclosing = vec![None; tokens.len()];
    let mut stack: Vec<(usize, i64)> = Vec::new(); // (name token idx, body depth)
    let mut pending: Option<usize> = None;
    let mut depth = 0i64;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.is_ident("fn") {
            if let Some(next) = tokens.get(i + 1) {
                if next.kind == TokenKind::Ident {
                    pending = Some(i + 1);
                }
            }
        } else if t.is_punct("{") {
            depth += 1;
            if let Some(name) = pending.take() {
                stack.push((name, depth));
            }
        } else if t.is_punct("}") {
            if stack.last().is_some_and(|&(_, d)| d == depth) {
                stack.pop();
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == stack.last().map_or(0, |&(_, d)| d) {
            // Trait method signature without a body.
            pending = None;
        }
        enclosing[i] = stack.last().map(|&(name, _)| name);
    }
    enclosing
}

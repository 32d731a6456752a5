//! `env-read-outside-config`: `std::env::var` of a `UOF_*` knob outside a
//! `from_env`-style constructor.
//!
//! The workspace's configuration contract is that a config is the value
//! its caller builds: the serving and simulation libraries read no
//! environment at all, so an answer cannot change with ambient process
//! state, and the few operational knobs that remain (the bench harness's
//! `UOF_SCALE` and `UOF_SEED`) are read **only by `from_env` functions**,
//! where a reader can find every one. An `env::var("UOF_…")` call anywhere
//! else silently couples behaviour to ambient state.
//!
//! The rule fires on `env::var` / `env::var_os` calls when the innermost
//! enclosing function's name does not contain `from_env`, and the argument
//! is either a string literal mentioning `UOF_` or a non-literal expression
//! (which the lexer cannot prove harmless, so it is treated
//! conservatively — waive with a reason when a helper is only ever invoked
//! by a `from_env` constructor). Reads of non-`UOF_` literals (`PATH`,
//! `CARGO_MANIFEST_DIR`, …) are out of scope, as is the compile-time `env!`
//! macro, which lexes as `env` `!` and never matches the `env` `::` `var`
//! pattern.

use crate::lexer::TokenKind;

use super::{enclosing_fn, Context, Rule, Violation};

pub(super) fn check(ctx: &Context<'_>, out: &mut Vec<Violation>) {
    if !ctx.class.env_policed {
        return;
    }
    let toks = ctx.tokens;
    let enclosing = enclosing_fn(toks);
    for i in 2..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if !(t.is_ident("var") || t.is_ident("var_os")) {
            continue;
        }
        if !(toks[i - 1].is_punct("::") && toks[i - 2].is_ident("env")) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // Argument: a literal not mentioning UOF_ is out of scope; a UOF_
        // literal or anything non-literal is policed.
        if let Some(arg) = toks.get(i + 2) {
            if arg.kind == TokenKind::Str && !arg.text.contains("UOF_") {
                continue;
            }
        }
        let fn_name = enclosing[i].map(|idx| toks[idx].text.as_str()).unwrap_or("");
        if fn_name.contains("from_env") {
            continue;
        }
        out.push(ctx.finding(Rule::EnvReadOutsideConfig, t));
    }
}

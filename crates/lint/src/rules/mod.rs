//! Lint rules. Each module exposes `check(...)` appending [`Finding`]s;
//! suppression and sorting happen centrally in [`crate::run`].

use crate::summary::{match_arms, FnSummary, MatchArm, Summaries};
use crate::{Finding, SourceFile};

pub mod determinism;
pub mod dispatch;
pub mod fence;
pub mod hash_iter;
pub mod lock_across_call;
pub mod locks;
pub mod obs_schema;
pub mod wal_ack;

/// The functions a handler spec names (`handler_type::handler_method`),
/// each with the arms of its `match` over `request_enum` — what the
/// per-arm rules (`wal-before-ack`, `fence-before-apply`) iterate.
///
/// A spec that matches no function, or only functions without a single
/// `request_enum` arm, checks nothing and would report a clean run for
/// ever after: exactly what a refactor that renames the handler or moves
/// its match into another function leaves behind. So while the enum is
/// defined somewhere in the tree, an unmatched spec is itself a finding
/// under `rule`. (A tree that does not model the protocol at all — a
/// fixture — is skipped, as in the dispatch-arm rule.)
pub(crate) fn handler_arms<'a>(
    files: &[SourceFile],
    sums: &'a Summaries,
    rule: &'static str,
    (handler_type, handler_method, request_enum): (&str, &str, &str),
    findings: &mut Vec<Finding>,
) -> Vec<(&'a FnSummary, Vec<MatchArm>)> {
    let named: Vec<&FnSummary> = sums
        .fns
        .iter()
        .filter(|f| f.name == handler_method && f.impl_type.as_deref() == Some(handler_type))
        .collect();
    let matched: Vec<(&FnSummary, Vec<MatchArm>)> = named
        .iter()
        .map(|&f| {
            let toks = &files[f.file_idx].runtime_tokens;
            (f, match_arms(toks, f.body, request_enum))
        })
        .filter(|(_, arms)| !arms.is_empty())
        .collect();
    if matched.is_empty() {
        if let Some((file, line)) = enum_definition(files, request_enum) {
            let found = if named.is_empty() {
                "no such function".to_string()
            } else {
                format!("its body has no `{request_enum}::…` match arm")
            };
            findings.push(Finding {
                file,
                line,
                rule,
                message: format!(
                    "the {rule} spec names `{handler_type}::{handler_method}` as the \
                     handler of `{request_enum}`, but {found} — the rule checks nothing; \
                     point the spec at the function that holds the dispatch match"
                ),
            });
        }
    }
    matched
}

/// Where `enum name` is defined in library code, if anywhere in the tree.
fn enum_definition(files: &[SourceFile], name: &str) -> Option<(String, u32)> {
    files.iter().filter(|sf| sf.info.is_src).find_map(|sf| {
        let toks = &sf.lexed.tokens;
        toks.windows(2)
            .find(|w| w[0].kind.is_ident("enum") && w[1].kind.is_ident(name))
            .map(|w| (sf.info.rel.clone(), w[1].line))
    })
}

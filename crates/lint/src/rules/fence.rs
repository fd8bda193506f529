//! `fence-before-apply` — wire-dispatched segment ops must pass the
//! replica-epoch serving fence before touching the store.
//!
//! The PR-6 bug class: a demoted ex-primary (or a backup) that applies
//! a client op to its local store without first checking that it still
//! *serves* the segment writes on the wrong side of a promotion —
//! split-brain write loss. The original instance was `WriteBackBatch`
//! silently bypassing `check_serving` while every other arm had it.
//!
//! For every [`crate::FenceSpec`], each arm of the handler's `match`
//! over the wire request enum that (directly or through the bounded
//! call graph) touches the segment store must also reach one of the
//! fence functions — except the variants the spec exempts (creation
//! ops act before the segment is served; the mirror/promotion plane
//! carries its own epoch checks). When an arm has both a direct store
//! touch and a direct fence, the touch must not come first: the fence
//! read *after* the write is the same bug with extra steps. (Ordering
//! across call boundaries is not modeled — a fence reached only via a
//! callee is trusted to precede that callee's own touches, which holds
//! for every per-page loop in the workspace.)
//!
//! The same direct-order check covers copyset drops (`forget_copy`): a
//! `FetchPages` request carries the releases of the pages its requester
//! evicted, and a server that drops them before discovering it no longer
//! serves the segment has half-applied a request it then refuses.
//!
//! **The prologue fence.** A handler may instead run the fence once,
//! ahead of its match, for the segment a *fence map* names — the
//! workspace's `DsmServer::dispatch` does, through
//! `DsmRequest::fenced_segment`. The rule credits that fence to exactly
//! the variants whose arm in the map function yields `Some`, and only
//! when the handler's prologue both calls the map and reaches a fence
//! function; an arm so fenced has nothing ahead of the fence to order.
//! A variant the map sends to `None` is judged on its own arm, as
//! before.
//!
//! A spec whose handler cannot be found, or has no arm to slice, is a
//! finding of its own (see [`super::handler_arms`]).

use super::handler_arms;
use crate::summary::{match_arms, FnSummary, MatchArm, Summaries};
use crate::{Config, FenceSpec, Finding, SourceFile};
use std::collections::BTreeSet;

/// The variants fenced by the handler's prologue: the handler calls the
/// spec's fence map and a fence function ahead of its first arm, and the
/// map's own arm for the variant yields `Some`.
fn prologue_fenced(
    files: &[SourceFile],
    sums: &Summaries,
    spec: &FenceSpec,
    handler: &FnSummary,
    arms: &[MatchArm],
) -> BTreeSet<String> {
    let Some(map_fn) = spec.fence_map_fn else {
        return BTreeSet::new();
    };
    let first_arm = arms.iter().map(|a| a.pat).min().unwrap_or(handler.body.0);
    let maps = handler
        .calls
        .iter()
        .any(|c| c.tok < first_arm && c.callee == map_fn);
    let fences = handler.fence_checks.iter().any(|s| s.tok < first_arm);
    if !(maps && fences) {
        return BTreeSet::new();
    }
    sums.fns
        .iter()
        .filter(|f| f.name == map_fn)
        .flat_map(|f| {
            let toks = &files[f.file_idx].runtime_tokens;
            match_arms(toks, f.body, spec.request_enum)
                .into_iter()
                .filter(|arm| toks[arm.range.0..arm.range.1].iter().any(|t| t.kind.is_ident("Some")))
                .map(|arm| arm.variant)
        })
        .collect()
}

pub fn check(files: &[SourceFile], sums: &Summaries, cfg: &Config, findings: &mut Vec<Finding>) {
    for spec in &cfg.fences {
        let named = (spec.handler_type, spec.handler_method, spec.request_enum);
        for (handler, arms) in handler_arms(files, sums, "fence-before-apply", named, findings) {
            let by_prologue = prologue_fenced(files, sums, spec, handler, &arms);
            for arm in arms {
                if spec.exempt_variants.contains(&arm.variant.as_str()) {
                    continue;
                }
                let in_arm = |tok: usize| tok >= arm.range.0 && tok < arm.range.1;

                let touch = handler
                    .store_touches
                    .iter()
                    .find(|s| in_arm(s.tok))
                    .map(|s| (s.tok, s.what.clone()))
                    .or_else(|| {
                        sums.calls_reach(handler, arm.range, cfg.max_call_depth, |f| {
                            !f.store_touches.is_empty()
                        })
                        .map(|chain| (arm.range.1, format!("via {}", chain.join(" → "))))
                    });
                let Some((touch_tok, touch_what)) = touch else {
                    continue;
                };

                let direct_fence = handler.fence_checks.iter().find(|s| in_arm(s.tok));
                if let Some(fence) = direct_fence {
                    if let Some(early) = handler
                        .copyset_drops
                        .iter()
                        .find(|s| in_arm(s.tok) && s.tok < fence.tok)
                    {
                        findings.push(Finding {
                            file: handler.file.clone(),
                            line: arm.line,
                            rule: "fence-before-apply",
                            message: format!(
                                "{}::{} handler arm `{}::{}` drops copies ({}) before \
                                 its epoch fence ({}) — a release list is applied only \
                                 by a server that goes on to serve the request",
                                spec.handler_type,
                                spec.handler_method,
                                spec.request_enum,
                                arm.variant,
                                early.what,
                                fence.what,
                            ),
                        });
                    }
                }
                let fenced = by_prologue.contains(&arm.variant)
                    || direct_fence.is_some()
                    || sums
                        .calls_reach(handler, arm.range, cfg.max_call_depth, |f| {
                            !f.fence_checks.is_empty()
                        })
                        .is_some();

                if !fenced {
                    findings.push(Finding {
                        file: handler.file.clone(),
                        line: arm.line,
                        rule: "fence-before-apply",
                        message: format!(
                            "{}::{} handler arm `{}::{}` touches the segment store \
                             ({}) without passing the epoch fence ({}) — a demoted \
                             replica would apply the op after losing the segment \
                             (split-brain write loss)",
                            spec.handler_type,
                            spec.handler_method,
                            spec.request_enum,
                            arm.variant,
                            touch_what,
                            cfg.fence_fns.join("/"),
                        ),
                    });
                } else if let Some(fence) = direct_fence {
                    // Direct-order check: a store touch textually before
                    // the arm's own fence call.
                    if touch_tok < fence.tok {
                        findings.push(Finding {
                            file: handler.file.clone(),
                            line: arm.line,
                            rule: "fence-before-apply",
                            message: format!(
                                "{}::{} handler arm `{}::{}` touches the segment \
                                 store ({}) before its epoch fence ({}) — the \
                                 check must precede the apply",
                                spec.handler_type,
                                spec.handler_method,
                                spec.request_enum,
                                arm.variant,
                                touch_what,
                                fence.what,
                            ),
                        });
                    }
                }
            }
        }
    }
}

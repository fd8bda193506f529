//! `wal-before-ack` — acknowledged durable mutations must be logged.
//!
//! The PR-8 recovery contract: a data server may acknowledge a
//! mutation only after the corresponding record is in the append-only
//! stable log, because crash recovery replays *only* the log — an
//! acked-but-unlogged write is silently lost, violating the Clouds
//! recoverability invariant ("committed data survives node failure").
//!
//! For every [`crate::AckHandlerSpec`], the rule slices the handler's
//! body into the arms of its `match` over the wire request enum and
//! checks each arm: if the arm (directly or through the bounded,
//! name-matched call graph) both **mutates durable state** and
//! **constructs a non-error reply variant**, it must also reach a
//! `log.append(…)` site. The check is reachability, not ordering —
//! idempotent-duplicate early returns legitimately ack before the
//! logging path (e.g. a mirror write already applied), so an
//! ordering check would flood them with false positives; an arm with
//! *no* path to the log at all is the bug class this catches.
//!
//! A spec whose handler cannot be found, or has no arm to slice, is a
//! finding of its own (see [`super::handler_arms`]): the rule never
//! passes because it had nothing to look at.

use super::handler_arms;
use crate::summary::Summaries;
use crate::{Config, Finding};

pub fn check(files: &[crate::SourceFile], sums: &Summaries, cfg: &Config, findings: &mut Vec<Finding>) {
    for spec in &cfg.ack_handlers {
        let ack_prefix = format!("{}::", spec.reply_enum);
        let named = (spec.handler_type, spec.handler_method, spec.request_enum);
        for (handler, arms) in handler_arms(files, sums, "wal-before-ack", named, findings) {
            for arm in arms {
                let in_arm = |tok: usize| tok >= arm.range.0 && tok < arm.range.1;

                let mutates = handler
                    .durable_mutations
                    .iter()
                    .find(|s| in_arm(s.tok))
                    .map(|s| s.what.clone())
                    .or_else(|| {
                        sums.calls_reach(handler, arm.range, cfg.max_call_depth, |f| {
                            !f.durable_mutations.is_empty()
                        })
                        .map(|chain| format!("via {}", chain.join(" → ")))
                    });
                let Some(mutation) = mutates else { continue };

                let acks = handler
                    .acks
                    .iter()
                    .any(|s| in_arm(s.tok) && s.what.starts_with(&ack_prefix))
                    || sums
                        .calls_reach(handler, arm.range, cfg.max_call_depth, |f| {
                            f.acks.iter().any(|s| s.what.starts_with(&ack_prefix))
                        })
                        .is_some();
                if !acks {
                    continue;
                }

                let logs = handler.log_appends.iter().any(|s| in_arm(s.tok))
                    || sums
                        .calls_reach(handler, arm.range, cfg.max_call_depth, |f| {
                            !f.log_appends.is_empty()
                        })
                        .is_some();
                if logs {
                    continue;
                }

                findings.push(Finding {
                    file: handler.file.clone(),
                    line: arm.line,
                    rule: "wal-before-ack",
                    message: format!(
                        "{}::{} handler arm `{}::{}` mutates durable state ({}) and \
                         replies with a non-error `{}` but no path reaches \
                         `log.append` — an acked write that crash recovery cannot \
                         replay",
                        spec.handler_type,
                        spec.handler_method,
                        spec.request_enum,
                        arm.variant,
                        mutation,
                        spec.reply_enum,
                    ),
                });
            }
        }
    }
}

//! Property-based pins for the two claims the recovery path leans on:
//!
//! 1. **Compaction is invisible to replay** — `replay(compact(log))`
//!    reconstructs exactly the state `replay(log)` does, and so does
//!    the log after *every single* compaction step with appends
//!    interleaved, so a data server may crash between any two appends
//!    and recover what the uncompacted log would have given it.
//!    The store's read side — pages, replica configs, pending intents
//!    and standing outcomes — served from its incremental index, agrees
//!    with that replay after every step too, and after a crash and
//!    replay part-way through.
//! 2. **Replay is order-insensitive within a log segment** — the
//!    reconstructed state is a function of the *set* of records, not
//!    the order they landed in, because every reducer is a join
//!    (version max, epoch max, destroy-beats-create, set union). This
//!    is what lets a compaction step move a live record to the open
//!    segment, behind records appended after it.
//!
//! The generator keeps ambiguous payloads keyed: a page image is a
//! function of its version, an intent of its txn id, a replica set of
//! its epoch. The log store itself never emits two records with equal
//! keys and different bodies (versions and epochs are monotonic), so
//! the properties are stated over the inputs the store can produce.
//! The per-step property needs one thing more of its input, which a
//! data server also guarantees: a sysname is never re-created after
//! its destroy, a transaction never re-prepared after its resolution
//! and an outcome never re-recorded after its settlement
//! ([`never_reused`]). A tombstone is dropped once the
//! media holds nothing it cancels; a create arriving after that would
//! be a new segment to the compacted log and a dead one to its twin.

use clouds_ra::SysName;
use clouds_store::{
    Crashed, IntentPage, LogConfig, LogRecord, LogStore, ReplayState, ReplicaRecord,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn seg_name(i: u8) -> SysName {
    SysName::from_parts(70, i as u64)
}

/// Segment length as a function of the name, so duplicate creates of
/// one sysname (idempotent re-creates) agree on the body.
fn seg_len(i: u8) -> u64 {
    (i as u64 + 1) * 4096
}

/// The staged images of txn `t`, as the commit participant would build
/// them: one page per txn, image bytes derived from the id.
fn intent_pages(t: u64) -> Vec<IntentPage> {
    vec![IntentPage {
        seg: seg_name((t % 3) as u8),
        page: t as u32,
        data: vec![t as u8; 16],
    }]
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (0u8..3).prop_map(|i| LogRecord::SegmentCreate {
            seg: seg_name(i),
            len: seg_len(i),
        }),
        (0u8..3).prop_map(|i| LogRecord::SegmentDestroy { seg: seg_name(i) }),
        (0u8..3, 0u32..4, 1u64..16).prop_map(|(i, page, version)| LogRecord::PageWrite {
            seg: seg_name(i),
            page,
            // The image is a function of the version: the store never
            // reuses a version for a different image.
            version,
            data: vec![version as u8; 32],
        }),
        (0u64..6).prop_map(|txn| LogRecord::TxnIntent {
            txn,
            pages: intent_pages(txn),
        }),
        (0u64..6).prop_map(|txn| LogRecord::TxnResolved { txn }),
        (0u64..6).prop_map(|txn| LogRecord::TxnOutcome { txn }),
        (0u64..6).prop_map(|txn| LogRecord::OutcomeSettled { txn }),
        (0u8..3, 0u64..8).prop_map(|(i, epoch)| LogRecord::ReplicaConfig {
            seg: seg_name(i),
            // Members are a function of the epoch: a real view change
            // always bumps the epoch.
            config: ReplicaRecord {
                members: vec![epoch as u32, epoch as u32 + 1],
                epoch,
            },
        }),
    ]
}

fn log_strategy() -> impl Strategy<Value = Vec<LogRecord>> {
    prop::collection::vec(record_strategy(), 0..64)
}

/// Small segments so the generated logs actually span several of them
/// and compaction has dead bytes to drop.
fn small_segments() -> LogConfig {
    LogConfig {
        segment_bytes: 256,
        auto_compact: false,
    }
}

/// One segment big enough to hold any generated log, for the
/// within-a-segment ordering property.
fn one_segment() -> LogConfig {
    LogConfig {
        segment_bytes: 1 << 20,
        auto_compact: false,
    }
}

fn replay_of(cfg: LogConfig, records: &[LogRecord]) -> ReplayState {
    let store = LogStore::new(cfg);
    for rec in records {
        store.append(rec.clone());
    }
    store.crash(); // replay must not depend on the volatile index
    store.replay().state
}

/// The read side of `store` answers what `state` holds over the whole
/// generated key space: each segment's length (none if not live), each
/// page's version and image (none if never written), each segment's
/// replica config (none without a live create), and each txn's pending
/// intent with its images and whether its outcome stands — keyed and
/// table by table.
fn assert_reads(store: &LogStore, state: &ReplayState) {
    for i in 0..3 {
        let seg = seg_name(i);
        let live = state.segments.get(&seg);
        prop_assert_eq!(store.segment_len(seg), live.map(|rs| rs.len));
        for page in 0..4 {
            let image = live.and_then(|rs| rs.pages.get(&page)).cloned();
            prop_assert_eq!(store.read_page(seg, page), image);
        }
        prop_assert_eq!(store.replicas(seg), state.replicas.get(&seg).cloned());
    }
    for txn in 0..6 {
        let pending = state.pending_intents.get(&txn).cloned();
        prop_assert_eq!(store.intent(txn), Ok(pending));
        prop_assert_eq!(store.outcome(txn), Ok(state.outcomes.contains(&txn)));
    }
    prop_assert_eq!(&store.replicated(), &state.replicas);
    prop_assert_eq!(&store.intents(), &state.pending_intents);
    prop_assert_eq!(&store.outcomes(), &state.outcomes);
}

/// `records` minus every create that follows a destroy of its sysname,
/// every intent that follows a resolution of its transaction and every
/// outcome that follows its settlement.
fn never_reused(records: Vec<LogRecord>) -> Vec<LogRecord> {
    let (mut destroyed, mut resolved, mut settled) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    records
        .into_iter()
        .filter(|rec| match rec {
            LogRecord::SegmentDestroy { seg } => {
                destroyed.insert(*seg);
                true
            }
            LogRecord::TxnResolved { txn } => {
                resolved.insert(*txn);
                true
            }
            LogRecord::OutcomeSettled { txn } => {
                settled.insert(*txn);
                true
            }
            LogRecord::SegmentCreate { seg, .. } => !destroyed.contains(seg),
            LogRecord::TxnIntent { txn, .. } => !resolved.contains(txn),
            LogRecord::TxnOutcome { txn } => !settled.contains(txn),
            _ => true,
        })
        .collect()
}

/// With `auto_compact` on and segments this small, roughly every third
/// append seals a segment and runs one compaction step.
fn stepping() -> LogConfig {
    LogConfig {
        auto_compact: true,
        ..small_segments()
    }
}

/// Deterministic Fisher–Yates driven by a generated seed (the shim has
/// no shuffle strategy).
fn permute(records: &[LogRecord], seed: u64) -> Vec<LogRecord> {
    let mut out = records.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_equals_replay_of_compacted_log(records in log_strategy()) {
        let store = LogStore::new(small_segments());
        for rec in &records {
            store.append(rec.clone());
        }
        let before = store.replay();
        store.compact();
        store.crash();
        let after = store.replay();
        prop_assert_eq!(&before.state, &after.state);
        // Compaction keeps only the live image of the state: replaying
        // its output can never scan more than the original log.
        prop_assert!(after.bytes <= before.bytes);
    }

    #[test]
    fn replay_after_every_step_equals_replay_of_the_uncompacted_twin(
        records in log_strategy().prop_map(never_reused),
        crash_at in 0usize..64,
    ) {
        let twin = LogStore::new(small_segments());
        let stepped = LogStore::new(stepping());
        // Crashes and replays once, part-way, and carries on from the
        // index the replay rebuilt.
        let crashed = LogStore::new(stepping());
        let mut steps = 0;
        for (k, rec) in records.iter().enumerate() {
            if k == crash_at {
                crashed.crash();
                prop_assert_eq!(crashed.intent(0), Err(Crashed));
                prop_assert_eq!(crashed.outcome(0), Err(Crashed));
                let uncompacted = twin.replay().state;
                prop_assert_eq!(&crashed.replay().state, &uncompacted);
                assert_reads(&crashed, &uncompacted);
            }
            for store in [&twin, &stepped, &crashed] {
                store.append(rec.clone());
            }
            if stepped.stats().compactions > steps {
                // A step just ran on this append. Same appends, same
                // media: a crash right here recovers this.
                steps = stepped.stats().compactions;
                let recovered = replay_of(stepping(), &records[..=k]);
                let uncompacted = twin.replay().state;
                prop_assert_eq!(&recovered, &uncompacted);
                assert_reads(&stepped, &uncompacted);
            }
        }
        // The incremental index agrees with the one replay rebuilds.
        let before = stepped.stats();
        let after_steps = stepped.replay();
        prop_assert_eq!(stepped.stats(), before);
        let uncompacted = twin.replay();
        prop_assert_eq!(&after_steps.state, &uncompacted.state);
        prop_assert_eq!(&crashed.replay().state, &uncompacted.state);
        prop_assert!(after_steps.bytes <= uncompacted.bytes);
    }

    #[test]
    fn replay_is_order_insensitive_within_a_segment(
        records in log_strategy(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let in_order = replay_of(one_segment(), &records);
        let permuted = replay_of(one_segment(), &permute(&records, seed));
        prop_assert_eq!(in_order, permuted);
    }

    #[test]
    fn compaction_is_idempotent(records in log_strategy()) {
        let store = LogStore::new(small_segments());
        for rec in &records {
            store.append(rec.clone());
        }
        store.compact();
        let once = store.replay();
        store.compact();
        let twice = store.replay();
        prop_assert_eq!(once.state, twice.state);
        prop_assert_eq!(once.bytes, twice.bytes);
    }
}

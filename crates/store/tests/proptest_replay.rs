//! Property-based pins for the two claims the recovery path leans on,
//! each checked read by read against [`reference`], a fold of the
//! appended records that shares no code with the store's index:
//!
//! 1. **Compaction is invisible to the reads** — after `compact()`, and
//!    after *every single* compaction step with appends interleaved,
//!    every read answers what the records appended so far say, and so
//!    does a replay of the media right there: a data server may crash
//!    between any two appends and recover what the uncompacted log
//!    would have given it. The same holds after a crash and replay
//!    part-way through, carried on from the rebuilt index.
//! 2. **Replay is order-insensitive within a log segment** — the
//!    rebuilt index is a function of the *set* of records, not the
//!    order they landed in, because every reducer is a join (version
//!    max, epoch max, destroy-beats-create, set union). This is what
//!    lets a compaction step move a live record to the open segment,
//!    behind records appended after it.
//!
//! The generator keeps ambiguous payloads keyed: a page image is a
//! function of its version, an intent, its resolution and a verdict of
//! their txn id, a replica set of its epoch. Intents commit (at versions
//! no page record uses, above some page records and below others),
//! abort, or stay pending. The log store itself never emits two
//! records with equal keys and different bodies (versions and epochs
//! are monotonic, and a txn's first verdict is its only one), so
//! the properties are stated over the inputs the store can produce.
//! The per-step property needs one thing more of its input, which a
//! data server also guarantees: a sysname is never re-created after
//! its destroy, a transaction never re-prepared after its resolution
//! and an outcome never re-recorded after its settlement
//! ([`never_reused`]). A tombstone is dropped once the
//! media holds nothing it cancels; a create arriving after that would
//! be a new segment to the compacted log and a dead one to the fold.

use clouds_ra::SysName;
use clouds_store::{Crashed, InDoubt, IntentPage, LogConfig, LogRecord, LogStore, ReplicaRecord};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn seg_name(i: u8) -> SysName {
    SysName::from_parts(70, i as u64)
}

/// Segment length as a function of the name, so duplicate creates of
/// one sysname (idempotent re-creates) agree on the body.
fn seg_len(i: u8) -> u64 {
    (i as u64 + 1) * 4096
}

/// A page record's image at `version`.
fn image(version: u64) -> Vec<u8> {
    vec![version as u8; 32]
}

/// The version txn `t`'s commit installs its pages at: even, where page
/// records are odd, so no two records of a page tie with different images.
fn commit_version(t: u64) -> u64 {
    2 * t + 4
}

/// The staged images of txn `t`: two pages, in different segments, that
/// no other txn stages, each image the one its commit version names.
fn intent_pages(t: u64) -> Vec<IntentPage> {
    let data = image(commit_version(t));
    vec![
        IntentPage {
            seg: seg_name((t % 3) as u8),
            page: (t / 3) as u32,
            data: data.clone(),
        },
        IntentPage {
            seg: seg_name(((t + 1) % 3) as u8),
            page: 2 + (t / 3) as u32,
            data,
        },
    ]
}

/// Txn `t`'s resolution: txns 2 and 5 abort; the others commit, and txn
/// 4's second page is installed at another primary (version 0).
fn resolution(t: u64) -> LogRecord {
    let commit = t % 3 != 2;
    let second = if t == 4 { 0 } else { commit_version(t) };
    LogRecord::TxnResolved {
        txn: t,
        commit,
        versions: if commit {
            vec![commit_version(t), second]
        } else {
            Vec::new()
        },
    }
}

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (0u8..3).prop_map(|i| LogRecord::SegmentCreate {
            seg: seg_name(i),
            len: seg_len(i),
        }),
        (0u8..3).prop_map(|i| LogRecord::SegmentDestroy { seg: seg_name(i) }),
        (0u8..3, 0u32..4, 0u64..9).prop_map(|(i, page, odd)| LogRecord::PageWrite {
            seg: seg_name(i),
            page,
            // The image is a function of the version: the store never
            // reuses a version for a different image.
            version: 2 * odd + 1,
            data: image(2 * odd + 1),
        }),
        (0u64..6).prop_map(|txn| LogRecord::TxnIntent {
            txn,
            pages: intent_pages(txn),
        }),
        (0u64..6).prop_map(resolution),
        // Commit and abort verdicts both: the verdict is a function of
        // the txn, as the registry logs only the first one proposed.
        (0u64..6).prop_map(|txn| LogRecord::TxnOutcome {
            txn,
            commit: txn % 2 == 0,
        }),
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

/// What a data server must read back after appending `records`,
/// folded from the records alone — no store, no index. A page keeps
/// its highest version and a replica config its highest epoch, and
/// either counts only under a live create; destroy beats create
/// wherever it sits; an intent is pending while no `TxnResolved` of its
/// txn exists, its pages in doubt, and a committed one's images count as
/// page records at its resolution's versions wherever either sits; a
/// verdict stands while no `OutcomeSettled` does.
#[derive(Debug, Default)]
struct Expected {
    lens: BTreeMap<SysName, u64>,
    pages: BTreeMap<(SysName, u32), (u64, Vec<u8>)>,
    in_doubt: BTreeMap<(SysName, u32), u64>,
    replicas: BTreeMap<SysName, ReplicaRecord>,
    intents: BTreeMap<u64, Vec<IntentPage>>,
    outcomes: BTreeMap<u64, bool>,
}

fn reference(records: &[LogRecord]) -> Expected {
    let mut all = Expected::default();
    let (mut destroyed, mut resolved, mut settled) =
        (BTreeSet::new(), BTreeMap::new(), BTreeSet::new());
    let mut images = Vec::new();
    for rec in records {
        match rec {
            LogRecord::SegmentCreate { seg, len } => {
                all.lens.insert(*seg, *len);
            }
            LogRecord::SegmentDestroy { seg } => {
                destroyed.insert(*seg);
            }
            LogRecord::PageWrite {
                seg,
                page,
                version,
                data,
            } => images.push(((*seg, *page), *version, data.clone())),
            LogRecord::TxnIntent { txn, pages } => {
                all.intents.insert(*txn, pages.clone());
            }
            LogRecord::TxnResolved { txn, versions, .. } => {
                resolved.insert(*txn, versions.clone());
            }
            LogRecord::TxnOutcome { txn, commit } => {
                all.outcomes.insert(*txn, *commit);
            }
            LogRecord::OutcomeSettled { txn } => {
                settled.insert(*txn);
            }
            LogRecord::ReplicaConfig { seg, config } => {
                if all
                    .replicas
                    .get(seg)
                    .is_none_or(|c| config.epoch >= c.epoch)
                {
                    all.replicas.insert(*seg, config.clone());
                }
            }
        }
    }
    for (txn, pages) in &all.intents {
        let Some(versions) = resolved.get(txn) else {
            for p in pages {
                all.in_doubt.insert((p.seg, p.page), *txn);
            }
            continue;
        };
        for (p, version) in pages.iter().zip(versions).filter(|(_, v)| **v > 0) {
            images.push(((p.seg, p.page), *version, p.data.clone()));
        }
    }
    for (key, version, data) in images {
        if all.pages.get(&key).is_none_or(|(best, _)| version > *best) {
            all.pages.insert(key, (version, data));
        }
    }
    all.lens.retain(|seg, _| !destroyed.contains(seg));
    all.pages.retain(|(seg, _), _| all.lens.contains_key(seg));
    all.in_doubt
        .retain(|(seg, _), _| all.lens.contains_key(seg));
    all.replicas.retain(|seg, _| all.lens.contains_key(seg));
    all.intents.retain(|txn, _| !resolved.contains_key(txn));
    all.outcomes.retain(|txn, _| !settled.contains(txn));
    all
}

/// `records` appended to a fresh store, which then crashes and replays:
/// the reads must not depend on the incremental index.
fn replayed(cfg: LogConfig, records: &[LogRecord]) -> LogStore {
    let store = LogStore::new(cfg);
    for rec in records {
        store.append(rec.clone());
    }
    store.crash();
    store.replay();
    store
}

/// The read side of `store` answers what `expected` holds over the
/// whole generated key space: each segment's length (none if not live),
/// each page's version and image (none if never written, the txn holding
/// it if a pending intent stages it), each
/// segment's replica config (none without a live create), and each
/// txn's pending intent with its images and its standing verdict —
/// keyed and table by table.
fn assert_reads(store: &LogStore, expected: &Expected) {
    for i in 0..3 {
        let seg = seg_name(i);
        prop_assert_eq!(store.segment_len(seg), expected.lens.get(&seg).copied());
        for page in 0..4 {
            let image = match expected.in_doubt.get(&(seg, page)) {
                Some(txn) => Err(InDoubt(*txn)),
                None => Ok(expected.pages.get(&(seg, page)).cloned()),
            };
            prop_assert_eq!(store.read_page(seg, page), image);
        }
        let in_doubt = expected.in_doubt.range((seg, 0)..=(seg, u32::MAX));
        prop_assert_eq!(store.in_doubt(seg), in_doubt.map(|(_, txn)| *txn).collect());
        prop_assert_eq!(store.replicas(seg), expected.replicas.get(&seg).cloned());
    }
    for txn in 0..6 {
        let pending = expected.intents.get(&txn).cloned();
        prop_assert_eq!(store.intent(txn), Ok(pending));
        let verdict = expected.outcomes.get(&txn).copied();
        prop_assert_eq!(store.outcome(txn), Ok(verdict));
    }
    prop_assert_eq!(&store.replicated(), &expected.replicas);
    prop_assert_eq!(&store.intents(), &expected.intents);
    prop_assert_eq!(&store.outcomes(), &expected.outcomes);
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
            LogRecord::TxnResolved { txn, .. } => {
                resolved.insert(*txn);
                true
            }
            LogRecord::OutcomeSettled { txn } => {
                settled.insert(*txn);
                true
            }
            LogRecord::SegmentCreate { seg, .. } => !destroyed.contains(seg),
            LogRecord::TxnIntent { txn, .. } => !resolved.contains(txn),
            LogRecord::TxnOutcome { txn, .. } => !settled.contains(txn),
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
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.swap(i, (state >> 33) as usize % (i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replay_equals_replay_of_compacted_log(records in log_strategy()) {
        let expected = reference(&records);
        let store = LogStore::new(small_segments());
        for rec in &records {
            store.append(rec.clone());
        }
        let before = store.replay();
        assert_reads(&store, &expected);
        store.compact();
        assert_reads(&store, &expected);
        store.crash();
        let after = store.replay();
        assert_reads(&store, &expected);
        // Compaction keeps only the live image of the state: replaying
        // its output can never scan more than the original log.
        prop_assert!(after.bytes <= before.bytes);
    }

    #[test]
    fn reads_after_every_step_equal_the_reference_fold(
        records in log_strategy().prop_map(never_reused),
        crash_at in 0usize..64,
    ) {
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
                crashed.replay();
                assert_reads(&crashed, &reference(&records[..k]));
            }
            for store in [&stepped, &crashed] {
                store.append(rec.clone());
            }
            if stepped.stats().compactions > steps {
                // A step just ran on this append. Same appends, same
                // media: a crash right here recovers this.
                steps = stepped.stats().compactions;
                let expected = reference(&records[..=k]);
                assert_reads(&stepped, &expected);
                assert_reads(&replayed(stepping(), &records[..=k]), &expected);
            }
        }
        let expected = reference(&records);
        assert_reads(&stepped, &expected);
        assert_reads(&crashed, &expected);
        // The incremental index agrees with the one replay rebuilds.
        let before = stepped.stats();
        let after_steps = stepped.replay();
        prop_assert_eq!(stepped.stats(), before);
        assert_reads(&stepped, &expected);
        crashed.replay();
        assert_reads(&crashed, &expected);
        // The uncompacted log would scan every byte appended.
        prop_assert!(after_steps.bytes <= before.append_bytes);
    }

    #[test]
    fn replay_is_order_insensitive_within_a_segment(
        records in log_strategy(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let expected = reference(&records);
        assert_reads(&replayed(one_segment(), &records), &expected);
        assert_reads(&replayed(one_segment(), &permute(&records, seed)), &expected);
    }

    #[test]
    fn compaction_is_idempotent(records in log_strategy()) {
        let expected = reference(&records);
        let store = LogStore::new(small_segments());
        for rec in &records {
            store.append(rec.clone());
        }
        store.compact();
        let once = store.replay();
        assert_reads(&store, &expected);
        store.compact();
        let twice = store.replay();
        assert_reads(&store, &expected);
        prop_assert_eq!(once.bytes, twice.bytes);
    }
}

//! Wire protocol between DSM clients and data servers.

use clouds_codec::PageBytes;
use clouds_ra::RaError;
use clouds_ra::SysName;
use serde::{Deserialize, Serialize};

/// Well-known RaTP service ports used across the Clouds reproduction.
pub mod ports {
    /// DSM coherence service on data servers.
    pub const DSM_SERVER: u16 = 10;
    /// Recall/downgrade service on every DSM client (compute server).
    pub const DSM_CLIENT: u16 = 11;
    /// Segment-level lock manager on data servers.
    pub const LOCKS: u16 = 12;
    /// Distributed semaphore service on data servers.
    pub const SEMAPHORES: u16 = 13;
    /// Name server (see `clouds-naming`).
    pub const NAMING: u16 = 14;
    /// Object invocation service on compute servers (see `clouds`).
    pub const INVOCATION: u16 = 15;
    /// User I/O manager on workstations (see `clouds`).
    pub const USER_IO: u16 = 16;
    /// Two-phase-commit participant on every data server (its
    /// coordinator is in `clouds-consistency`).
    pub const COMMIT: u16 = 17;
}

/// Page access mode on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireMode {
    /// Shared, read-only copy.
    Read,
    /// Exclusive, writable ownership.
    Write,
}

/// Requests accepted by the data server's DSM service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DsmRequest {
    /// Create a segment of `len` zero bytes on this data server.
    CreateSegment {
        /// New segment's sysname.
        seg: SysName,
        /// Size in bytes.
        len: u64,
    },
    /// Destroy a segment.
    DestroySegment {
        /// Victim sysname.
        seg: SysName,
    },
    /// Query a segment's length (also used for home discovery).
    SegmentLen {
        /// Segment sysname.
        seg: SysName,
    },
    /// Demand-page one page in `mode`.
    FetchPage {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
        /// Requested coherence mode.
        mode: WireMode,
    },
    /// Demand-page `first` in `mode` plus up to `count - 1` contiguous
    /// read-ahead pages. The server performs the full coherence
    /// transition for `first` only; the extra pages are granted
    /// speculatively and exactly as far as coherence allows without
    /// recalling any copy (the grant stops at the first page that would
    /// need one).
    FetchPages {
        /// Segment sysname.
        seg: SysName,
        /// First (faulting) page index.
        first: u32,
        /// Total pages wanted, including `first` (>= 1).
        count: u32,
        /// Requested coherence mode for `first`; read-ahead pages are
        /// always granted in read mode.
        mode: WireMode,
        /// Clean copies the requester has evicted to make room for this
        /// grant, any segment homed on this server. The server drops the
        /// requester from their copysets after the serving fence and
        /// before granting anything, exactly as one
        /// [`DsmRequest::ReleasePage`] each would — so a page named here
        /// may be granted again by this very request.
        release: Vec<(SysName, u32)>,
    },
    /// Write a dirty page back; optionally drop ownership too.
    WriteBack {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
        /// Full page contents.
        data: PageBytes,
        /// Whether the client also relinquishes its copy.
        release: bool,
    },
    /// Drop a (clean) copy without data.
    ReleasePage {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
    },
    /// Write a batch of dirty pages back in one round trip. Frames stay
    /// owned by the client in their current mode (write-through, not
    /// release) — the commit-flush fast path.
    WriteBackBatch {
        /// The dirty pages, each with full contents.
        pages: Vec<WireWriteBack>,
    },
    /// Acknowledge that a granted page is installed at the client, so
    /// the manager may process the next transition for the page.
    InstallAck {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
        /// Grant sequence number being acknowledged.
        grant_seq: u64,
    },
    /// Acknowledge every page of a [`DsmRequest::FetchPages`] grant in
    /// one message. Pages the client declined to install (the slot was
    /// taken by a racing fault or recall — never for lack of room, the
    /// client asks for no more than it has frames for) carry
    /// `installed: false` so the manager both unblocks the grant and
    /// forgets the copy — no separate `ReleasePage` needed.
    InstallAckBatch {
        /// Segment sysname.
        seg: SysName,
        /// One entry per granted page.
        acks: Vec<WireInstallAck>,
    },
    /// Create a segment replicated across `members` (raw
    /// `clouds_simnet::NodeId` values, `members[0]` = this server, the
    /// primary). The primary
    /// creates locally, then pushes a [`DsmRequest::MirrorCreate`] to
    /// every backup before replying.
    CreateReplicated {
        /// New segment's sysname.
        seg: SysName,
        /// Size in bytes.
        len: u64,
        /// Full replica membership in promotion order; `members[0]` must
        /// be the receiving server.
        members: Vec<u32>,
    },
    /// Primary → backup: materialize a replicated segment's backing
    /// store and record its membership at `epoch`.
    MirrorCreate {
        /// New segment's sysname.
        seg: SysName,
        /// Size in bytes.
        len: u64,
        /// Full replica membership in promotion order.
        members: Vec<u32>,
        /// Replica-configuration epoch.
        epoch: u64,
    },
    /// Primary → backup: apply one durable page image. Carries the
    /// primary's membership view and epoch so a receiver with a stale
    /// view (a restarted ex-primary) adopts the newer configuration, and
    /// a *stale sender* (an ex-primary that missed its own demotion) is
    /// fenced off by the receiver's higher epoch.
    MirrorWrite {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
        /// Full page contents.
        data: PageBytes,
        /// The primary's canonical version for this page image. Backups
        /// apply no version below their own, so racing or duplicated
        /// mirror pushes converge on the newest image.
        version: u64,
        /// Sender's replica membership view, promotion order.
        members: Vec<u32>,
        /// Sender's replica-configuration epoch.
        epoch: u64,
    },
    /// Primary → backup: destroy a replicated segment's local copy.
    MirrorDestroy {
        /// Victim sysname.
        seg: SysName,
        /// Sender's replica-configuration epoch.
        epoch: u64,
    },
    /// Promote the receiving backup to primary for `seg` at `epoch`.
    /// Idempotent: applied only when `epoch` exceeds the receiver's
    /// current epoch for the segment, mirroring the directory's fencing
    /// rule, so duplicate promotions converge.
    PromoteSegment {
        /// The replicated segment.
        seg: SysName,
        /// Proposed epoch; must be greater than the current one to win.
        epoch: u64,
    },
}

/// One dirty page inside a [`DsmRequest::WriteBackBatch`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireWriteBack {
    /// Segment sysname.
    pub seg: SysName,
    /// Page index.
    pub page: u32,
    /// Full page contents.
    pub data: PageBytes,
}

/// One acknowledgement inside a [`DsmRequest::InstallAckBatch`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WireInstallAck {
    /// Page index.
    pub page: u32,
    /// Grant sequence number being acknowledged.
    pub grant_seq: u64,
    /// Whether the client actually kept the copy. `false` makes the
    /// server drop the client from the page's copyset.
    pub installed: bool,
}

/// Replies from the data server's DSM service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DsmReply {
    /// Operation succeeded with no payload.
    Ok,
    /// Segment length.
    Len(u64),
    /// A page grant.
    Page {
        /// Full page contents.
        data: PageBytes,
        /// Canonical version counter.
        version: u64,
        /// Whether the page had never been written.
        zero_filled: bool,
        /// Grant sequence number to acknowledge after installing.
        grant_seq: u64,
    },
    /// A multi-page grant answering [`DsmRequest::FetchPages`]: the
    /// faulting page plus zero or more contiguous read-ahead pages, each
    /// with its own version and grant sequence number. Every granted
    /// page MUST be acknowledged via [`DsmRequest::InstallAckBatch`].
    Pages {
        /// First page index of the run (== the request's `first`).
        first: u32,
        /// The granted pages, contiguous from `first`.
        pages: Vec<WirePageGrant>,
    },
    /// One result per page of a [`DsmRequest::WriteBackBatch`], aligned
    /// with the request order. `Ok(version)` per page on success.
    WriteBackResults {
        /// Per-page outcome (new canonical version or error).
        results: Vec<Result<u64, WireError>>,
    },
    /// Operation failed.
    Err(WireError),
}

/// One granted page inside a [`DsmReply::Pages`] batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WirePageGrant {
    /// Full page contents.
    pub data: PageBytes,
    /// Canonical version counter.
    pub version: u64,
    /// Whether the page had never been written.
    pub zero_filled: bool,
    /// Grant sequence number to acknowledge after installing.
    pub grant_seq: u64,
}

/// Requests sent *by the data server* to a client's recall service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RecallRequest {
    /// Invalidate the client's copy entirely.
    Reclaim {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
    },
    /// Demote the client's exclusive copy to shared.
    Downgrade {
        /// Segment sysname.
        seg: SysName,
        /// Page index.
        page: u32,
    },
}

/// Replies from a client's recall service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RecallReply {
    /// The client no longer holds the page.
    NotPresent,
    /// The copy was clean; it has been dropped/demoted.
    Clean,
    /// The copy was dirty; here is the latest data.
    Dirty(PageBytes),
}

/// Requests to a data server's 2PC participant ([`ports::COMMIT`]),
/// whose page images are [`WireWriteBack`]s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CommitRequest {
    /// Phase one: stage pages for `txn`.
    Prepare {
        /// Global transaction id.
        txn: u64,
        /// Pages to install on commit.
        pages: Vec<WireWriteBack>,
    },
    /// Phase two: install staged pages. Its sender holds no copy of the
    /// txn's pages: the coordinator drops its node's cached copies once
    /// the verdict is commit, before it sends this, and a staged page is
    /// granted to nobody. So the install recalls no copy from the
    /// sender, and forgets it as a holder.
    Commit {
        /// Global transaction id.
        txn: u64,
    },
    /// Phase two (failure): discard staged pages.
    Abort {
        /// Global transaction id.
        txn: u64,
    },
    /// Lightweight path (lcp): stage and install in one atomic local
    /// step — no cross-server atomicity.
    ApplyLocal {
        /// Global transaction id.
        txn: u64,
        /// Pages to install now.
        pages: Vec<WireWriteBack>,
    },
    /// Propose a verdict to the outcome registry (first data server),
    /// which answers with the one it logged first: the coordinator
    /// proposes commit, a participant its txn kept waiting abort. Also
    /// forget the verdicts no participant needs any more.
    Decide {
        /// Global transaction id.
        txn: u64,
        /// The proposal: commit (`true`) or abort.
        commit: bool,
        /// Transactions settled since the coordinator's last `Decide`:
        /// every participant installed or dropped their pages.
        settled: Vec<u64>,
    },
}

/// Replies from a data server's 2PC participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitReply {
    /// Prepare accepted / operation done.
    Ok,
    /// Prepare or apply refused (storage failure), or no verdict to give.
    Refused,
    /// `Decide`: the registry's verdict is commit.
    Committed,
    /// `Decide`: the registry's verdict is abort.
    Aborted,
}

/// Serializable projection of [`RaError`] for the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireError {
    /// See [`RaError::SegmentNotFound`].
    SegmentNotFound(SysName),
    /// See [`RaError::SegmentExists`].
    SegmentExists(SysName),
    /// See [`RaError::OutOfRange`].
    OutOfRange(SysName),
    /// Any other failure, described as text.
    Other(String),
    /// See [`RaError::ReplicaUnavailable`]. Carried distinctly so a
    /// client can tell "home unreachable" (re-resolve the home) from
    /// "home reachable but a backup is down" (re-resolution cannot
    /// help; surface promptly).
    ReplicaUnavailable(String),
}

impl From<RaError> for WireError {
    fn from(e: RaError) -> WireError {
        match e {
            RaError::SegmentNotFound(s) => WireError::SegmentNotFound(s),
            RaError::SegmentExists(s) => WireError::SegmentExists(s),
            RaError::OutOfRange { segment, .. } => WireError::OutOfRange(segment),
            RaError::ReplicaUnavailable(m) => WireError::ReplicaUnavailable(m),
            other => WireError::Other(other.to_string()),
        }
    }
}

impl From<WireError> for RaError {
    fn from(e: WireError) -> RaError {
        match e {
            WireError::SegmentNotFound(s) => RaError::SegmentNotFound(s),
            WireError::SegmentExists(s) => RaError::SegmentExists(s),
            WireError::OutOfRange(segment) => RaError::OutOfRange {
                segment,
                offset: 0,
                len: 0,
                segment_len: 0,
            },
            WireError::Other(m) => RaError::PartitionUnavailable(m),
            WireError::ReplicaUnavailable(m) => RaError::ReplicaUnavailable(m),
        }
    }
}

/// Encode any serializable message for transmission.
///
/// # Panics
///
/// Panics only if the value cannot be encoded, which is impossible for
/// the closed set of protocol types in this module.
pub fn encode<T: Serialize>(value: &T) -> bytes::Bytes {
    bytes::Bytes::from(clouds_codec::to_bytes(value).expect("protocol types always encode"))
}

/// Decode a protocol message, mapping malformed input to an error reply.
///
/// # Errors
///
/// Returns `RaError::PartitionUnavailable` describing the decode failure.
pub fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, RaError> {
    clouds_codec::from_bytes(bytes)
        .map_err(|e| RaError::PartitionUnavailable(format!("malformed protocol message: {e}")))
}

/// Decode a protocol message whose [`PageBytes`] payloads should share
/// the (refcounted) message buffer instead of being copied out — the
/// zero-copy path for reassembled RaTP requests and replies.
///
/// # Errors
///
/// As for [`decode`].
pub fn decode_shared<T: serde::Deserialize>(bytes: &bytes::Bytes) -> Result<T, RaError> {
    clouds_codec::from_bytes_shared(bytes)
        .map_err(|e| RaError::PartitionUnavailable(format!("malformed protocol message: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A page of `len` bytes per entry of `lens`, written back and granted.
    fn page_batches(lens: &[usize]) -> (DsmRequest, DsmReply) {
        let page = |i: usize, len: usize| PageBytes::from(vec![i as u8; len]);
        let write_back = DsmRequest::WriteBackBatch {
            pages: lens
                .iter()
                .enumerate()
                .map(|(i, &len)| WireWriteBack {
                    seg: SysName::from_parts(5, 6),
                    page: i as u32,
                    data: page(i, len),
                })
                .collect(),
        };
        let grant = DsmReply::Pages {
            first: 3,
            pages: lens
                .iter()
                .enumerate()
                .map(|(i, &len)| WirePageGrant {
                    data: page(i, len),
                    version: i as u64,
                    zero_filled: i % 2 == 0,
                    grant_seq: 7 + i as u64,
                })
                .collect(),
        };
        (write_back, grant)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The two messages that carry pages know their encoded length
        /// exactly, for any batch of 0 to 40 pages.
        #[test]
        fn page_batches_encode_at_their_encoded_len(
            lens in prop::collection::vec(0usize..=8192, 0..41),
        ) {
            let (write_back, grant) = page_batches(&lens);
            prop_assert_eq!(
                clouds_codec::to_bytes(&write_back).unwrap().len(),
                write_back.encoded_len()
            );
            prop_assert_eq!(clouds_codec::to_bytes(&grant).unwrap().len(), grant.encoded_len());
        }
    }

    #[test]
    fn a_32_page_batch_is_encoded_into_one_buffer_of_its_size() {
        let (write_back, grant) = page_batches(&[8192; 32]);
        for wire in [
            clouds_codec::to_bytes(&write_back).unwrap(),
            clouds_codec::to_bytes(&grant).unwrap(),
        ] {
            assert!(wire.len() > 32 * 8192);
            assert_eq!(wire.capacity(), wire.len());
        }
    }

    #[test]
    fn request_roundtrip() {
        // A write fault as the client sends it: one page, no victims.
        let req = DsmRequest::FetchPages {
            seg: SysName::from_parts(1, 2),
            first: 7,
            count: 1,
            mode: WireMode::Write,
            release: Vec::new(),
        };
        let bytes = encode(&req);
        let back: DsmRequest = decode(&bytes).unwrap();
        match back {
            DsmRequest::FetchPages {
                seg,
                first,
                count,
                mode,
                release,
            } => {
                assert_eq!(seg, SysName::from_parts(1, 2));
                assert_eq!((first, count), (7, 1));
                assert_eq!(mode, WireMode::Write);
                assert!(release.is_empty());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn replica_unavailable_survives_the_wire() {
        // A mirror failure must reach the client as ReplicaUnavailable,
        // not be flattened into PartitionUnavailable — the client's
        // failover loop re-resolves the latter up to 10 times, each
        // paying the full mirror patience against an outage that
        // re-resolution cannot fix.
        let e = RaError::ReplicaUnavailable("backup 11 down".into());
        let wire: WireError = e.clone().into();
        let back: RaError = decode::<WireError>(&encode(&wire)).unwrap().into();
        assert_eq!(back, e);
    }

    #[test]
    fn reply_with_page_roundtrip() {
        let reply = DsmReply::Page {
            data: PageBytes::from(vec![1, 2, 3]),
            version: 9,
            zero_filled: false,
            grant_seq: 4,
        };
        let back: DsmReply = decode(&encode(&reply)).unwrap();
        assert!(matches!(back, DsmReply::Page { version: 9, .. }));
    }

    #[test]
    fn batch_fetch_roundtrip() {
        let req = DsmRequest::FetchPages {
            seg: SysName::from_parts(1, 2),
            first: 10,
            count: 8,
            mode: WireMode::Read,
            release: vec![
                (SysName::from_parts(1, 2), 3),
                (SysName::from_parts(4, 5), 6),
            ],
        };
        match decode::<DsmRequest>(&encode(&req)).unwrap() {
            DsmRequest::FetchPages {
                first: 10,
                count: 8,
                release,
                ..
            } => assert_eq!(
                release,
                vec![
                    (SysName::from_parts(1, 2), 3),
                    (SysName::from_parts(4, 5), 6)
                ]
            ),
            other => panic!("wrong decode: {other:?}"),
        }

        let reply = DsmReply::Pages {
            first: 10,
            pages: vec![
                WirePageGrant {
                    data: PageBytes::from(vec![1; 4]),
                    version: 3,
                    zero_filled: false,
                    grant_seq: 7,
                },
                WirePageGrant {
                    data: PageBytes::from(vec![2; 4]),
                    version: 0,
                    zero_filled: true,
                    grant_seq: 8,
                },
            ],
        };
        match decode::<DsmReply>(&encode(&reply)).unwrap() {
            DsmReply::Pages { first, pages } => {
                assert_eq!(first, 10);
                assert_eq!(pages.len(), 2);
                assert_eq!(pages[1].grant_seq, 8);
                assert!(pages[1].zero_filled);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn batch_write_back_roundtrip() {
        let req = DsmRequest::WriteBackBatch {
            pages: vec![WireWriteBack {
                seg: SysName::from_parts(5, 6),
                page: 3,
                data: PageBytes::from(vec![9; 16]),
            }],
        };
        let back: DsmRequest = decode(&encode(&req)).unwrap();
        match back {
            DsmRequest::WriteBackBatch { pages } => {
                assert_eq!(pages.len(), 1);
                assert_eq!(pages[0].page, 3);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let reply = DsmReply::WriteBackResults {
            results: vec![
                Ok(12),
                Err(WireError::SegmentNotFound(SysName::from_parts(5, 6))),
            ],
        };
        match decode::<DsmReply>(&encode(&reply)).unwrap() {
            DsmReply::WriteBackResults { results } => {
                assert_eq!(results[0], Ok(12));
                assert!(results[1].is_err());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn batch_install_ack_roundtrip() {
        let req = DsmRequest::InstallAckBatch {
            seg: SysName::from_parts(1, 1),
            acks: vec![
                WireInstallAck {
                    page: 0,
                    grant_seq: 1,
                    installed: true,
                },
                WireInstallAck {
                    page: 1,
                    grant_seq: 2,
                    installed: false,
                },
            ],
        };
        match decode::<DsmRequest>(&encode(&req)).unwrap() {
            DsmRequest::InstallAckBatch { acks, .. } => {
                assert!(acks[0].installed);
                assert!(!acks[1].installed);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn replication_requests_roundtrip() {
        let seg = SysName::from_parts(8, 8);
        let req = DsmRequest::MirrorWrite {
            seg,
            page: 2,
            data: PageBytes::from(vec![7; 32]),
            version: 9,
            members: vec![100, 101, 102],
            epoch: 3,
        };
        match decode::<DsmRequest>(&encode(&req)).unwrap() {
            DsmRequest::MirrorWrite {
                page,
                members,
                epoch,
                ..
            } => {
                assert_eq!(page, 2);
                assert_eq!(members, vec![100, 101, 102]);
                assert_eq!(epoch, 3);
            }
            other => panic!("wrong decode: {other:?}"),
        }
        let req = DsmRequest::PromoteSegment { seg, epoch: 4 };
        assert!(matches!(
            decode::<DsmRequest>(&encode(&req)).unwrap(),
            DsmRequest::PromoteSegment { epoch: 4, .. }
        ));
        let req = DsmRequest::CreateReplicated {
            seg,
            len: 4096,
            members: vec![100, 101],
        };
        assert!(matches!(
            decode::<DsmRequest>(&encode(&req)).unwrap(),
            DsmRequest::CreateReplicated { len: 4096, .. }
        ));
    }

    #[test]
    fn error_mapping_roundtrip() {
        let e = RaError::SegmentNotFound(SysName::from_parts(3, 4));
        let w: WireError = e.clone().into();
        let back: RaError = w.into();
        assert_eq!(back, e);
    }

    #[test]
    fn page_grant_decodes_zero_copy_from_shared_buffer() {
        let reply = DsmReply::Page {
            data: PageBytes::from(vec![5u8; 8192]),
            version: 1,
            zero_filled: false,
            grant_seq: 2,
        };
        let wire = encode(&reply);
        let base = wire.as_ref().as_ptr() as usize;
        match decode_shared::<DsmReply>(&wire).unwrap() {
            DsmReply::Page { data, .. } => {
                let ptr = data.as_slice().as_ptr() as usize;
                assert!(
                    ptr >= base && ptr + data.len() <= base + wire.len(),
                    "page payload must alias the reply buffer"
                );
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn decode_garbage_is_error_not_panic() {
        let r: Result<DsmRequest, _> = decode(&[0xFF, 0xFE, 0xFD]);
        assert!(r.is_err());
    }
}

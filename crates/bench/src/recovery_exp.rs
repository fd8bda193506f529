//! E12 — crash-recovery time from the append-only log (this repo's
//! single-level-store mechanics, not a paper table).
//!
//! The paper's data servers are "repositories for long-lived data"
//! (§3): a crashed one must come back serving exactly the committed
//! state. In this reproduction durability lives in the segment-
//! structured log (`clouds-store`), so recovery time is the sequential
//! replay of that log — one seek per log segment plus a streaming scan
//! (see [`clouds_store::replay_cost`]). This experiment grows the log by
//! writing more pages through the normal write-back path, then
//! reboot-crashes the server (its whole DRAM is wiped) and reports how
//! long the replay keeps the server unavailable.

use crate::paging_exp::seed;
use clouds_dsm::DsmServer;
use clouds_ra::SysName;
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId, Vt};

/// One row of the E12 table: a log of `pages_written` page records and
/// the cost of replaying it after a full crash.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRow {
    /// Dirty pages written through the server before the crash (the
    /// workload knob; each write-back appends one page record).
    pub pages_written: u64,
    /// Log bytes scanned by the replay.
    pub log_bytes: u64,
    /// Fixed-size log segments the replay seeked across.
    pub log_segments: u64,
    /// Records replayed.
    pub records: u64,
    /// Virtual time the replay charged the server — the availability
    /// gap a restart adds before the server can serve again, as
    /// recorded in the `store.replay` histogram.
    pub replay_vt: Vt,
}

/// Run one crash/replay measurement with a log of `pages_written` page
/// records (fresh network per row so the clocks start at zero).
fn row(pages_written: u64) -> RecoveryRow {
    let net = Network::new(CostModel::sun3_ethernet());
    let home = NodeId(100);
    let ds = RatpNode::spawn(
        net.register(home).expect("server node"),
        RatpConfig::default(),
    );
    let server = DsmServer::install(&ds);
    let seg = SysName::from_parts(12, 1);

    // Seed through the wire so every page takes the normal durable
    // write-back path (page record appended before the ack).
    let raw = RatpNode::spawn(
        net.register(NodeId(99)).expect("seed node"),
        RatpConfig::default(),
    );
    seed(&raw, home, seg, pages_written);

    // Reboot-crash: every volatile structure dies, only the log is left.
    server.crash();
    let out = server.recover_from_log();
    server.finish_recovery();

    // Committed-durable sanity: every written page must be back.
    for page in 0..pages_written {
        let (_, image) = server
            .log()
            .read_page(seg, page as u32)
            .expect("page replayed");
        assert_eq!(image[0], page as u8, "page {page} lost across the crash");
    }

    let replay = ds.obs().registry().histogram_summary("store.replay");
    assert_eq!(replay.count, 1, "exactly one replay must be recorded");
    RecoveryRow {
        pages_written,
        log_bytes: out.bytes,
        log_segments: out.log_segments,
        records: out.records,
        replay_vt: replay.max,
    }
}

/// Run the E12 sweep: log sizes from a handful of pages to a few MiB.
pub fn run() -> Vec<RecoveryRow> {
    [16, 64, 256].into_iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_ra::PAGE_SIZE;

    #[test]
    fn e12_replay_time_grows_with_the_log() {
        let rows = run();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Every page record is in the log (plus the create record).
            assert!(r.records > r.pages_written, "{r:?}");
            assert!(r.log_bytes > r.pages_written * PAGE_SIZE as u64, "{r:?}");
            assert!(r.log_segments >= 1, "{r:?}");
            assert!(r.replay_vt > Vt::ZERO, "{r:?}");
        }
        // Bigger logs take longer to replay: the availability gap is the
        // price of the log-structured store, and it must scale with log
        // size, not with anything hidden.
        assert!(rows[0].replay_vt < rows[1].replay_vt, "{rows:?}");
        assert!(rows[1].replay_vt < rows[2].replay_vt, "{rows:?}");
    }
}

//! Seeded input generation: SplitMix64, a zipf sampler, and the op
//! stream of each workload.
//!
//! The generators are copied here (not imported from `clouds-bench`) so
//! that no later PR can change the load by editing a product-side crate.
//! Everything the program under test sees — key names, op order, values,
//! page stamps, account pairs — is a pure function of `--seed`.

use crate::yardstick::Mix;

/// Keys in the kv working set (≈200 resident pages, far below the
/// 512-frame cache).
pub const KV_KEYS: usize = 64;
/// Pages in the paging object's data segment: 4 MiB, 4× the 128-frame
/// cache the page workloads run with.
pub const SCAN_PAGES: u32 = 512;
/// Pages touched by one `scan`/`fill` op.
pub const PAGES_PER_OP: u32 = 32;
/// Accounts in the ledger; even indices live on data server 0, odd on 1.
pub const ACCOUNTS: usize = 16;
/// Opening balance of every account: large enough that no transfer of a
/// run can overdraw, so no op fails by construction.
pub const OPENING_BALANCE: u64 = 1 << 40;
/// Zipf exponent for key and account popularity.
pub const ZIPF_S: f64 = 0.99;

/// SplitMix64: tiny, seedable, no OS entropy.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` (multiply-shift).
    pub fn next_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The SplitMix64 output function; also the page-content hash.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian sampler over `0..n` (rank 0 hottest): inverse CDF with
/// binary search, so exact and rejection-free.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The five workloads (names are normative, see `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvGet,
    KvPut,
    PageScan,
    PageFlush,
    Ledger2pc,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::KvGet,
        Workload::KvPut,
        Workload::PageScan,
        Workload::PageFlush,
        Workload::Ledger2pc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvGet => "kv_get",
            Workload::KvPut => "kv_put",
            Workload::PageScan => "page_scan",
            Workload::PageFlush => "page_flush",
            Workload::Ledger2pc => "ledger_2pc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Committed op count of a full-size fixed-count run (`run`/`agree`
    /// subcommands): sized to 10–15 s on the 2-core reference box.
    pub fn full_ops(self) -> u64 {
        match self {
            Workload::KvGet => 100_000,
            Workload::KvPut => 40_000,
            Workload::PageScan => 1_200,
            Workload::PageFlush => 1_500,
            Workload::Ledger2pc => 10_000,
        }
    }

    /// The tail percentile `wall_tail_us` reports, in per mille,
    /// committed per workload from its measured latency ladder (README,
    /// "Tail rungs") so that a slightly faster or slower run cannot flip
    /// it. A rung must not sit on a cliff of the distribution:
    ///
    /// * `kv_get` p95 — beyond p98 its tail is host hiccups (p99 moved
    ///   40 % between eight runs, p95 10 %).
    /// * `kv_put` p99.9 — 0.6–0.7 % of puts wait 4–5 ms for a
    ///   compaction, so p99 sits on the cliff edge (600 µs or 1.9 ms
    ///   from run to run) while p99.9 sits inside the stall (±4 %).
    /// * `page_scan` p90 — only 700–1 000 ops per run, smooth tail.
    /// * `page_flush` p95 — 6–8 % of fills wait ≈ 20 ms for a
    ///   compaction: p90–p92 sit on that cliff (7.4–11.9 ms), p95
    ///   inside the stall (20.6–22.5 ms).
    /// * `ledger_2pc` p99 — inside its 4 % slow mode, ≈ 70 beyond.
    pub fn tail_rung_permille(self) -> usize {
        match self {
            Workload::KvGet | Workload::PageFlush => 950,
            Workload::KvPut => 999,
            Workload::PageScan => 900,
            Workload::Ledger2pc => 990,
        }
    }

    /// The yardstick kinds this workload's wall times are scaled by
    /// (see `yardstick.rs`): `kv_get` is nothing but small-message round
    /// trips; a paging op moves 32 pages through short-lived threads; a
    /// `kv_put` or a transfer does some of each.
    pub fn yardstick_mix(self) -> Mix {
        match self {
            Workload::KvGet => Mix {
                echo: true,
                memory: false,
            },
            Workload::KvPut | Workload::Ledger2pc => Mix {
                echo: true,
                memory: true,
            },
            Workload::PageScan | Workload::PageFlush => Mix {
                echo: false,
                memory: true,
            },
        }
    }

    /// Bytes of application data one op asks the system to make durable
    /// (the denominator of `store.bytes_per_user_byte`).
    pub fn user_bytes_per_op(self) -> u64 {
        match self {
            Workload::KvGet | Workload::PageScan => 0,
            Workload::KvPut => 8,
            Workload::PageFlush => u64::from(PAGES_PER_OP) * 8192,
            Workload::Ledger2pc => 16,
        }
    }
}

/// One generated request. Indices refer to the seeded name tables
/// ([`key_names`], the account list), never to anything inside the
/// program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get { key: usize },
    Put { key: usize, value: u64 },
    Scan { first: u32 },
    Fill { first: u32, stamp: u64 },
    Transfer { from: usize, to: usize, amount: u64 },
}

impl Op {
    pub fn entry(&self) -> &'static str {
        match self {
            Op::Get { .. } => "get",
            Op::Put { .. } => "put",
            Op::Scan { .. } => "scan",
            Op::Fill { .. } => "fill",
            Op::Transfer { .. } => "transfer",
        }
    }
}

/// Infinite, deterministic op stream of one workload.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    rng: SplitMix64,
    zipf: Zipf,
    /// Page the next scan/fill starts at; the seed picks the phase.
    cursor: u32,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> OpStream {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0F0B_5EED_0F0B);
        let n = match workload {
            Workload::Ledger2pc => ACCOUNTS,
            _ => KV_KEYS,
        };
        let cursor = PAGES_PER_OP * rng.next_range(u64::from(SCAN_PAGES / PAGES_PER_OP)) as u32;
        OpStream {
            workload,
            rng,
            zipf: Zipf::new(n, ZIPF_S),
            cursor,
        }
    }

    fn next_window(&mut self) -> u32 {
        let first = self.cursor;
        self.cursor = (self.cursor + PAGES_PER_OP) % SCAN_PAGES;
        first
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.workload {
            Workload::KvGet => Op::Get {
                key: self.zipf.sample(&mut self.rng),
            },
            Workload::KvPut => Op::Put {
                key: self.zipf.sample(&mut self.rng),
                value: self.rng.next_u64(),
            },
            Workload::PageScan => Op::Scan {
                first: self.next_window(),
            },
            Workload::PageFlush => Op::Fill {
                first: self.next_window(),
                stamp: self.rng.next_u64(),
            },
            Workload::Ledger2pc => {
                // The debited account is zipf-popular; the credited one
                // is uniform over the accounts of the *other* data
                // server, so every transfer is a two-participant 2PC.
                let from = self.zipf.sample(&mut self.rng);
                let slot = self.rng.next_range((ACCOUNTS / 2) as u64) as usize;
                let to = 2 * slot + (1 - from % 2);
                Op::Transfer {
                    from,
                    to,
                    amount: 1 + self.rng.next_range(9),
                }
            }
        })
    }
}

/// The seeded user names of the kv session objects: hex strings of
/// seeded length (4–20 characters), as real keys vary in length. Rank
/// `k` of the zipf sampler addresses `names[k]`.
pub fn key_names(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x4B45_5953);
    (0..KV_KEYS)
        .map(|k| {
            let len = 4 + rng.next_range(17) as usize;
            let hex = format!("{:016x}{:016x}", rng.next_u64(), rng.next_u64());
            // The rank suffix keeps names unique whatever the draw.
            format!("{}-{k}", &hex[..len])
        })
        .collect()
}

/// Initial value of kv key `k` (what `kv_get` must read back).
pub fn initial_value(seed: u64, k: usize) -> u64 {
    mix64(seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Stamp preloaded into page `p` of the paging object.
pub fn initial_stamp(seed: u64, page: u32) -> u64 {
    mix64(seed.rotate_left(17) ^ u64::from(page))
}

/// The 64-bit word a page stamped `stamp` repeats across its 8 KiB.
pub fn page_word(stamp: u64, page: u32) -> u64 {
    mix64(stamp ^ u64::from(page).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let a: Vec<Op> = OpStream::new(w, 7).take(500).collect();
            let b: Vec<Op> = OpStream::new(w, 7).take(500).collect();
            let c: Vec<Op> = OpStream::new(w, 8).take(500).collect();
            assert_eq!(a, b, "{} not seed-pure", w.name());
            assert_ne!(a, c, "{} ignores the seed", w.name());
        }
        assert_eq!(key_names(3), key_names(3));
        assert_ne!(key_names(3), key_names(4));
    }

    #[test]
    fn key_names_are_unique() {
        let mut names = key_names(11);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), KV_KEYS);
    }

    #[test]
    fn transfers_always_cross_data_servers() {
        for op in OpStream::new(Workload::Ledger2pc, 5).take(2_000) {
            let Op::Transfer { from, to, amount } = op else {
                panic!("ledger stream produced {op:?}");
            };
            assert_ne!(from % 2, to % 2, "same-server pair {from}->{to}");
            assert!(to < ACCOUNTS && (1..=9).contains(&amount));
        }
    }

    #[test]
    fn page_windows_cycle_through_the_whole_segment() {
        let firsts: Vec<u32> = OpStream::new(Workload::PageScan, 9)
            .take((SCAN_PAGES / PAGES_PER_OP) as usize)
            .map(|op| match op {
                Op::Scan { first } => first,
                other => panic!("{other:?}"),
            })
            .collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        let want: Vec<u32> = (0..SCAN_PAGES).step_by(PAGES_PER_OP as usize).collect();
        assert_eq!(sorted, want);
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(64, ZIPF_S);
        let mut rng = SplitMix64::new(1);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[8] && hits[8] > hits[63]);
    }
}

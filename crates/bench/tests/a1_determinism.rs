//! The A1 one-worker modern-LAN sort is a function of its inputs: one
//! worker, one data server, so no two threads race for the model. Run
//! it many times and every run reads the same makespan and frame count.
//! Its install acks once reached the data server on a crew thread at a
//! host-chosen moment, and a fetch that found one still outstanding
//! stopped its read-ahead short, so now and then a run read a few
//! frames less. The one test is alone in its binary so no sibling test
//! competes with it for the host; CI runs it in release with the
//! goldens.

use clouds_bench::sort_exp::run_sort_with_cost;
use clouds_simnet::CostModel;
use std::collections::BTreeMap;

const RUNS: usize = 300;

#[test]
fn one_worker_modern_lan_sort_reads_the_same_every_run() {
    let mut seen: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for _ in 0..RUNS {
        let point = run_sort_with_cost(1, CostModel::modern_lan());
        *seen
            .entry((point.makespan.as_nanos(), point.frames))
            .or_default() += 1;
    }
    assert_eq!(
        seen.len(),
        1,
        "(makespan ns, frames) → runs over {RUNS} runs: {seen:?}"
    );
}

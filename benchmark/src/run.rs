//! One workload, one process: the timed (`--trace 0`) run that yields
//! the end-to-end metrics, and the per-layer (`--trace 1`) run that
//! yields probes, counts and the telescoped trace.

use crate::counts::{self, Snapshot};
use crate::gen::{OpStream, Workload};
use crate::host;
use crate::metrics::Values;
use crate::probes;
use crate::stats::{median, quantile_sorted, tail_quantile};
use crate::trace;
use crate::workloads::{Bed, LoopResult, Stop};
use crate::yardstick::{self, Yardstick};
use std::time::{Duration, Instant};

/// Set-ups a full-size timed run performs; `setup_s` is their median.
const SETUPS: usize = 9;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub enum Sizing {
    /// Driver contract: measure for this long (`--seconds`).
    Seconds(u64),
    /// Fixed op counts, `full_ops / divisor` (`run`, `agree`,
    /// `--smoke`): counts and modeled metrics repeat exactly.
    Ops { divisor: u64 },
}

impl Sizing {
    /// Stop rule of a loop that gets `share` of the run.
    fn stop(self, workload: Workload, share: f64) -> Stop {
        match self {
            Sizing::Seconds(s) => Stop::After(Duration::from_secs_f64(s as f64 * share)),
            Sizing::Ops { divisor } => Stop::Ops(
                ((workload.full_ops() / divisor) as f64 * share)
                    .ceil()
                    .max(1.0) as u64,
            ),
        }
    }

    /// Set-ups of a timed run: [`SETUPS`], or three under `--smoke`
    /// (which has ten seconds for ten child processes).
    fn setups(self) -> usize {
        match self {
            Sizing::Ops { divisor } if divisor > 1 => 3,
            _ => SETUPS,
        }
    }

    /// Wall time one probe may take.
    fn probe_budget(self) -> Duration {
        match self {
            Sizing::Seconds(s) => Duration::from_secs_f64(s as f64 * 0.012),
            Sizing::Ops { divisor } => Duration::from_secs_f64(0.12 / divisor as f64),
        }
    }
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// The `q`-quantile of sorted nanosecond samples, in µs (0 when the
/// loop completed nothing; the run is then reported incorrect anyway).
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    quantile_sorted(sorted_ns, q) as f64 / 1e3
}

fn boot(workload: Workload, seed: u64) -> Bed {
    Bed::boot(workload, seed).unwrap_or_else(|e| {
        eprintln!("{}: set-up failed: {e}", workload.name());
        std::process::exit(1);
    })
}

fn report_violations(workload: Workload, result: &LoopResult, bad: &[String]) -> bool {
    if result.wrong > 0 {
        eprintln!(
            "{}: {} op(s) returned a wrong value",
            workload.name(),
            result.wrong
        );
    }
    for line in bad.iter().take(10) {
        eprintln!("{}: CHECK FAILED: {line}", workload.name());
    }
    result.wrong == 0 && bad.is_empty()
}

/// `--trace 0`: set up several times, run the closed loop on the
/// last bed with nothing else going on, check the outputs. Wall times
/// are corrected for host speed (see `yardstick.rs`).
pub fn timed_run(workload: Workload, seed: u64, sizing: Sizing) -> Report {
    let mix = workload.yardstick_mix();
    let mut yard = Yardstick::new();
    let mut setups = Vec::new();
    let mut bed = None;
    for _ in 0..sizing.setups() {
        if let Some(old) = bed.take() {
            Bed::teardown(old);
        }
        let yard_before = yard.measure();
        let t0 = Instant::now();
        bed = Some(boot(workload, seed));
        let took = t0.elapsed().as_secs_f64();
        setups.push(took * yardstick::factor(mix, yard_before, yard.measure()));
    }
    let mut bed = bed.expect("at least one set-up");
    drop(yard); // the loop brings its own; no idle echo nodes meanwhile

    let mut ops = OpStream::new(workload, seed);
    let result = bed.run_loop(&mut ops, sizing.stop(workload, 1.0));
    let (bad, _) = bed.final_check();
    let correct = report_violations(workload, &result, &bad);

    let mut corrected = result.corrected_ns();
    corrected.sort_unstable();
    let mut raw = result.wall_ns.clone();
    raw.sort_unstable();
    let done = corrected.len();
    let tail = tail_quantile(done, workload.tail_rung_permille());
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("wall_ops_per_s", result.corrected_ops_per_s());
    values.insert("wall_p50_us", quantile_us(&corrected, 0.5));
    values.insert("wall_tail_us", quantile_us(&corrected, tail));
    values.insert(
        "model_ops_per_s",
        done as f64 / (result.model_elapsed_ns.max(1) as f64 / 1e9),
    );
    values.insert("peak_rss_mib", host::peak_rss_mib());
    println!(
        "# {done} ops; tail = p{}; as measured, uncorrected: {:.1} ops/s, p50 {:.1} us; median host-speed factor {:.3}",
        tail * 100.0,
        result.raw_ops_per_s(),
        quantile_us(&raw, 0.5),
        result.host_factor(),
    );
    Report {
        correct: correct && done > 0,
        attempted: result.attempted,
        failed: result.failed,
        values,
    }
}

/// `--trace 1`: one set-up, then an untraced closed loop bracketed by
/// counter snapshots (the counts), the layer probes, the telescoped
/// traced passes, and the end-of-run checks.
pub fn layer_run(workload: Workload, seed: u64, sizing: Sizing) -> Report {
    let mut values = Values::new();
    let mut bed = boot(workload, seed);

    // Counts: what the program's own registries say one op costs.
    let before = Snapshot::take(&bed);
    let cpu_before = host::cpu_time_us();
    let mut ops = OpStream::new(workload, seed);
    let result = bed.run_loop(&mut ops, sizing.stop(workload, 0.35));
    let cpu_used = host::cpu_time_us() - cpu_before;
    let after = Snapshot::take(&bed);
    counts::per_op(&mut values, workload, &before, &after, &result);
    let done = result.wall_ns.len();
    values.insert("host.wall_ops_per_s", result.raw_ops_per_s());
    values.insert("host.yardstick_us", result.yardstick_us());
    values.insert("host.cpu_us_per_op", cpu_used as f64 / done.max(1) as f64);
    values.insert(
        "host.pinned",
        if host::pinned_cpu().is_some() {
            1.0
        } else {
            0.0
        },
    );
    let (mut wall, mut model) = (result.wall_ns.clone(), result.model_ns.clone());
    wall.sort_unstable();
    model.sort_unstable();
    let untraced_p50_us = quantile_us(&wall, 0.5);
    values.insert("host.wall_p50_us", untraced_p50_us);
    values.insert("host.wall_p999_us", quantile_us(&wall, 0.999));
    values.insert("model.p50_us", quantile_us(&model, 0.5));
    values.insert("model.p99_us", quantile_us(&model, 0.99));

    // Telescoped trace: the same op stream at successively lower entry
    // points, a quarter of the run (or a twentieth of its ops per rung).
    let trace_stop = match sizing {
        Sizing::Seconds(_) => sizing.stop(workload, 0.25),
        Sizing::Ops { .. } => sizing.stop(workload, 0.05),
    };
    let bad_traced_ops = trace::telescope(&mut values, &mut bed, seed, trace_stop, untraced_p50_us);
    if bad_traced_ops > 0 {
        eprintln!(
            "{}: {bad_traced_ops} traced op(s) failed or answered wrongly",
            workload.name()
        );
    }

    let (bad, replay) = bed.final_check();
    let (replay_ms, replay_records) = replay.map_or((0.0, 0.0), |(took, records)| {
        (took.as_secs_f64() * 1e3, records as f64)
    });
    values.insert("store.replay_wall_ms", replay_ms);
    values.insert("store.replay_records", replay_records);
    let correct = report_violations(workload, &result, &bad) && bad_traced_ops == 0;
    Bed::teardown(bed);

    // Probes last, on fixtures of their own, with the workload's
    // cluster stopped.
    probes::run_all(&mut values, sizing.probe_budget());

    Report {
        correct: correct && done > 0,
        attempted: result.attempted,
        failed: result.failed,
        values,
    }
}

//! Host facts: CPU pinning, `/proc` readers, and the run header.

use std::process::Command;

/// Environment variable the pinned child finds its CPU in (`-1` when
/// pinning was impossible and the run is unpinned).
pub const PINNED_ENV: &str = "CLOUDS_BENCHMARK_PINNED_CPU";

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// First CPU of this process's `Cpus_allowed_list`.
fn first_allowed_cpu() -> Option<u32> {
    let list = proc_field("/proc/self/status", "Cpus_allowed_list:")?;
    let first = list.split([',', '-']).next()?;
    first.trim().parse().ok()
}

/// The CPU measurements are pinned to: the first allowed one, if
/// `taskset` can pin to it.
pub fn pin_target() -> Option<u32> {
    first_allowed_cpu().filter(|cpu| {
        Command::new("taskset")
            .args(["-c", &cpu.to_string(), "true"])
            .output()
            .is_ok_and(|o| o.status.success())
    })
}

/// `taskset -c <cpu> <this exe> <args>` when pinning is possible,
/// otherwise this exe unpinned. Either way the child is told which.
pub fn pinned_child(args: &[String]) -> Command {
    let exe = std::env::current_exe().expect("own executable path");
    let cpu = pin_target();
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", &cpu.to_string()]).arg(exe);
            c
        }
        None => {
            eprintln!(
                "warning: cannot pin to one CPU (no taskset?); running unpinned, host.pinned = 0"
            );
            Command::new(exe)
        }
    };
    cmd.args(args)
        .env(PINNED_ENV, cpu.map_or(-1, i64::from).to_string())
        // One malloc arena: the process runs on one CPU, so glibc's
        // per-thread arenas buy no parallelism, while with them every
        // short-lived handler thread strands freed page buffers in an
        // arena of its own: peak RSS doubled and moved 12 % between
        // runs (1 % with one arena), and throughput wandered with it.
        .env("MALLOC_ARENA_MAX", "1");
    cmd
}

/// The CPU this process was pinned to by its parent, if any.
pub fn pinned_cpu() -> Option<u32> {
    std::env::var(PINNED_ENV).ok()?.parse().ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time this process has consumed, µs
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 10 ms).
pub fn cpu_time_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are well-formed.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3, so utime (14) and stime (15) are at 11, 12.
    (tick(11) + tick(12)) * 10_000
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The facts a reader needs to compare two outputs: printed before the
/// results of every run.
pub fn header(seed: u64, sizing: &str, pinned: Option<u32>) -> String {
    // Counted from /proc/cpuinfo: `available_parallelism` would say 1
    // inside the pinned child.
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
        t.lines().filter(|l| l.starts_with("processor")).count()
    });
    let pinned = pinned.map_or("unpinned".to_string(), |c| format!("cpu {c}"));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "# clouds-benchmark seed={seed} sizing=[{sizing}] commit={} rustc=[{}] nproc={nproc} pinned={pinned} kernel={kernel}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
    )
}

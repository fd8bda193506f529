//! `clouds-lint` CLI.
//!
//! ```text
//! clouds-lint [--deny] [--json] [--sarif PATH] [ROOT]
//! ```
//!
//! Lints the workspace rooted at `ROOT` (default: the current
//! directory). `--json` emits stable machine-readable JSON instead of
//! the human table; `--sarif PATH` additionally writes a SARIF 2.1.0
//! report to `PATH` (written even when there are no findings, so CI can
//! upload it unconditionally); `--deny` exits non-zero when there are
//! findings (the CI mode). Exit codes: 0 clean (or findings without
//! `--deny`), 1 findings under `--deny`, 2 usage or I/O error.

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut sarif: Option<PathBuf> = None;
    let mut sarif_next = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if sarif_next {
            sarif = Some(PathBuf::from(&arg));
            sarif_next = false;
            continue;
        }
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--sarif" => sarif_next = true,
            "--help" | "-h" => {
                eprintln!("usage: clouds-lint [--deny] [--json] [--sarif PATH] [ROOT]\nrules:");
                for (id, what) in clouds_lint::RULES {
                    eprintln!("  {id:<18}{what}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("clouds-lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            path => {
                if root.is_some() {
                    eprintln!("clouds-lint: more than one ROOT given");
                    return ExitCode::from(2);
                }
                root = Some(PathBuf::from(path));
            }
        }
    }
    if sarif_next {
        eprintln!("clouds-lint: --sarif needs a PATH");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let cfg = clouds_lint::Config::clouds();
    let findings = match clouds_lint::run(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("clouds-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = sarif {
        if let Err(e) = std::fs::write(&path, clouds_lint::render_sarif(&findings)) {
            eprintln!("clouds-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", clouds_lint::render_json(&findings));
    } else {
        print!("{}", clouds_lint::render_table(&findings));
    }
    if deny && !findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

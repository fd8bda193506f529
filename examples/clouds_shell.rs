//! The Clouds shell (§3.1): "the user interface to Clouds is provided
//! by a suite of programs that run on top of Unix on Sun workstations
//! … including the Clouds user shell".
//!
//! Runs a scripted session against a live cluster, then (if stdin is
//! interactive) drops into a read-eval loop.
//!
//! Run with: `cargo run --example clouds_shell`

use clouds::prelude::*;
use clouds::Shell;
use std::io::{BufRead, IsTerminal, Write};

/// A shell-friendly counter: entry points take `Vec<String>`.
struct Counter;

impl ObjectCode for Counter {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "add" => {
                let words: Vec<String> = decode_args(args)?;
                let delta: u64 = words.first().and_then(|w| w.parse().ok()).unwrap_or(1);
                let v = ctx.persistent().read_u64(0)? + delta;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&format!("counter = {v}"))
            }
            "show" => {
                let v = ctx.persistent().read_u64(0)?;
                ctx.write_line(&format!("counter holds {v}"))?;
                encode_result(&String::new())
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn main() -> Result<(), CloudsError> {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(1)
        .workstations(1)
        .build()?;
    cluster.register_class("counter", Counter)?;
    let shell = Shell::new(cluster.workstation(0), cluster.registry().names());

    println!("Clouds shell — scripted session:");
    for line in [
        "help",
        "classes",
        "create counter C1",
        "invoke C1.add 5",
        "invoke C1.add 37",
        "invoke C1.show",
        "ls",
    ] {
        println!("clouds$ {line}");
        match shell.exec(line) {
            Ok(output) => print!("{output}"),
            Err(e) => println!("error: {e}"),
        }
    }

    if std::io::stdin().is_terminal() {
        println!("\ninteractive mode (ctrl-d to exit):");
        let stdin = std::io::stdin();
        loop {
            print!("clouds$ ");
            std::io::stdout().flush().expect("stdout");
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            match shell.exec(line.trim()) {
                Ok(output) => print!("{output}"),
                Err(e) => println!("error: {e}"),
            }
        }
    }
    Ok(())
}

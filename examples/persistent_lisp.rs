//! A persistent Lisp environment (§5.1 "Lisp Programming Environment").
//!
//! "If the address space containing a Lisp environment can be made
//! persistent, it has several advantages, including not having to
//! save/load the environment on startup and shutdown. Further, by
//! invoking entry points in remote Lisp interpreters it is possible to
//! allow inter-environment operations … Other features that naturally
//! arise due to the distributed nature of the system include concurrent
//! evaluations and load sharing."
//!
//! The `lisp-env` class is a tiny s-expression interpreter whose global
//! environment lives in the object's persistent memory: definitions
//! survive across threads, "sessions", and machine crashes, with no
//! save/load step anywhere. `(remote <EnvName> <expr>)` evaluates a
//! subexpression in *another* environment object — possibly homed on a
//! different data server — implementing the paper's inter-environment
//! operations.
//!
//! Run with: `cargo run --example persistent_lisp`

use clouds::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------- lisp

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Num(i64),
    Sym(String),
    List(Vec<Expr>),
}

fn tokenize(src: &str) -> Vec<String> {
    src.replace('(', " ( ")
        .replace(')', " ) ")
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

fn parse(tokens: &mut Vec<String>) -> Result<Expr, String> {
    if tokens.is_empty() {
        return Err("unexpected end of input".into());
    }
    let token = tokens.remove(0);
    match token.as_str() {
        "(" => {
            let mut items = Vec::new();
            while tokens.first().map(String::as_str) != Some(")") {
                items.push(parse(tokens)?);
            }
            tokens.remove(0); // ')'
            Ok(Expr::List(items))
        }
        ")" => Err("unexpected )".into()),
        t => Ok(t
            .parse::<i64>()
            .map(Expr::Num)
            .unwrap_or_else(|_| Expr::Sym(t.to_string()))),
    }
}

type Env = BTreeMap<String, i64>;

/// Evaluate with `remote` subexpressions delegated to the callback.
fn eval(
    expr: &Expr,
    env: &mut Env,
    remote: &mut dyn FnMut(&str, &Expr) -> Result<i64, String>,
) -> Result<i64, String> {
    match expr {
        Expr::Num(n) => Ok(*n),
        Expr::Sym(s) => env.get(s).copied().ok_or(format!("unbound symbol {s}")),
        Expr::List(items) => {
            let Some(Expr::Sym(head)) = items.first() else {
                return Err("expected operator".into());
            };
            match head.as_str() {
                "define" => {
                    let [_, Expr::Sym(name), value] = &items[..] else {
                        return Err("usage: (define name expr)".into());
                    };
                    let v = eval(value, env, remote)?;
                    env.insert(name.clone(), v);
                    Ok(v)
                }
                "remote" => {
                    let [_, Expr::Sym(target), sub] = &items[..] else {
                        return Err("usage: (remote EnvName expr)".into());
                    };
                    remote(target, sub)
                }
                op @ ("+" | "-" | "*" | "if") => {
                    let args: Result<Vec<i64>, String> = items[1..]
                        .iter()
                        .map(|e| eval(e, env, remote))
                        .collect();
                    let args = args?;
                    match op {
                        "+" => Ok(args.iter().sum()),
                        "-" => Ok(args
                            .split_first()
                            .map(|(h, t)| t.iter().fold(*h, |a, b| a - b))
                            .unwrap_or(0)),
                        "*" => Ok(args.iter().product()),
                        _ => Ok(if args.first().copied().unwrap_or(0) != 0 {
                            args.get(1).copied().unwrap_or(0)
                        } else {
                            args.get(2).copied().unwrap_or(0)
                        }),
                    }
                }
                other => Err(format!("unknown operator {other}")),
            }
        }
    }
}

fn unparse(e: &Expr) -> String {
    match e {
        Expr::Num(n) => n.to_string(),
        Expr::Sym(s) => s.clone(),
        Expr::List(items) => format!(
            "({})",
            items.iter().map(unparse).collect::<Vec<_>>().join(" ")
        ),
    }
}

// ------------------------------------------------------- clouds object

struct LispEnv;

impl ObjectCode for LispEnv {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "eval" => {
                let src: String = decode_args(args)?;
                // The environment is persistent state: loaded from the
                // object, mutated, stored back. No files, no save/load.
                let mut env: Env = ctx.persistent().read_value(0).unwrap_or_default();
                let mut tokens = tokenize(&src);
                let expr =
                    parse(&mut tokens).map_err(CloudsError::Application)?;
                let mut remote_calls: Vec<(String, Expr)> = Vec::new();
                // First pass gathers remote calls so we can route them
                // through `ctx` (the closure cannot borrow ctx mutably
                // while eval borrows env).
                let result = {
                    let mut pending = |target: &str, sub: &Expr| {
                        remote_calls.push((target.to_string(), sub.clone()));
                        Err("__remote__".to_string())
                    };
                    eval(&expr, &mut env, &mut pending)
                };
                let value = match result {
                    Ok(v) => v,
                    Err(marker) if marker == "__remote__" => {
                        // Re-evaluate with real remote dispatch.
                        let mut remote = |target: &str, sub: &Expr| -> Result<i64, String> {
                            let sysname =
                                ctx.bind(target).map_err(|e| e.to_string())?;
                            let sub_src = unparse(sub);
                            let reply = ctx
                                .invoke(
                                    sysname,
                                    "eval",
                                    &clouds::encode_args(&sub_src)
                                        .map_err(|e| e.to_string())?,
                                )
                                .map_err(|e| e.to_string())?;
                            clouds::decode_args::<i64>(&reply).map_err(|e| e.to_string())
                        };
                        eval(&expr, &mut env, &mut remote)
                            .map_err(CloudsError::Application)?
                    }
                    Err(e) => return Err(CloudsError::Application(e)),
                };
                ctx.persistent().write_value(0, &env)?;
                encode_result(&value)
            }
            "bindings" => {
                let env: Env = ctx.persistent().read_value(0).unwrap_or_default();
                let mut names: Vec<(String, i64)> = env.into_iter().collect();
                names.sort();
                encode_result(&names)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn data_segment_len(&self) -> u64 {
        4 * clouds_ra::PAGE_SIZE as u64
    }
}

fn main() -> Result<(), CloudsError> {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(2)
        .workstations(1)
        .build()?;
    cluster.register_class("lisp-env", LispEnv)?;
    let ws = cluster.workstation(0);
    ws.create_object("lisp-env", "Alice")?;
    ws.create_object("lisp-env", "Bob")?;

    let run = |env: &str, src: &str| -> Result<i64, CloudsError> {
        let v: i64 = ws.run_wait_decode(env, "eval", &src.to_string())?;
        println!("{env}> {src}  =>  {v}");
        Ok(v)
    };

    println!("two persistent Lisp environments on different data servers:\n");
    run("Alice", "(define x 40)")?;
    run("Alice", "(+ x 2)")?;
    run("Bob", "(define y 100)")?;

    // Inter-environment operation: Alice asks Bob for y.
    let v = run("Alice", "(+ x (remote Bob y))")?;
    assert_eq!(v, 140);

    // "No save/load on startup and shutdown": crash the compute servers
    // (the interpreters); the environments live on.
    println!("\ncrash-restarting both compute servers (no save, no load)...");
    cluster.crash_compute(0);
    cluster.crash_compute(1);
    cluster.restart_compute(0);
    cluster.restart_compute(1);

    let v = run("Alice", "(* x 2)")?;
    assert_eq!(v, 80, "x survived the crash in persistent memory");
    let bindings: Vec<(String, i64)> = ws.run_wait_decode("Alice", "bindings", &())?;
    println!("\nAlice's environment after reboot: {bindings:?}");
    Ok(())
}

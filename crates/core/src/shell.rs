//! The Clouds shell (§3.1).
//!
//! "A user invokes a Clouds object by specifying the object, the entry
//! point and the arguments to the Clouds shell. The Clouds shell sends
//! an invocation request to a compute server and the invocation proceeds
//! under Clouds using a Clouds thread."
//!
//! The shell is a thin command interpreter over a [`Workstation`].
//! Shell-invocable entry points receive their arguments as a
//! codec-encoded `Vec<String>` — the shell is untyped, exactly like
//! typing words at a 1988 terminal. Commands:
//!
//! ```text
//! classes                      list loaded classes
//! create <class> <name>        instantiate and register a user name
//! ls [prefix]                  list registered names
//! invoke <name>.<entry> [w..]  run an entry point, print its terminal output
//! destroy <name>               destroy an object and unregister it
//! help                         this text
//! ```

use crate::error::CloudsError;
use crate::node::Workstation;
use std::fmt::Write as _;

/// A user shell bound to one workstation.
pub struct Shell<'a> {
    ws: &'a Workstation,
    classes: Vec<String>,
}

impl std::fmt::Debug for Shell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shell").finish()
    }
}

const HELP: &str = "\
commands:
  classes                      list loaded classes
  create <class> <name>        instantiate and register a user name
  ls [prefix]                  list registered names
  invoke <name>.<entry> [w..]  run an entry point (args: whitespace words)
  destroy <name>               destroy an object and unregister it
  help                         this text
";

impl<'a> Shell<'a> {
    /// Open a shell on `ws`. `classes` is shown by the `classes`
    /// command (the registry itself lives on the compute servers).
    pub fn new(ws: &'a Workstation, classes: Vec<String>) -> Shell<'a> {
        Shell { ws, classes }
    }

    /// Execute one command line, returning what the shell prints.
    ///
    /// # Errors
    ///
    /// Malformed commands and all OS-level failures, formatted for the
    /// user.
    pub fn exec(&self, line: &str) -> Result<String, CloudsError> {
        let mut words = line.split_whitespace();
        let Some(command) = words.next() else {
            return Ok(String::new());
        };
        let rest: Vec<&str> = words.collect();
        match command {
            "help" => Ok(HELP.to_string()),
            "classes" => Ok(self
                .classes
                .iter()
                .map(|c| format!("{c}\n"))
                .collect::<String>()),
            "create" => {
                let [class, name] = rest[..] else {
                    return Err(CloudsError::BadArguments(
                        "usage: create <class> <name>".into(),
                    ));
                };
                let sysname = self.ws.create_object(class, name)?;
                Ok(format!("created {name} = {sysname}\n"))
            }
            "ls" => {
                let prefix = rest.first().copied().unwrap_or("");
                let names = self.ws.naming().list(prefix)?;
                let mut out = String::new();
                for (name, sysname) in names {
                    writeln!(out, "{name:<24} {sysname}").expect("string write");
                }
                Ok(out)
            }
            "invoke" => {
                let Some(target) = rest.first() else {
                    return Err(CloudsError::BadArguments(
                        "usage: invoke <name>.<entry> [args..]".into(),
                    ));
                };
                let Some((name, entry)) = target.split_once('.') else {
                    return Err(CloudsError::BadArguments(
                        "target must be <name>.<entry>".into(),
                    ));
                };
                let args: Vec<String> = rest[1..].iter().map(|s| s.to_string()).collect();
                let thread = self.ws.spawn(name, entry, crate::encode_args(&args)?);
                let id = thread.id();
                let result = thread.join()?;
                let mut out = self.ws.output(id);
                // Entry points may also return a displayable string.
                if let Ok(text) = crate::decode_args::<String>(&result) {
                    if !text.is_empty() {
                        writeln!(out, "{text}").expect("string write");
                    }
                }
                Ok(out)
            }
            "destroy" => {
                let [name] = rest[..] else {
                    return Err(CloudsError::BadArguments("usage: destroy <name>".into()));
                };
                let sysname = self.ws.naming().lookup(name)?;
                // Route through a compute server via the naming entry.
                self.ws.destroy_object(sysname)?;
                self.ws.naming().unregister(name)?;
                Ok(format!("destroyed {name}\n"))
            }
            other => Err(CloudsError::BadArguments(format!(
                "unknown command {other:?}; try `help`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use clouds_simnet::CostModel;

    /// A shell-friendly greeter: args arrive as Vec<String>.
    struct Greeter;
    impl ObjectCode for Greeter {
        fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
            match entry {
                "greet" => {
                    let words: Vec<String> = crate::decode_args(args)?;
                    let who = words.first().cloned().unwrap_or_else(|| "world".into());
                    ctx.write_line(&format!("hello {who}"))?;
                    encode_result(&format!("greeted {who}"))
                }
                other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
            }
        }
    }

    fn shell_bed() -> Cluster {
        let cluster = Cluster::builder()
            .compute_servers(1)
            .data_servers(1)
            .workstations(1)
            .cost_model(CostModel::zero())
            .build()
            .unwrap();
        cluster.register_class("greeter", Greeter).unwrap();
        cluster
    }

    #[test]
    fn shell_session() {
        let cluster = shell_bed();
        let shell = Shell::new(cluster.workstation(0), cluster.registry().names());

        assert!(shell.exec("help").unwrap().contains("invoke"));
        assert_eq!(shell.exec("classes").unwrap(), "greeter\n");
        assert!(shell
            .exec("create greeter G1")
            .unwrap()
            .starts_with("created G1"));
        assert!(shell.exec("ls").unwrap().contains("G1"));

        let out = shell.exec("invoke G1.greet clouds").unwrap();
        assert!(out.contains("hello clouds"), "{out}");
        assert!(out.contains("greeted clouds"), "{out}");

        assert_eq!(shell.exec("destroy G1").unwrap(), "destroyed G1\n");
        assert!(shell.exec("ls").unwrap().is_empty());
    }

    #[test]
    fn shell_errors_are_friendly() {
        let cluster = shell_bed();
        let shell = Shell::new(cluster.workstation(0), vec![]);
        assert!(shell.exec("create greeter").is_err());
        assert!(shell.exec("invoke Nope.greet").is_err());
        assert!(shell.exec("frobnicate").is_err());
        assert!(shell.exec("").unwrap().is_empty());
        assert!(shell.exec("invoke notdotted").is_err());
    }
}

//! `perfbench`: the compiled half of the HiDaP benchmark. `run.py` calls
//! it to generate a workload's inputs, to check a placed DEF, to run the
//! traced in-process cold flow and to replay an ECO edit stream in
//! process. Every subcommand prints one JSON object on stdout.
//!
//! ```text
//! perfbench gen --workload <name> --size full|tiny --seed <n> --edits <n> --dir <dir>
//! perfbench check-def --lef <file> --def <file> --macros <n>
//! perfbench trace --dir <dir> --top <name> --def-out <file>
//! perfbench eco-replay --dir <dir> --top <name> --jobs <n>
//! ```

mod eco;
mod json;
mod trace;
mod workloads;

use json::Json;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str = "usage: perfbench gen|check-def|trace|eco-replay --<flag> <value> ...";

/// `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected '{flag}'"))?;
            let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let value = self.get(key)?;
        value.parse().map_err(|_| format!("invalid --{key} '{value}'"))
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let flags = Flags::parse(rest)?;
    let path = |key: &str| flags.get(key).map(Path::new);
    match command.as_str() {
        "gen" => workloads::generate(
            Workload::parse(flags.get("workload")?)?,
            Size::parse(flags.get("size")?)?,
            flags.num("seed")?,
            flags.num("edits")?,
            path("dir")?,
        ),
        "check-def" => trace::check_def(path("lef")?, path("def")?, flags.num("macros")?),
        "trace" => trace::trace_cold(path("dir")?, flags.get("top")?, path("def-out")?),
        "eco-replay" => eco::replay(path("dir")?, flags.get("top")?, flags.num("jobs")?),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

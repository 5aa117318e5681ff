//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <browse_miss|search_lorel|feed_absorb> --seed <n>
//! --seconds <n> --trace <0|1>`, from the root of a checkout.
//!
//! Prints a human summary on standard error and, as the last line of
//! standard output, the result as one JSON object. The result and its
//! metadata are also kept under `perfbench/results/`.

use std::process::ExitCode;

use annoda_perfbench::gen::Workload;
use annoda_perfbench::report::{self, Meta};
use annoda_perfbench::run::{self, Args, Dirs};

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dirs = Dirs::new(&root);
    let meta = Meta {
        workload: args.workload.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        loci: args.workload.loci(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit: report::commit(&dirs.root),
    };
    eprintln!(
        "perfbench: workload {} seed {} for {}s (trace {}), {} loci, nproc {}, commit {}",
        meta.workload, meta.seed, meta.seconds, meta.trace, meta.loci, meta.nproc, meta.commit
    );
    let outcome = match run::run(&args, &dirs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    for (k, v) in &outcome.notes {
        eprintln!("  {k}: {}", report::number(*v).to_text());
    }
    let path = report::result_path(&dirs.results, &meta);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, report::result_file(&meta, &outcome)));
    if let Err(e) = written {
        eprintln!("warning: cannot keep the result at {}: {e}", path.display());
    }
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}

//! The Tango benchmark: one command, four closed-loop workloads, the
//! end-to-end metrics a Tango user sees, and (with `--trace 1`) the same
//! ops split across the stack's layers. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-local --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod deploy;
mod measure;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::Block;
use workloads::{BlockCtx, Sizes, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// A run stops starting blocks after this long, samples or not.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    plant_wrong: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
         [--scale tiny|full] [--plant-wrong-expected]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut plant_wrong) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    v => return Err(format!("--scale takes tiny or full, not {v}")),
                }
            }
            "--plant-wrong-expected" => plant_wrong = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        plant_wrong,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let sizes = if args.tiny { Sizes::tiny() } else { Sizes::full() };
    let blocks = run(&args, &sizes, &out_dir);

    let failures: Vec<&String> = blocks.iter().flat_map(|b| &b.failures).collect();
    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let attempted: u64 = blocks.iter().map(|b| b.attempted).sum();
    let failed: u64 = blocks.iter().map(|b| b.failed).sum();
    let metrics = if args.trace { report::per_layer(&blocks) } else { report::end_to_end(&blocks) };
    if args.trace {
        let path = out_dir.join(format!("spans-{}.tsv", args.workload.name()));
        match trace::write_spans(&path) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
    }
    let digest = blocks.iter().fold(0u64, |d, b| d.rotate_left(17) ^ b.digest);
    println!("# workload {} seed {} blocks {}", args.workload.name(), args.seed, blocks.len());
    println!("# inputs digest {digest:016x}");
    for m in &metrics {
        match m.samples {
            Some(n) => println!("# {} = {} {} (n={n} per block)", m.name, m.value, m.unit),
            None => println!("# {} = {} {}", m.name, m.value, m.unit),
        }
    }
    let correct = failed == 0;
    println!("{}", report::result_json(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs blocks until `--seconds` have passed and at least three blocks ran
/// (so set-up is measured several times). A traced run alternates
/// untraced and traced blocks.
fn run(args: &Args, sizes: &Sizes, out_dir: &std::path::Path) -> Vec<Block> {
    let min_blocks = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut blocks: Vec<Block> = Vec::new();
    for block in 0.. {
        let ctx = BlockCtx {
            seed: args.seed,
            block,
            traced: args.trace && block % 2 == 1,
            sizes,
            plant_wrong: args.plant_wrong,
            work_dir: out_dir,
        };
        // The first traced block's spans go to the span file.
        trace::set_keep_spans(block == 1);
        let b = workloads::run_block(args.workload, &ctx);
        eprintln!(
            "block {block}{}: {:.0} ops/s over {:.2} s, set-up {:.4} s",
            if ctx.traced { " (traced)" } else { "" },
            b.main_ops as f64 / b.main_secs,
            b.main_secs,
            b.spawn_s + b.open_s
        );
        let failed = b.failed > 0;
        blocks.push(b);
        let elapsed = start.elapsed();
        let enough = blocks.len() >= min_blocks && elapsed >= Duration::from_secs(args.seconds);
        if failed || enough || elapsed >= HARD_STOP {
            break;
        }
    }
    blocks
}

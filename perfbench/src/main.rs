//! Round-level benchmark of the fta workspace.
//!
//! Usage: `fta-perfbench --workload <paper|dense|day> --seed <n>
//! --seconds <s> --trace <0|1>`. `run.py` builds and runs it; see
//! `README.md` beside it for what each workload and metric measures.
//!
//! With `--trace 0` the run times the program's real entry points and
//! reports the end-to-end metrics; with `--trace 1` it composes a round
//! from the layers' public functions, records a span around each call and
//! reports the per-layer metrics. Either way the correctness gates run
//! first, and the last line of stdout is one JSON object.

mod day;
mod host;
mod report;
mod round;
mod rounds;
mod trace;

use report::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs keep their scratch journals and written spans, relative to
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fta-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(WORK_DIR);
    let spans_out: PathBuf = work.join(format!("spans-{}.jsonl", args.workload));
    let mut report = match args.workload.as_str() {
        "paper" => rounds::run(
            &rounds::paper(),
            args.seed,
            args.seconds,
            args.trace,
            &spans_out,
        ),
        "dense" => rounds::run(
            &rounds::dense(),
            args.seed,
            args.seconds,
            args.trace,
            &spans_out,
        ),
        "day" => day::run(args.seed, args.seconds, args.trace, work, &spans_out),
        other => {
            eprintln!("fta-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        report.set("hw_threads", threads as f64);
        report.set("host.kernel_ms", host::kernel_median_ms());
        report.print(PER_LAYER);
    } else {
        report.print(END_TO_END);
    }
    ExitCode::SUCCESS
}

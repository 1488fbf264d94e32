//! `wfbench`: the benchmark every performance claim about the wait-free
//! reference-counting stack is measured with. Three closed-loop workloads
//! (see README.md); an untraced run prints the end-to-end metrics, a
//! traced run (`--trace 1`) the per-layer ones. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod lru;
mod pq;
mod report;
mod scheme;
mod session;
mod stats;
mod trace;

use std::process::ExitCode;

use wfrc_baselines::LfrcDomain;
use wfrc_core::WfrcDomain;

const USAGE: &str = "usage: wfbench --workload <pq-paper|session-cache|lru-cycles> --seed <u64> \
                     --seconds <1..=60> --trace <0|1> [--scheme <wfrc|lfrc>]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PqPaper,
    SessionCache,
    LruCycles,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// The LFRC baseline, for the README's context figures only.
    lfrc: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut lfrc) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "pq-paper" => Workload::PqPaper,
                    "session-cache" => Workload::SessionCache,
                    "lru-cycles" => Workload::LruCycles,
                    _ => return Err(format!("unknown workload {val:?}")),
                })
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            "--scheme" => {
                lfrc = match val.as_str() {
                    "wfrc" => false,
                    "lfrc" => true,
                    _ => return Err(format!("unknown scheme {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        lfrc,
    };
    if args.lfrc && args.workload == Workload::SessionCache {
        return Err("the LFRC baseline runs pq-paper and lru-cycles only".into());
    }
    Ok(args)
}

/// Writes a traced run's kept spans next to the benchmark's sources.
fn write_spans(agg: &trace::TraceAgg, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{workload}-seed{seed}.tsv"));
    match agg.write_spans(&path) {
        Ok(()) => eprintln!(
            "wfbench: {} spans written to {}",
            agg.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("wfbench: could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("wfbench: checker self-test failed: {e}");
        return ExitCode::from(1);
    }
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let report = match (args.workload, args.lfrc) {
        (Workload::PqPaper, false) => pq::run::<WfrcDomain<_>>(seed, secs, traced),
        (Workload::PqPaper, true) => pq::run::<LfrcDomain<_>>(seed, secs, traced),
        (Workload::SessionCache, _) => session::run(seed, secs, traced),
        (Workload::LruCycles, false) => lru::run::<WfrcDomain<_>>(seed, secs, traced),
        (Workload::LruCycles, true) => lru::run::<LfrcDomain<_>>(seed, secs, traced),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

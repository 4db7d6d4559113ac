//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]`
//!
//! With `--trace 0`, runs the workload end to end and reports set-up
//! time, throughput, latency, availability, simulated commit latency
//! and peak memory. With `--trace 1`, runs the traced per-layer ledger
//! instead. Either way it prints one line per metric, then the result
//! as a single JSON line, and exits 0 only if every audited operation
//! was correct (1 on a failed operation or a run error, 2 on a usage
//! error).

use std::process::ExitCode;

use dwt_ledger::{layers, workloads, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("usage error: {msg}");
    eprintln!(
        "usage: ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--toy]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut toy = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag}: missing value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("--workload: unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(e) => return usage(&format!("--seed: {e}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return usage("--seconds: expected a number in (0, 600]"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace: expected 0 or 1"),
            },
            other => return usage(&format!("{other}: unknown flag")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };

    // The jit kernel cache, and the scratch files `rustc` and the linker
    // leave, stay inside this package's build directory. Set before any
    // thread starts.
    let cache = layers::jit_cache_dir();
    let tmp = cache.with_file_name("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }
    std::env::set_var("DWT_JIT_CACHE", &cache);

    let opts = Options { seed, seconds, toy };
    let result = if trace { layers::run(workload, &opts) } else { workloads::run(workload, &opts) };
    match result {
        Ok(outcome) => {
            println!(
                "# {} seed {seed} seconds {seconds} trace {} (backend compiled, {} cores)",
                workload.name(),
                u8::from(trace),
                std::thread::available_parallelism().map_or(0, usize::from)
            );
            print!("{}", outcome.human());
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::from(1)
        }
    }
}

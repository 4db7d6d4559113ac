//! Seeded fault-injection campaigns over datapath netlists.
//!
//! A campaign takes one built datapath, computes its fault-free output
//! stream once, then replays the same stimulus under a sequence of
//! pseudo-random single-event upsets — one register-bit flip per run,
//! drawn from a seeded generator so every campaign is exactly
//! reproducible. Each run is classified against the clean stream:
//!
//! * **masked** — the outputs match the clean run and no detector
//!   fired: the upset died inside the datapath (overwritten before
//!   mattering, voted away by TMR, or truncated off);
//! * **detected** — the variant's `fault_detect` port rose at some
//!   cycle: the system knows the tile is suspect and can retry it;
//! * **SDC** — silent data corruption: the outputs differ and nothing
//!   flagged it, the failure mode hardening exists to eliminate.
//!
//! The per-variant summary pairs the outcome histogram with the mapped
//! LE cost, so the `fault_campaign` binary can print the area-versus-
//! vulnerability trade-off directly.

use dwt_arch::datapath::BuiltDatapath;
use dwt_arch::golden::still_tone_pairs;
use dwt_fpga::map::map_netlist;
use dwt_lint::diag::json_string;
use dwt_repro::DwtError;
use dwt_rtl::cell::CellKind;
use dwt_rtl::engine::Engine;
use dwt_rtl::fault::FaultSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use dwt_pool::histogram::LatencyHistogram;

/// Campaign parameters. The defaults give a statistically useful sweep
/// that still finishes quickly on every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of injection runs (one single-bit upset each).
    pub faults: usize,
    /// Seed for both the stimulus and the fault-site generator; equal
    /// seeds reproduce the campaign bit for bit.
    pub seed: u64,
    /// Sample pairs in the stimulus stream.
    pub pairs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { faults: 64, seed: 2005, pairs: 64 }
    }
}

/// Classification of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Outputs matched the clean run; nothing fired.
    Masked,
    /// The `fault_detect` port flagged the upset.
    Detected,
    /// Silent data corruption: outputs differed, no flag.
    Sdc,
}

impl Outcome {
    /// Lower-case label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Detected => "detected",
            Outcome::Sdc => "sdc",
        }
    }
}

/// One injection run: the fault and what became of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Its classification.
    pub outcome: Outcome,
}

/// The result of one campaign over one design variant.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Variant name ("Design 3", "Design 3 + TMR", …).
    pub variant: String,
    /// Mapped area in logic elements (prices the hardening overhead).
    pub les: usize,
    /// Total register bits — the upset cross-section being sampled.
    pub register_bits: usize,
    /// Every injection run, in generation order.
    pub records: Vec<FaultRecord>,
}

impl CampaignReport {
    /// Number of runs with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Fraction of runs ending in silent data corruption.
    #[must_use]
    pub fn sdc_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.count(Outcome::Sdc) as f64 / self.records.len() as f64
        }
    }
}

/// A minimal right-padded markdown table builder shared by the campaign
/// binaries (`fault_campaign`, `recovery_campaign`): collect rows as
/// strings, render with per-column widths fitted to the content.
#[derive(Debug, Clone)]
pub struct MarkdownTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        MarkdownTable {
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are dropped.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with columns sized to their widest cell.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let empty = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).unwrap_or(&empty);
                let pad = w.saturating_sub(cell.chars().count());
                out.push(' ');
                out.push_str(cell);
                out.push_str(&" ".repeat(pad));
                out.push_str(" |");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Serializes a fault campaign (config echo — including the seed — plus
/// every variant's tallies and per-fault records) as JSON.
#[must_use]
pub fn campaign_json(cfg: &CampaignConfig, reports: &[CampaignReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"config\": {{ \"faults\": {}, \"pairs\": {}, \"seed\": {} }},\n  \"variants\": [",
        cfg.faults, cfg.pairs, cfg.seed
    );
    for (i, r) in reports.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\n      \"variant\": {}, \"les\": {}, \"register_bits\": {},\n      \
             \"masked\": {}, \"detected\": {}, \"sdc\": {}, \"sdc_rate\": {:.6},\n      \"records\": [",
            json_string(&r.variant),
            r.les,
            r.register_bits,
            r.count(Outcome::Masked),
            r.count(Outcome::Detected),
            r.count(Outcome::Sdc),
            r.sdc_rate(),
        );
        for (j, rec) in r.records.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n        {{ \"fault\": {}, \"outcome\": \"{}\" }}",
                json_string(&rec.fault.to_string()),
                rec.outcome.label()
            );
        }
        let _ = write!(out, "\n      ]\n    }}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Process exit code for a malformed invocation (bad flag, missing or
/// unparsable value) — distinct from [`EXIT_GATE`] so CI can tell "the
/// job is misconfigured" from "the result regressed".
pub const EXIT_USAGE: i32 = 2;

/// Process exit code for a failed result gate (`--max-sdc`,
/// `--min-availability`, `--min-speedup`).
pub const EXIT_GATE: i32 = 1;

/// A typed command-line usage error: the offending flag and what went
/// wrong. Campaign binaries print it to stderr and exit with
/// [`EXIT_USAGE`] via [`UsageError::exit`] — never a panic, so a bad
/// invocation yields one readable line instead of a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag (or stray argument) that failed.
    pub flag: String,
    /// What was wrong with it.
    pub message: String,
}

impl UsageError {
    /// A usage error for `flag`.
    #[must_use]
    pub fn new(flag: impl Into<String>, message: impl Into<String>) -> Self {
        UsageError { flag: flag.into(), message: message.into() }
    }

    /// Prints the error to stderr and exits with [`EXIT_USAGE`].
    pub fn exit(&self) -> ! {
        eprintln!("usage error: {self}");
        std::process::exit(EXIT_USAGE);
    }
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.flag, self.message)
    }
}

impl std::error::Error for UsageError {}

/// The error for an argument no flag loop recognised.
#[must_use]
pub fn unknown_flag(flag: &str) -> UsageError {
    UsageError::new(flag, "unknown argument")
}

/// Parses one flag value, naming the flag and the expected shape in
/// the error.
///
/// # Errors
///
/// [`UsageError`] when `raw` fails to parse as `T`.
pub fn parse_value<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    what: &str,
) -> Result<T, UsageError> {
    raw.parse().map_err(|_| UsageError::new(flag, format!("expects a {what}, got '{raw}'")))
}

/// Pulls `flag`'s value from the argument iterator and parses it —
/// the shared body of every campaign binary's flag loop.
///
/// # Errors
///
/// [`UsageError`] when the value is missing or fails to parse.
pub fn flag_value<T, I, S>(args: &mut I, flag: &str, what: &str) -> Result<T, UsageError>
where
    T: std::str::FromStr,
    I: Iterator<Item = S>,
    S: AsRef<str>,
{
    let raw = args.next().ok_or_else(|| UsageError::new(flag, format!("expects a {what}")))?;
    parse_value(flag, raw.as_ref(), what)
}

/// Splits a `A,B,...` flag value into exactly `n` parsed parts
/// (`--burst 4000,800,6`, `--slow-lane 1,2.0`, …).
///
/// # Errors
///
/// [`UsageError`] when the count is off or any part fails to parse.
pub fn parse_parts<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    n: usize,
) -> Result<Vec<T>, UsageError> {
    let out: Result<Vec<T>, UsageError> =
        raw.split(',').map(|p| parse_value(flag, p.trim(), "number")).collect();
    let out = out?;
    if out.len() == n {
        Ok(out)
    } else {
        Err(UsageError::new(flag, format!("expects {n} comma-separated values, got '{raw}'")))
    }
}

/// Splits a `A,B,...` flag value into one-or-more parsed parts
/// (`--sweep 16,8,4`).
///
/// # Errors
///
/// [`UsageError`] when the list is empty or any part fails to parse.
pub fn parse_list<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<Vec<T>, UsageError> {
    let out: Result<Vec<T>, UsageError> = raw
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| parse_value(flag, p.trim(), "number"))
        .collect();
    let out = out?;
    if out.is_empty() {
        Err(UsageError::new(flag, format!("expects at least one value, got '{raw}'")))
    } else {
        Ok(out)
    }
}

/// Parses a `--design` value (`1..=5`) into the paper design it names.
///
/// # Errors
///
/// [`UsageError`] outside `1..=5`.
pub fn parse_design(flag: &str, raw: &str) -> Result<dwt_arch::designs::Design, UsageError> {
    let n: usize = parse_value(flag, raw, "design number (1..=5)")?;
    dwt_arch::designs::Design::all()
        .get(n.wrapping_sub(1))
        .copied()
        .ok_or_else(|| UsageError::new(flag, format!("expects 1..=5, got {n}")))
}

/// The command-line flags every campaign binary shares, parsed once.
///
/// [`CampaignArgs::parse`] consumes `--seed`, `--json`, `--max-sdc`,
/// `--min-availability` and `--backend` from the process arguments and
/// hands everything else back in [`CampaignArgs::rest`] (order
/// preserved) for the binary's own flag loop. The gate flags carry
/// uniform semantics across all binaries via
/// [`CampaignArgs::enforce_gates`]: print one line per configured gate,
/// exit with [`EXIT_GATE`] if any failed. Bad invocations exit with
/// [`EXIT_USAGE`] instead, so the two failure modes are distinguishable
/// from the exit code alone.
#[derive(Debug, Clone, Default)]
pub struct CampaignArgs {
    /// `--seed S`: campaign seed override (applied by the binary).
    pub seed: Option<u64>,
    /// `--json PATH`: write the full machine-readable report here.
    pub json: Option<String>,
    /// `--max-sdc N`: fail the process when SDC escapes exceed N.
    pub max_sdc: Option<usize>,
    /// `--min-availability F`: fail when availability falls below F.
    pub min_availability: Option<f64>,
    /// `--backend event|compiled|jit`: which engine runs the campaign.
    pub backend: dwt_rtl::engine::Backend,
    /// Unconsumed arguments, in their original order.
    pub rest: Vec<String>,
}

impl CampaignArgs {
    /// Parses the shared flags out of the process arguments, exiting
    /// with [`EXIT_USAGE`] (after one line to stderr) when a shared
    /// flag is missing its value or the value fails to parse.
    #[must_use]
    pub fn parse() -> Self {
        Self::try_parse_from(std::env::args().skip(1)).unwrap_or_else(|e| e.exit())
    }

    /// [`CampaignArgs::parse`] over an explicit argument iterator,
    /// surfacing the usage error instead of exiting.
    ///
    /// # Errors
    ///
    /// [`UsageError`] when a shared flag is missing its value or the
    /// value fails to parse. Unrecognised arguments are not errors
    /// here — they land in [`CampaignArgs::rest`] for the binary's own
    /// flag loop to accept or reject.
    pub fn try_parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, UsageError> {
        let mut out = CampaignArgs::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--seed" => out.seed = Some(flag_value(&mut args, &flag, "seed")?),
                "--json" => {
                    out.json =
                        Some(args.next().ok_or_else(|| UsageError::new(&flag, "expects a path"))?);
                }
                "--max-sdc" => out.max_sdc = Some(flag_value(&mut args, &flag, "count")?),
                "--min-availability" => {
                    out.min_availability = Some(flag_value(&mut args, &flag, "fraction")?);
                }
                "--backend" => {
                    let expected = dwt_rtl::engine::Backend::EXPECTED;
                    let raw = args
                        .next()
                        .ok_or_else(|| UsageError::new(&flag, format!("expects {expected}")))?;
                    out.backend = raw.parse().map_err(|_| {
                        UsageError::new(&flag, format!("expects {expected}, got '{raw}'"))
                    })?;
                }
                _ => out.rest.push(flag),
            }
        }
        Ok(out)
    }

    /// Writes the rendered report to the `--json` path, if one was
    /// given. The renderer only runs when the flag is present.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json_with<F: FnOnce() -> String>(&self, render: F) {
        if let Some(path) = &self.json {
            std::fs::write(path, render()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("\nfull report written to {path}");
        }
    }

    /// Enforces the `--max-sdc` / `--min-availability` gates with the
    /// uniform pass/fail lines, exiting with [`EXIT_GATE`] if any gate
    /// failed. Binaries without an availability quantity pass `None`.
    pub fn enforce_gates(&self, sdc_escapes: usize, min_availability: Option<f64>) {
        let mut failed = false;
        if let Some(max) = self.max_sdc {
            if sdc_escapes > max {
                eprintln!("FAIL: {sdc_escapes} SDC escapes exceed --max-sdc {max}");
                failed = true;
            } else {
                println!("\nSDC gate: {sdc_escapes} escapes ≤ {max} — ok");
            }
        }
        if let Some(floor) = self.min_availability {
            let avail =
                min_availability.expect("--min-availability gate needs an availability quantity");
            if avail < floor {
                eprintln!("FAIL: minimum availability {avail:.4} below --min-availability {floor}");
                failed = true;
            } else {
                println!("availability gate: min {avail:.4} ≥ {floor} — ok");
            }
        }
        if failed {
            std::process::exit(EXIT_GATE);
        }
    }
}

fn injection_error(
    variant: &str,
    fault: Option<&FaultSpec>,
    source: dwt_rtl::Error,
) -> dwt_arch::Error {
    dwt_arch::Error::Injection {
        design: variant.to_owned(),
        fault: fault.map_or_else(|| "<clean run>".to_owned(), ToString::to_string),
        source,
    }
}

/// Streams `pairs` through the datapath (optionally under a fault),
/// returning the emitted coefficient pairs and whether the variant's
/// `fault_detect` port (if any) ever rose.
fn run_stream_with_fault<E: Engine>(
    built: &BuiltDatapath,
    pairs: &[(i64, i64)],
    fault: Option<&FaultSpec>,
) -> Result<(Vec<(i64, i64)>, bool), dwt_rtl::Error> {
    let mut sim = E::from_netlist(built.netlist.clone())?;
    if let Some(f) = fault {
        sim.inject(f)?;
    }
    let has_detect = built.netlist.port("fault_detect").is_ok();
    let mut detected = false;
    let mut out = Vec::with_capacity(pairs.len());
    // One extra flush cycle so an upset in the last register layer still
    // reaches the parity checker before the run ends.
    for t in 0..pairs.len() + built.latency + 1 {
        let (e, o) = if t < pairs.len() { pairs[t] } else { (0, 0) };
        sim.set_input("in_even", e)?;
        sim.set_input("in_odd", o)?;
        sim.try_tick()?;
        if has_detect && sim.peek("fault_detect")? != 0 {
            detected = true;
        }
        if t + 1 > built.latency && out.len() < pairs.len() {
            out.push((sim.peek("low")?, sim.peek("high")?));
        }
    }
    Ok((out, detected))
}

/// Runs a seeded single-event-upset campaign against one variant, on
/// the simulation backend named by `E` (the backend must be turbofished
/// at the call site: `run_campaign::<Simulator>(…)`).
///
/// Every fault is a [`FaultSpec::BitFlip`] on a register bit drawn
/// uniformly from the variant's own flip-flop population (so a TMR
/// variant is hit in individual replicas, exactly the fault its voter
/// exists to mask), at a cycle drawn from the whole run.
///
/// # Errors
///
/// Returns [`dwt_arch::Error::Injection`] (wrapped in [`DwtError`])
/// naming the variant and fault if a spec fails to resolve or a
/// simulation diverges.
///
/// # Panics
///
/// Panics if the netlist contains no registers (no fault sites).
pub fn run_campaign<E: Engine>(
    variant: &str,
    built: &BuiltDatapath,
    cfg: &CampaignConfig,
) -> Result<CampaignReport, DwtError> {
    let pairs = still_tone_pairs(cfg.pairs, cfg.seed);
    let (clean, _) = run_stream_with_fault::<E>(built, &pairs, None)
        .map_err(|e| injection_error(variant, None, e))?;

    let registers: Vec<(String, usize)> = built
        .netlist
        .cells()
        .iter()
        .filter_map(|c| match &c.kind {
            CellKind::Register { q, .. } => Some((c.name.clone(), q.width())),
            _ => None,
        })
        .collect();
    assert!(!registers.is_empty(), "{variant}: no registers to upset");

    let total_cycles = (cfg.pairs + built.latency + 1) as u64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut records = Vec::with_capacity(cfg.faults);
    for _ in 0..cfg.faults {
        let (register, width) = registers[rng.gen_range(0..registers.len())].clone();
        let bit = rng.gen_range(0..width);
        let cycle = rng.gen_range(0..total_cycles);
        let fault = FaultSpec::BitFlip { register, bit, cycle };
        let (outputs, detected) = run_stream_with_fault::<E>(built, &pairs, Some(&fault))
            .map_err(|e| injection_error(variant, Some(&fault), e))?;
        let outcome = if detected {
            Outcome::Detected
        } else if outputs == clean {
            Outcome::Masked
        } else {
            Outcome::Sdc
        };
        records.push(FaultRecord { fault, outcome });
    }

    Ok(CampaignReport {
        variant: variant.to_owned(),
        les: map_netlist(&built.netlist).le_count(),
        register_bits: built.netlist.census().register_bits,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwt_arch::designs::Design;
    use dwt_rtl::compile::CompiledEngine;
    use dwt_rtl::sim::Simulator;

    #[test]
    fn campaigns_are_deterministic() {
        let built = Design::D2.build().unwrap();
        let cfg = CampaignConfig { faults: 6, seed: 7, pairs: 24 };
        let a = run_campaign::<Simulator>("Design 2", &built, &cfg).unwrap();
        let b = run_campaign::<Simulator>("Design 2", &built, &cfg).unwrap();
        assert_eq!(a, b);
        let c = run_campaign::<Simulator>("Design 2", &built, &CampaignConfig { seed: 8, ..cfg })
            .unwrap();
        assert_ne!(a.records, c.records, "different seeds, different faults");
    }

    #[test]
    fn backends_classify_faults_identically() {
        let built = Design::D2.build().unwrap();
        let cfg = CampaignConfig { faults: 8, seed: 11, pairs: 24 };
        let event = run_campaign::<Simulator>("Design 2", &built, &cfg).unwrap();
        let compiled = run_campaign::<CompiledEngine>("Design 2", &built, &cfg).unwrap();
        assert_eq!(event, compiled, "same faults, same outcomes on both backends");
    }

    #[test]
    fn shared_args_split_off_their_flags() {
        let args = CampaignArgs::try_parse_from(
            [
                "--faults",
                "9",
                "--seed",
                "41",
                "--backend",
                "compiled",
                "--max-sdc",
                "0",
                "--min-availability",
                "0.5",
                "--json",
                "out.json",
                "--tile",
                "8",
            ]
            .map(str::to_owned),
        )
        .unwrap();
        assert_eq!(args.seed, Some(41));
        assert_eq!(args.backend, dwt_rtl::engine::Backend::Compiled);
        assert_eq!(args.max_sdc, Some(0));
        assert_eq!(args.min_availability, Some(0.5));
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.rest, ["--faults", "9", "--tile", "8"]);
    }

    #[test]
    fn bad_shared_flags_are_typed_usage_errors_not_panics() {
        let missing = CampaignArgs::try_parse_from(["--seed".to_owned()]).unwrap_err();
        assert_eq!(missing.flag, "--seed");
        let unparsable =
            CampaignArgs::try_parse_from(["--seed", "banana"].map(str::to_owned)).unwrap_err();
        assert!(unparsable.message.contains("banana"), "{unparsable}");
        let backend =
            CampaignArgs::try_parse_from(["--backend", "quantum"].map(str::to_owned)).unwrap_err();
        assert!(backend.message.contains("quantum"), "{backend}");
    }

    #[test]
    fn flag_helpers_parse_and_reject() {
        let mut args = ["8"].iter().map(|s| (*s).to_owned());
        let n: usize = flag_value(&mut args, "--tile", "count").unwrap();
        assert_eq!(n, 8);
        let mut empty = std::iter::empty::<String>();
        let err = flag_value::<usize, _, _>(&mut empty, "--tile", "count").unwrap_err();
        assert_eq!(err.flag, "--tile");

        assert_eq!(parse_parts::<u64>("--stuck-lane", "1, 900", 2).unwrap(), vec![1, 900]);
        assert!(parse_parts::<u64>("--stuck-lane", "1", 2).is_err());
        assert!(parse_parts::<u64>("--stuck-lane", "1,x", 2).is_err());

        assert_eq!(parse_list::<u64>("--sweep", "16,8,4").unwrap(), vec![16, 8, 4]);
        assert!(parse_list::<u64>("--sweep", "").is_err());

        assert_eq!(parse_design("--design", "3").unwrap(), dwt_arch::designs::Design::D3);
        assert!(parse_design("--design", "0").is_err());
        assert!(parse_design("--design", "6").is_err());
        assert!(parse_design("--design", "three").is_err());
    }

    #[test]
    fn outcome_counts_partition_the_runs() {
        let built = Design::D2.build().unwrap();
        let cfg = CampaignConfig { faults: 10, seed: 3, pairs: 24 };
        let report = run_campaign::<Simulator>("Design 2", &built, &cfg).unwrap();
        assert_eq!(report.records.len(), 10);
        assert_eq!(
            report.count(Outcome::Masked)
                + report.count(Outcome::Detected)
                + report.count(Outcome::Sdc),
            10
        );
        assert!(report.les > 0);
        assert!(report.register_bits > 0);
    }
}

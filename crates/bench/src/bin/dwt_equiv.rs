//! Formal equivalence gate over the paper's netlists: SAT-sweeping
//! sequential equivalence for every design across the three standing
//! obligation families, plus the mutation campaign that validates the
//! checker itself.
//!
//! Usage: `dwt_equiv [--all-designs | --design N...]
//! [--checker backend|hardening|shiftadd|partition]...
//! [--hardening none|tmr|parity]...
//! [--campaign] [--min-kill-rate PCT] [--deny] [--json]`
//!
//! * `--all-designs` — run every design (the default when no
//!   `--design` is given; the flag exists so CI invocations read as
//!   what they are).
//! * `--design N` — restrict to design `N` (1–5, repeatable).
//! * `--checker FAMILY` — restrict to one obligation family
//!   (repeatable; default all four): `backend` proves the compiled
//!   op-program against its source netlist, `hardening` proves
//!   TMR/parity variants against the base design plus the
//!   voter/detector integrity obligations, `shiftadd` proves the
//!   recoded adder trees against behavioral constant multiplication,
//!   `partition` proves `stitch(partition(n))` against the unsplit
//!   netlist for every shard count the partition campaign sweeps.
//! * `--hardening VARIANT` — restrict backend/hardening cases to one
//!   hardening variant (repeatable).
//! * `--campaign` — also run the mutation campaign on the selected
//!   designs and gate on `--min-kill-rate` (default 95%).
//! * `--deny` — exit 1 when any obligation fails (or the campaign
//!   misses the kill-rate floor); without it the gate only reports.
//! * `--json` — machine-readable report on stdout instead of text.
//!
//! Exit codes: 0 all obligations hold, 1 gate failure, 2 usage error.

use std::fmt::Write as _;
use std::process::ExitCode;

use dwt_arch::datapath::Hardening;
use dwt_arch::designs::Design;
use dwt_bench::campaign::{flag_value, unknown_flag, UsageError};
use dwt_equiv::{
    backend_case, backend_matrix, hardening_case, hardening_matrix, partition_case,
    partition_matrix, run_campaign, shift_add_case, shift_add_matrix, CampaignReport, CaseReport,
    Checker, EquivOptions,
};
use dwt_lint::diag::json_string;

struct Args {
    designs: Vec<Design>,
    checkers: Vec<Checker>,
    hardenings: Vec<Hardening>,
    campaign: bool,
    min_kill_rate: f64,
    deny: bool,
    json: bool,
}

fn parse_checker(raw: &str) -> Result<Checker, UsageError> {
    match raw {
        "backend" => Ok(Checker::Backend),
        "hardening" => Ok(Checker::Hardening),
        "shiftadd" => Ok(Checker::ShiftAdd),
        "partition" => Ok(Checker::Partition),
        other => Err(UsageError::new("--checker", format!("unknown family '{other}'"))),
    }
}

fn parse_hardening(raw: &str) -> Result<Hardening, UsageError> {
    match raw {
        "none" => Ok(Hardening::None),
        "tmr" => Ok(Hardening::Tmr),
        "parity" => Ok(Hardening::Parity),
        other => Err(UsageError::new("--hardening", format!("unknown variant '{other}'"))),
    }
}

fn parse_args() -> Result<Args, UsageError> {
    let mut parsed = Args {
        designs: Vec::new(),
        checkers: Vec::new(),
        hardenings: Vec::new(),
        campaign: false,
        min_kill_rate: 95.0,
        deny: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--all-designs" => parsed.designs = Design::all().to_vec(),
            "--design" => {
                let n: usize = flag_value(&mut args, "--design", "design number 1-5")?;
                let all = Design::all();
                let d = n
                    .checked_sub(1)
                    .and_then(|i| all.get(i))
                    .ok_or_else(|| UsageError::new("--design", format!("no design {n}")))?;
                parsed.designs.push(*d);
            }
            "--checker" => {
                let s: String = flag_value(&mut args, "--checker", "obligation family")?;
                parsed.checkers.push(parse_checker(&s)?);
            }
            "--hardening" => {
                let s: String = flag_value(&mut args, "--hardening", "hardening variant")?;
                parsed.hardenings.push(parse_hardening(&s)?);
            }
            "--campaign" => parsed.campaign = true,
            "--min-kill-rate" => {
                parsed.min_kill_rate = flag_value(&mut args, "--min-kill-rate", "percentage")?;
            }
            "--deny" => parsed.deny = true,
            "--json" => parsed.json = true,
            other => return Err(unknown_flag(other)),
        }
    }
    if parsed.designs.is_empty() {
        parsed.designs = Design::all().to_vec();
    }
    if parsed.checkers.is_empty() {
        parsed.checkers =
            vec![Checker::Backend, Checker::Hardening, Checker::ShiftAdd, Checker::Partition];
    }
    if parsed.hardenings.is_empty() {
        parsed.hardenings = vec![Hardening::None, Hardening::Tmr, Hardening::Parity];
    }
    Ok(parsed)
}

fn selected_cases(args: &Args) -> Result<Vec<CaseReport>, dwt_equiv::EquivError> {
    let mut reports = Vec::new();
    let wants = |c: Checker| args.checkers.contains(&c);
    let design_in = |d: Design| args.designs.contains(&d);
    let hardening_in = |h: Hardening| args.hardenings.contains(&h);
    if wants(Checker::Backend) {
        for (d, h) in backend_matrix() {
            if design_in(d) && hardening_in(h) {
                reports.push(backend_case(d, h)?);
            }
        }
    }
    if wants(Checker::Hardening) {
        for (d, h) in hardening_matrix() {
            if design_in(d) && hardening_in(h) {
                reports.push(hardening_case(d, h)?);
            }
        }
    }
    // Shift-add cases are design-independent (Table 1 constants);
    // design filters do not apply.
    if wants(Checker::ShiftAdd) {
        for (name, coeff, recoding) in shift_add_matrix() {
            reports.push(shift_add_case(&name, coeff, recoding)?);
        }
    }
    if wants(Checker::Partition) {
        for (d, parts) in partition_matrix() {
            if design_in(d) {
                reports.push(partition_case(d, parts)?);
            }
        }
    }
    Ok(reports)
}

fn json_report(
    args: &Args,
    cases: &[CaseReport],
    campaign: Option<&CampaignReport>,
    failed: bool,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"deny\": {},", args.deny);
    let _ = writeln!(out, "  \"failed\": {failed},");
    out.push_str("  \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{ \"case\": {}, \"checker\": \"{}\", \"pass\": {}, \
             \"detail\": {} }}",
            json_string(&c.case),
            c.checker.name(),
            c.pass,
            json_string(&c.detail)
        );
    }
    out.push_str("\n  ]");
    if let Some(r) = campaign {
        let _ = write!(
            out,
            ",\n  \"campaign\": {{\n    \"applied\": {},\n    \"killed\": {},\n    \
             \"sat_only_kills\": {},\n    \"kill_rate\": {:.1},\n    \
             \"min_kill_rate\": {:.1},\n    \"outcomes\": [",
            r.applied,
            r.killed,
            r.sat_only_kills,
            r.kill_rate(),
            args.min_kill_rate
        );
        for (i, o) in r.outcomes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n      {{ \"mutant\": {}, \"applied\": {}, \"killed\": {}, \
                 \"killed_by\": {}, \"sim_caught\": {}, \"confirmed\": {}, \
                 \"detail\": {} }}",
                json_string(&o.mutant),
                o.applied,
                o.killed,
                o.killed_by.map_or_else(|| "null".to_owned(), |k| format!("\"{k}\"")),
                o.sim_caught,
                o.confirmed,
                json_string(&o.detail)
            );
        }
        out.push_str("\n    ]\n  }");
    }
    out.push_str("\n}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => e.exit(),
    };

    let cases = match selected_cases(&args) {
        Ok(cases) => cases,
        Err(e) => {
            eprintln!("equivalence run failed: {e}");
            return ExitCode::from(2);
        }
    };
    if cases.is_empty() && !args.campaign {
        eprintln!("no case matches the given filters");
        return ExitCode::from(2);
    }

    let campaign = if args.campaign {
        match run_campaign(&args.designs, &EquivOptions::default()) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!("mutation campaign failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let cases_failed = cases.iter().any(|c| !c.pass);
    let campaign_failed =
        campaign.as_ref().is_some_and(|r| r.applied == 0 || r.kill_rate() < args.min_kill_rate);
    let failed = cases_failed || campaign_failed;

    if args.json {
        println!("{}", json_report(&args, &cases, campaign.as_ref(), failed));
    } else {
        for c in &cases {
            let mark = if c.pass { "ok  " } else { "FAIL" };
            println!("{mark} {}: {}", c.case, c.detail);
        }
        if let Some(r) = &campaign {
            for o in &r.outcomes {
                let status = if !o.applied {
                    "n/a "
                } else if o.killed {
                    "kill"
                } else {
                    "MISS"
                };
                println!("{status} {}: {}", o.mutant, o.detail);
            }
            println!(
                "campaign: {}/{} killed ({:.1}%, floor {:.1}%), {} invisible to sampling",
                r.killed,
                r.applied,
                r.kill_rate(),
                args.min_kill_rate,
                r.sat_only_kills
            );
        }
        println!("{} case(s), gate {}", cases.len(), if failed { "FAILED" } else { "passed" });
    }

    if failed && args.deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_escapes_control_characters_and_quotes() {
        let args = Args {
            designs: Vec::new(),
            checkers: Vec::new(),
            hardenings: Vec::new(),
            campaign: false,
            min_kill_rate: 95.0,
            deny: true,
            json: true,
        };
        let case = CaseReport {
            case: "backend/design-1/none".to_owned(),
            checker: Checker::Backend,
            pass: false,
            detail: "line one\n\tsaid \"no\"".to_owned(),
            cex: None,
        };
        let json = json_report(&args, &[case], None, true);
        assert!(json.contains(r#""detail": "line one\n\tsaid \"no\"""#), "{json}");
        assert!(!json.contains('\t'), "a raw tab leaked into {json}");
    }
}

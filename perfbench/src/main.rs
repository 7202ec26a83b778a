//! `perfbench --workload job|synthetic|serve [--seed N] [--seconds S]
//! [--trace 0|1|all] …` — see `README.md` for every flag and metric.
//!
//! Prints the configuration, a human-readable metric table and, as the
//! last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use perfbench::config::Config;
use perfbench::report::result_line;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# config {}", cfg.to_json());
    let outcome = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.check.messages {
        eprintln!("perfbench: check failed: {m}");
    }
    let sections = cfg.sections();
    print!("{}", outcome.report.table(&sections));
    let c = &outcome.check;
    println!(
        "{}",
        result_line(
            c.failed == 0,
            c.attempted,
            c.failed,
            &outcome.report.selected(&sections)
        )
    );
    ExitCode::SUCCESS
}

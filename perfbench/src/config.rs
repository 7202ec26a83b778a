//! Command-line configuration. Everything the engine sees is generated
//! from these values; the run prints them (with `nproc`) before its
//! results.

use std::path::PathBuf;
use std::time::Duration;

use crate::report::{json_str, sections, MetricDef, TraceMode};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 33 JOB groups over the IMDB stand-in (planning-bound).
    Job,
    /// The §5.2 three-table Zipf join (execution-bound).
    Synthetic,
    /// Closed-loop SQL clients against an in-process `Server`.
    Serve,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "job" => Some(Workload::Job),
            "synthetic" => Some(Workload::Synthetic),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Job => "job",
            Workload::Synthetic => "synthetic",
            Workload::Serve => "serve",
        }
    }
}

/// Seed of the JOB query set. Fixed, so the data seed varies the data
/// without changing which 33 queries the suite is made of.
pub const JOB_QUERY_SEED: u64 = 42;
/// Input builds per run; `setup_s` takes their median.
pub const SETUP_REPS: usize = 3;
/// Fewest measured passes (rounds on `serve`) per run, whatever
/// `seconds` says.
pub const MIN_PASSES: usize = 3;
/// Fewest tagged requests per `serve` run, so p99 has at least ten
/// samples above it.
pub const MIN_REQUESTS: usize = 1_100;
/// Literal sets per `serve` statement shape.
pub const VARIANTS: usize = 4;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Seed of the generated data (and of the serve literals).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: TraceMode,
    /// IMDB stand-in scale (`job`, `serve`).
    pub scale: f64,
    /// Rows per synthetic table.
    pub rows: usize,
    /// Closed-loop client threads (`serve`).
    pub clients: usize,
    /// Engine workers, pinned for every session and the server pool.
    pub workers: usize,
    /// Machine parallelism, recorded with the results.
    pub nproc: usize,
    /// Where to write the benchmark's own spans (JSON lines).
    pub spans_out: Option<PathBuf>,
    /// JOB groups in the suite: all 33 unless a self-test shrinks it.
    pub groups: usize,
    /// Corrupt one reference row count (self-test of the checks).
    pub plant_mismatch: bool,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Config {
    /// Defaults for `workload`; engine workers and clients are pinned to
    /// `min(2, nproc)`.
    pub fn new(workload: Workload) -> Config {
        let nproc = nproc();
        Config {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: TraceMode::All,
            scale: 1.0,
            rows: 10_000,
            clients: nproc.min(2),
            workers: nproc.min(2),
            nproc,
            spans_out: None,
            groups: 33,
            plant_mismatch: false,
        }
    }

    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut flags: Vec<(&str, &str)> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.push((flag, value));
        }
        let workload = flags
            .iter()
            .find(|(f, _)| *f == "--workload")
            .map(|(_, v)| *v)
            .ok_or("--workload job|synthetic|serve is required")?;
        let workload =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
        let mut cfg = Config::new(workload);
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        for (flag, v) in flags {
            match flag {
                "--workload" => {}
                "--seed" => cfg.seed = num(flag, v)?,
                "--seconds" => cfg.seconds = num(flag, v)?,
                "--trace" => {
                    cfg.trace = match v {
                        "0" => TraceMode::Off,
                        "1" => TraceMode::On,
                        "all" => TraceMode::All,
                        _ => return Err(format!("--trace takes 0, 1 or all, not {v}")),
                    }
                }
                "--scale" => cfg.scale = num(flag, v)?,
                "--rows" => cfg.rows = num(flag, v)?,
                "--clients" => cfg.clients = num(flag, v)?,
                "--workers" => cfg.workers = num(flag, v)?,
                "--spans-out" => cfg.spans_out = Some(PathBuf::from(v)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".into());
        }
        if !(cfg.scale.is_finite() && cfg.scale > 0.0) || cfg.rows == 0 {
            return Err("--scale and --rows must be positive".into());
        }
        // Load and engine threads stay within the machine.
        cfg.clients = cfg.clients.clamp(1, cfg.nproc);
        cfg.workers = cfg.workers.clamp(1, cfg.nproc);
        Ok(cfg)
    }

    /// The metric sets this run reports.
    pub fn sections(&self) -> Vec<(&'static str, &'static [MetricDef])> {
        sections(self.trace, self.workload == Workload::Serve)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// One JSON object recording every input parameter and `nproc`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \
             \"rows\": {}, \"clients\": {}, \"workers\": {}, \"nproc\": {}, \"groups\": {}, \
             \"job_query_seed\": {JOB_QUERY_SEED}, \"setup_reps\": {SETUP_REPS}, \
             \"min_passes\": {MIN_PASSES}, \"min_requests\": {MIN_REQUESTS}, \
             \"variants\": {VARIANTS}, \"plant_mismatch\": {}}}",
            json_str(self.workload.name()),
            self.seed,
            self.seconds,
            json_str(match self.trace {
                TraceMode::Off => "0",
                TraceMode::On => "1",
                TraceMode::All => "all",
            }),
            self.scale,
            self.rows,
            self.clients,
            self.workers,
            self.nproc,
            self.groups,
            self.plant_mismatch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_arguments() {
        let cfg = Config::parse(&args("--workload job --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cfg.workload, Workload::Job);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.seconds, 3.0);
        assert_eq!(cfg.trace, TraceMode::On);
        assert!(cfg.workers >= 1 && cfg.workers <= cfg.nproc);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Config::parse(&args("--seed 1")).is_err());
        assert!(Config::parse(&args("--workload nope")).is_err());
        assert!(Config::parse(&args("--workload job --trace 2")).is_err());
        assert!(Config::parse(&args("--workload job --bogus 1")).is_err());
        assert!(Config::parse(&args("--workload job --seed")).is_err());
    }

    #[test]
    fn clamps_threads_to_nproc() {
        let cfg = Config::parse(&args("--workload serve --clients 999 --workers 999")).unwrap();
        assert_eq!(cfg.clients, cfg.nproc);
        assert_eq!(cfg.workers, cfg.nproc);
    }
}

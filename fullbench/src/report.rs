//! The run record and the one-line JSON result.

use std::fmt::Write as _;

/// The command line every workload receives.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check the run made passed.
    pub correct: bool,
    /// UPDATEs handed to the router in the timed phases.
    pub attempted: u64,
    /// UPDATEs the router refused.
    pub failed: u64,
    /// Phases run to their end.
    pub phases: u64,
    /// Checks made against the model and the method's properties.
    pub checks: u64,
    /// The first failed check, if any.
    pub error: Option<String>,
    /// Extra run-record lines: workload sizes and simulated results.
    record: Vec<(String, String)>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric; non-finite values (a ratio over nothing) read 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed check; the run goes on to its end.
    pub fn fail(&mut self, error: String) {
        if self.error.is_none() {
            eprintln!("check failed: {error}");
            self.error = Some(error);
        }
        self.correct = false;
    }

    /// Adds a `# key: value` line to the run record.
    pub fn record(&mut self, key: impl Into<String>, value: impl ToString) {
        self.record.push((key.into(), value.to_string()));
    }

    /// Prints the run record, then the result as the last line.
    pub fn print(&self, args: &Args) {
        println!("# workload: {}", args.workload);
        println!("# seed: {}", args.seed);
        println!("# seconds: {}", args.seconds);
        println!("# trace: {}", u8::from(args.trace));
        for (key, value) in &self.record {
            println!("# {key}: {value}");
        }
        println!("# host.nproc: {}", allowed_cpus());
        println!(
            "# host.available_parallelism: {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        println!("# host.cpu_model: {}", cpu_model());
        println!("# ops.updates_sent: {}", self.attempted);
        println!("# ops.updates_failed: {}", self.failed);
        println!("# ops.phases_completed: {}", self.phases);
        println!("# ops.checks_run: {}", self.checks);
        if let Some(error) = &self.error {
            println!("# error: {error}");
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpuinfo() -> String {
    std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default()
}

/// CPUs this process may run on, as `nproc` counts them.
fn allowed_cpus() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((lo, hi)) => Some(hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn cpu_model() -> String {
    cpuinfo()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

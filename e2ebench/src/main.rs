//! End-to-end analysis-job benchmark.
//!
//! Drives a release `scalana serve` daemon (2 workers) as a child process
//! from one closed-loop load generator (2 clients, one keep-alive
//! connection each), checks every served report against an in-process
//! reference analysis, and prints the end-to-end metrics by name and
//! unit. With `--trace 1` it also runs a traced window (client-side
//! spans plus the daemon's per-job spans) and an in-process replay of a
//! seeded sample of the workload's jobs through the public stage
//! functions, and prints the per-layer metrics instead.
//!
//! ```text
//! e2ebench --scalana <path> --workload cold_apps|warm_reuse|large_program
//!          --seed <n> --seconds <s> --trace 0|1 [--out <dir>] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.

mod daemon;
mod gen;
mod load;
mod reference;
mod replay;
mod rng;
mod trace;
mod workload;

use daemon::{Conn, Daemon, CLOCK_TICKS_PER_S};
use load::{Bodies, Record, Source};
use scalana_service::json::{parse, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Kind, Submission, Workload};

/// Daemon worker threads.
const WORKERS: usize = 2;
/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A window runs past `--seconds` until this many submissions were
/// made, so the faster half of its stretches (which the wall-clock
/// metrics are read from) holds about a hundred samples and the 90th
/// percentile at least ten samples beyond it.
const MIN_SAMPLES: usize = 200;
/// A stretch of a window is whole decks lasting at least this long.
const STRETCH_SECS: f64 = 1.0;
/// `rss_peak_mb` is the daemon's peak RSS once this many window
/// submissions were made: a fixed amount of work, so a faster daemon
/// that completes more jobs (and caches more, up to the caches' entry
/// bounds) in the same window does not read as a memory regression.
const RSS_AFTER_SAMPLES: usize = 100;
/// Daemon traces fetched after the traced window (bounds its cost).
const MAX_DAEMON_TRACES: usize = 200;

#[derive(Debug)]
struct Args {
    scalana: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scalana: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scalana" => args.scalana = PathBuf::from(value()?),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.scalana.as_os_str().is_empty() {
        return Err("--scalana <path to the scalana binary> is required".to_string());
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

// ------------------------------------------------------------- statistics

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `(0, 1]`); 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ------------------------------------------------------------- the daemon

/// Daemon counters a window reads before and after itself.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    submitted: f64,
    result_hits: f64,
    scale_hits: f64,
    scale_misses: f64,
    sim_runs: f64,
    cpu_ticks: f64,
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, o: Counters) -> Counters {
        Counters {
            submitted: self.submitted - o.submitted,
            result_hits: self.result_hits - o.result_hits,
            scale_hits: self.scale_hits - o.scale_hits,
            scale_misses: self.scale_misses - o.scale_misses,
            sim_runs: self.sim_runs - o.sim_runs,
            cpu_ticks: self.cpu_ticks - o.cpu_ticks,
        }
    }
}

fn counters(daemon: &Daemon, conn: &mut Conn) -> Result<Counters, String> {
    let stats = parse(&conn.get_ok("/v1/stats")?)?;
    let n = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = conn.get_ok("/v1/metrics")?;
    let sim_runs = metrics
        .lines()
        .find_map(|l| l.strip_prefix("scalana_sim_runs_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    Ok(Counters {
        submitted: n("submitted"),
        result_hits: n("cache_hits"),
        scale_hits: n("scale_hits"),
        scale_misses: n("scale_misses"),
        sim_runs,
        cpu_ticks: daemon.cpu_ticks()? as f64,
    })
}

/// A stretch of a window that starts and ends on deck boundaries.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    /// Index of its first submission in the window's records.
    first: usize,
    jobs: usize,
    secs: f64,
    cpu_ticks: f64,
}

impl Stretch {
    fn jobs_per_s(&self) -> f64 {
        ratio(self.jobs as f64, self.secs)
    }

    fn cpu_ms_per_job(&self) -> f64 {
        ratio(self.cpu_ticks * 1e3 / CLOCK_TICKS_PER_S, self.jobs as f64)
    }
}

/// The outcome of one timed window.
struct Window {
    records: Vec<Record>,
    /// The window cut into stretches of whole decks, each at least
    /// [`STRETCH_SECS`] long.
    stretches: Vec<Stretch>,
    delta: Counters,
    /// Daemon `VmHWM` in KiB after [`RSS_AFTER_SAMPLES`] submissions.
    hwm_kib: u64,
}

/// The wall-clock metrics of a window, read from the faster half of its
/// stretches (by jobs per second). A shared host slows a fixed CPU-bound
/// loop by up to half again, in phases of seconds to tens of seconds;
/// every stretch holds the workload's whole mix, so the faster half
/// measures the same work at the host's undisturbed pace, whichever share
/// of the window the slow phases took.
struct Summary {
    jobs_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    cpu_ms_per_job: f64,
    /// Latency samples in the faster half.
    samples: usize,
    /// Stretches kept, of the window's.
    kept: usize,
}

impl Window {
    fn latency_ms(record: &Record) -> f64 {
        // A failed submission misses any latency limit: it counts as the
        // client's whole timeout.
        match record.outcome {
            Ok(_) => ms(record.end - record.start),
            Err(_) => 60_000.0,
        }
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(Window::latency_ms).collect()
    }

    fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_err()).count()
    }

    fn secs(&self) -> f64 {
        self.stretches.iter().map(|c| c.secs).sum()
    }

    /// Stretch indices of the faster half (rounded up) by jobs per second.
    fn faster_half(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.stretches.len()).collect();
        order.sort_by(|&a, &b| {
            self.stretches[b]
                .jobs_per_s()
                .total_cmp(&self.stretches[a].jobs_per_s())
        });
        order.truncate(self.stretches.len().div_ceil(2));
        order.sort_unstable();
        order
    }

    fn summary(&self) -> Summary {
        let kept = self.faster_half();
        let (mut jobs, mut secs, mut ticks) = (0usize, 0.0, 0.0);
        let mut latencies = Vec::new();
        for &i in &kept {
            let c = self.stretches[i];
            jobs += c.jobs;
            secs += c.secs;
            ticks += c.cpu_ticks;
            latencies.extend(
                self.records[c.first..c.first + c.jobs]
                    .iter()
                    .map(Window::latency_ms),
            );
        }
        Summary {
            jobs_per_s: ratio(jobs as f64, secs),
            p50_ms: median(&latencies),
            p90_ms: percentile(&latencies, 0.9),
            cpu_ms_per_job: ratio(ticks * 1e3 / CLOCK_TICKS_PER_S, jobs as f64),
            samples: latencies.len(),
            kept: kept.len(),
        }
    }
}

/// One closed-loop window of at least `seconds` and `min_samples`
/// submissions, ending on a whole deck and continuing the workload's
/// stream from `seq`.
#[allow(clippy::too_many_arguments)]
fn window(
    daemon: &Daemon,
    conns: &mut [Conn],
    bodies: &Bodies,
    workload: &mut dyn Workload,
    seq: &mut usize,
    seconds: f64,
    min_samples: usize,
    traced: bool,
) -> Result<Window, String> {
    let deck = workload.deck();
    let before = counters(daemon, &mut conns[0])?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let stretch_secs = STRETCH_SECS.min(seconds);
    let mut issued = 0usize;
    let first_seq = *seq;
    let mut hwm_kib = None;
    // (start, first submission, CPU ticks) of each stretch.
    let mut bounds: Vec<(Instant, usize, f64)> = vec![(start, 0, before.cpu_ticks)];
    let source: Source<'_> = Mutex::new(Box::new(|| {
        let now = Instant::now();
        if issued == RSS_AFTER_SAMPLES {
            hwm_kib = daemon.hwm_kib().ok();
        }
        let (stretch_start, _, _) = bounds[bounds.len() - 1];
        if issued.is_multiple_of(deck)
            && issued > 0
            && (now - stretch_start).as_secs_f64() >= stretch_secs
        {
            // The window ends with a whole stretch, as it starts.
            if now >= deadline && issued >= min_samples {
                return None;
            }
            let ticks = daemon.cpu_ticks().unwrap_or(0) as f64;
            bounds.push((now, issued, ticks));
        }
        issued += 1;
        Some((first_seq + issued - 1, workload.next()))
    }));
    let records = load::drive(&daemon.addr, conns, &source, bodies, traced);
    drop(source);
    *seq = first_seq + records.len();
    let after = counters(daemon, &mut conns[0])?;
    let end = records.iter().map(|r| r.end).max().unwrap_or(start);
    bounds.push((end, records.len(), after.cpu_ticks));
    let stretches = bounds
        .windows(2)
        .map(|w| Stretch {
            first: w[0].1,
            jobs: w[1].1 - w[0].1,
            secs: (w[1].0 - w[0].0).as_secs_f64(),
            cpu_ticks: w[1].2 - w[0].2,
        })
        .filter(|c| c.jobs > 0)
        .collect();
    let hwm_kib = match hwm_kib {
        Some(kib) => kib,
        None => daemon.hwm_kib()?,
    };
    Ok(Window {
        records,
        stretches,
        delta: after - before,
        hwm_kib,
    })
}

/// Spawn a daemon and run the priming submissions; returns the daemon,
/// its two connections, the set-up time and the failed primings.
fn set_up(
    args: &Args,
    clients: usize,
    priming: &[Submission],
) -> Result<(Daemon, Vec<Conn>, f64, usize), String> {
    let started = Instant::now();
    let (daemon, first) = Daemon::spawn(&args.scalana, WORKERS)?;
    let mut conns = vec![first];
    while conns.len() < clients {
        conns.push(Conn::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?);
    }
    let mut queue = priming.iter().cloned().enumerate();
    let source: Source<'_> = Mutex::new(Box::new(move || queue.next()));
    let records = load::drive(&daemon.addr, &mut conns, &source, &Bodies::default(), false);
    let failed = records.iter().filter(|r| r.outcome.is_err()).count();
    Ok((daemon, conns, started.elapsed().as_secs_f64(), failed))
}

// ------------------------------------------------------------- the check

struct Check {
    wrong: usize,
    planted: usize,
    planted_top1: usize,
    /// Top-ranked root cause of each planted app that missed its
    /// expected location.
    misses: BTreeSet<String>,
    notes: Vec<String>,
}

fn check(records: &[&Record], bodies: &Bodies, analyses: &[workload::Analysis]) -> Check {
    let needed: Vec<usize> = records
        .iter()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.analysis)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let references = reference::compute_all(analyses, &needed, 2);
    let mut out = Check {
        wrong: 0,
        planted: 0,
        planted_top1: 0,
        misses: BTreeSet::new(),
        notes: Vec::new(),
    };
    // One verdict per distinct (analysis, served body): the served
    // top-ranked root cause, or why the report is wrong.
    let pairs: Vec<(usize, u64)> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|&key| (r.analysis, key)))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let verdicts = reference::par_map(&pairs, 2, |&(analysis, key)| {
        let body = bodies.get(key).ok_or("result body was not kept")?;
        match &references[analysis] {
            Some(Ok(expected)) => reference::verify(&body, expected),
            Some(Err(e)) => Err(format!("reference failed: {e}")),
            None => Err("no reference".to_string()),
        }
    });
    let verdicts: BTreeMap<(usize, u64), Result<Option<String>, String>> =
        pairs.into_iter().zip(verdicts).collect();
    for record in records {
        let Ok(key) = record.outcome else { continue };
        let verdict = &verdicts[&(record.analysis, key)];
        match verdict {
            Ok(top) if record.kind == Kind::Planted => {
                out.planted += 1;
                let analysis = &analyses[record.analysis];
                if top.as_deref() == analysis.expected_root_cause.as_deref() {
                    out.planted_top1 += 1;
                } else if let workload::Program::App { name, .. } = &analysis.program {
                    out.misses.insert(format!(
                        "{name} ranks {} first, expected {}",
                        top.as_deref().unwrap_or("nothing"),
                        analysis.expected_root_cause.as_deref().unwrap_or("?")
                    ));
                }
            }
            Ok(_) => {}
            Err(why) => {
                out.wrong += 1;
                if out.notes.len() < 5 {
                    out.notes.push(format!("submission {}: {why}", record.seq));
                }
            }
        }
    }
    out
}

// ------------------------------------------------------------- output

#[derive(Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn print_metrics(title: &str, metrics: &[Metric], notes: &BTreeMap<&str, String>) {
    println!("{title}");
    for m in metrics {
        let note = notes.get(m.name.as_str()).map(String::as_str).unwrap_or("");
        println!("  {:<28} {:>14.6} {:<8} {note}", m.name, m.value, m.unit);
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            Json::Num(value).render(),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

// ------------------------------------------------------------- the run

fn run(args: &Args) -> Result<(), String> {
    let epoch = Instant::now();
    let mut workload = workload::build(&args.workload, args.seed, args.smoke)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let priming = workload.priming();
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let min_samples = if args.smoke { 1 } else { MIN_SAMPLES };

    // Set-up, several times; the last daemon serves the windows.
    let mut setup_times = Vec::new();
    let mut failed_priming = 0;
    let mut serving = None;
    for rep in 0..repeats {
        let (daemon, mut conns, secs, failed) = set_up(args, workload.clients(), &priming)?;
        setup_times.push(secs);
        failed_priming += failed;
        if rep + 1 < repeats {
            daemon.shutdown(&mut conns[0]);
        } else {
            serving = Some((daemon, conns));
        }
    }
    let (daemon, mut conns) = serving.expect("at least one set-up");

    let mut seq = 0;
    let bodies = Bodies::default();
    let main = window(
        &daemon,
        &mut conns,
        &bodies,
        workload.as_mut(),
        &mut seq,
        args.seconds,
        min_samples,
        false,
    )?;
    let traced = if args.trace {
        Some(window(
            &daemon,
            &mut conns,
            &bodies,
            workload.as_mut(),
            &mut seq,
            args.seconds,
            min_samples,
            true,
        )?)
    } else {
        None
    };

    // Daemon-side spans of the traced window's jobs, fetched after it.
    let mut daemon_traces: BTreeMap<usize, Json> = BTreeMap::new();
    if let Some(traced) = &traced {
        for record in traced.records.iter().take(MAX_DAEMON_TRACES) {
            if let Some(job) = &record.job {
                if let Ok(body) = conns[0].get_ok(&format!("/v1/jobs/{job}/trace")) {
                    if let Ok(doc) = parse(&body) {
                        daemon_traces.insert(record.seq, doc);
                    }
                }
            }
        }
    }
    daemon.shutdown(&mut conns[0]);
    drop(conns);

    // Correctness, outside every timed window.
    let mut all: Vec<&Record> = main.records.iter().collect();
    if let Some(traced) = &traced {
        all.extend(traced.records.iter());
    }
    let check_started = Instant::now();
    let check = check(&all, &bodies, workload.analyses());
    let check_s = check_started.elapsed().as_secs_f64();
    for note in &check.notes {
        eprintln!("e2ebench: wrong report: {note}");
    }
    let attempted = all.len();
    let failed = all.iter().filter(|r| r.outcome.is_err()).count();
    for (seq, why) in all
        .iter()
        .filter_map(|r| r.outcome.as_ref().err().map(|why| (r.seq, why)))
        .take(5)
    {
        eprintln!("e2ebench: failed submission {seq}: {why}");
    }
    let resubmits: usize = all.iter().map(|r| r.resubmits).sum();
    let mut correct = check.wrong == 0 && failed == 0 && failed_priming == 0;

    // End-to-end metrics, from the untraced window.
    let latencies = main.latencies_ms();
    let n = latencies.len();
    let summary = main.summary();
    let e2e = vec![
        metric("jobs_per_s", summary.jobs_per_s, "jobs/s"),
        metric("job_p50_ms", summary.p50_ms, "ms"),
        metric("job_p90_ms", summary.p90_ms, "ms"),
        metric("cpu_ms_per_job", summary.cpu_ms_per_job, "ms"),
        metric("rss_peak_mb", main.hwm_kib as f64 / 1024.0, "MiB"),
        metric("setup_s", median(&setup_times), "s"),
    ];
    let mut notes: BTreeMap<&str, String> = BTreeMap::new();
    notes.insert(
        "jobs_per_s",
        format!(
            "(faster {} of {} stretches)",
            summary.kept,
            main.stretches.len()
        ),
    );
    notes.insert(
        "job_p90_ms",
        format!(
            "({} samples, {} beyond the 90th percentile)",
            summary.samples,
            beyond(summary.samples, 0.9)
        ),
    );
    notes.insert(
        "setup_s",
        format!("(median of {} set-ups)", setup_times.len()),
    );
    notes.insert(
        "rss_peak_mb",
        format!("(VmHWM after {} submissions)", RSS_AFTER_SAMPLES.min(n)),
    );
    let window_s = main.secs();
    println!(
        "workload {} seed {}: closed loop, {} client(s), {WORKERS} daemon workers, window {window_s:.2} s",
        args.workload,
        args.seed,
        workload.clients()
    );
    let mut shown = e2e.clone();
    shown.push(metric(
        "failed_share",
        ratio(main.failed() as f64, n as f64),
        "ratio",
    ));
    notes.insert("failed_share", format!("({} of {n})", main.failed()));
    shown.push(metric("wrong_reports", check.wrong as f64, "count"));
    notes.insert(
        "wrong_reports",
        format!("(of {} served reports checked)", attempted - failed),
    );
    if args.workload == "cold_apps" {
        shown.push(metric(
            "root_cause_top1_share",
            ratio(check.planted_top1 as f64, check.planted as f64),
            "ratio",
        ));
        notes.insert(
            "root_cause_top1_share",
            format!(
                "({} of {} planted-defect jobs)",
                check.planted_top1, check.planted
            ),
        );
    }
    print_metrics("end-to-end (tracing off):", &shown, &notes);
    if args.workload != "cold_apps" {
        println!(
            "  {:<28} {:>14} {:<8} (cold_apps only)",
            "root_cause_top1_share", "n/a", "ratio"
        );
    }
    for miss in &check.misses {
        println!("  planted root cause missed: {miss}");
    }
    // Each program's (or submission kind's) median latency on a row.
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (r, latency) in main.records.iter().zip(&latencies) {
        let label = match &workload.analyses()[r.analysis].program {
            workload::Program::App { name, params } if params.is_empty() => name.clone(),
            workload::Program::App { name, .. } => format!("{name}+delay"),
            workload::Program::Source { .. } => r.kind.name().to_string(),
        };
        groups.entry(label).or_default().push(*latency);
    }
    println!(
        "  median latency (ms): {}",
        groups
            .iter()
            .map(|(k, v)| format!("{k} {:.1}", median(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let kept = main.faster_half();
    println!(
        "  stretches (jobs/s, cpu ms/job; * = faster half): {}",
        main.stretches
            .iter()
            .enumerate()
            .map(|(i, c)| format!(
                "{:.2} {:.1}{}",
                c.jobs_per_s(),
                c.cpu_ms_per_job(),
                if kept.contains(&i) { "*" } else { "" }
            ))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &main.records {
        *kinds.entry(r.kind.name()).or_default() += 1;
    }
    println!("  results evicted before their fetch, resubmitted: {resubmits}");
    println!(
        "  reference check: {} distinct analyses in {check_s:.1} s (untimed)",
        all.iter()
            .map(|r| r.analysis)
            .collect::<BTreeSet<_>>()
            .len()
    );
    let d = main.delta;
    println!(
        "  submission mix: {}; result-cache hits {:.3}, profile-cache hits {:.3} of scales",
        kinds
            .iter()
            .map(|(k, v)| format!("{k} {:.3}", *v as f64 / n as f64))
            .collect::<Vec<_>>()
            .join(", "),
        ratio(d.result_hits, d.submitted),
        ratio(d.scale_hits, d.scale_hits + d.scale_misses),
    );

    let Some(traced) = traced else {
        println!("{}", json_line(correct, attempted, failed, &e2e));
        return Ok(());
    };

    // ---- traced run: client spans, daemon spans, in-process replay.
    let mut tracer = Tracer::new(epoch);
    let mut submit = Vec::new();
    let mut result = Vec::new();
    let mut result_bytes = Vec::new();
    let mut queue_wait = Vec::new();
    for record in &traced.records {
        let job = record
            .job
            .clone()
            .unwrap_or_else(|| format!("submission-{}", record.seq));
        let root = tracer.record(
            "client.job",
            &job,
            None,
            tracer.ns(record.start),
            tracer.ns(record.end),
        );
        for call in &record.calls {
            let name = format!("client.{}", call.name);
            tracer.record(
                &name,
                &job,
                Some(root),
                tracer.ns(call.start),
                tracer.ns(call.end),
            );
            match call.name {
                "submit" => submit.push(ms(call.end - call.start)),
                "result" => {
                    result.push(ms(call.end - call.start));
                    result_bytes.push(call.bytes as f64);
                }
                _ => {}
            }
        }
        if let Some(doc) = daemon_traces.get(&record.seq) {
            let base = tracer.ns(record.start);
            if let Some(spans) = doc.get("spans").and_then(Json::as_array) {
                for span in spans {
                    graft(&mut tracer, span, &job, root, base, &mut queue_wait);
                }
            }
        }
    }

    // In-process replay of a seeded sample: the distinct analyses of the
    // window's first deck (one of each kind of job the workload mixes).
    let deck_len = if args.smoke { 1 } else { workload.deck() };
    let mut sample = Vec::new();
    for r in main.records.iter().take(deck_len) {
        if !sample.contains(&r.analysis) {
            sample.push(r.analysis);
        }
    }
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut cover_ok = true;
    for (i, &analysis) in sample.iter().enumerate() {
        let layers = replay::replay(
            &mut tracer,
            &workload.analyses()[analysis],
            &format!("replay-{i}"),
        )?;
        let cover = ratio(layers["sum.covered_ms"], layers["job.wall_ms"]);
        if !(0.95..=1.0 + 1e-9).contains(&cover) {
            cover_ok = false;
            eprintln!("e2ebench: replay {i}: stage self-times cover {cover:.4} of the job");
        }
        for (k, v) in layers {
            *totals.entry(k).or_default() += v;
        }
    }
    correct &= cover_ok;
    let jobs = sample.len() as f64;
    let per_job = |k: &str| totals.get(k).copied().unwrap_or(0.0) / jobs;
    let total = |k: &str| totals.get(k).copied().unwrap_or(0.0);
    let mut layers = Vec::new();
    for (name, unit) in [("mpisim.sim_ms", "ms"), ("mpisim.events", "count")] {
        layers.push(metric(name, per_job(name), unit));
    }
    layers.push(metric(
        "mpisim.ns_per_event",
        ratio(total("mpisim.sim_ms") * 1e6, total("mpisim.events")),
        "ns",
    ));
    layers.push(metric("profile.hook_ms", per_job("profile.hook_ms"), "ms"));
    layers.push(metric(
        "profile.hook_share",
        ratio(total("profile.hook_ms"), total("job.wall_ms")),
        "ratio",
    ));
    for (name, unit) in [
        ("lang.parse_ms", "ms"),
        ("lang.stmts", "count"),
        ("graph.psg_build_ms", "ms"),
        ("graph.psg_vertices", "count"),
        ("profile.discovery_ms", "ms"),
        ("graph.ppg_assemble_ms", "ms"),
        ("profile.image_decode_ms", "ms"),
        ("profile.image_encode_ms", "ms"),
        ("profile.image_bytes", "bytes"),
        ("detect.non_scalable_ms", "ms"),
        ("detect.abnormal_ms", "ms"),
        ("detect.backtrack_ms", "ms"),
        ("detect.paths", "count"),
        ("core.render_ms", "ms"),
    ] {
        layers.push(metric(name, per_job(name), unit));
    }
    let td = traced.delta;
    let traced_summary = traced.summary();
    layers.extend([
        metric(
            "service.profile_hit_share",
            ratio(d.scale_hits, d.scale_hits + d.scale_misses),
            "ratio",
        ),
        metric(
            "service.result_hit_share",
            ratio(d.result_hits, d.submitted),
            "ratio",
        ),
        metric(
            "service.sim_runs_per_job",
            ratio(d.sim_runs, n as f64),
            "count",
        ),
        metric("service.submit_ms", median(&submit), "ms"),
        metric("service.queue_wait_ms", median(&queue_wait), "ms"),
        metric("service.result_ms", median(&result), "ms"),
        metric("service.result_bytes", median(&result_bytes), "bytes"),
        metric("job.replay_wall_ms", per_job("job.wall_ms"), "ms"),
        metric(
            "profile.top_scale_share",
            ratio(total("sum.top_scale_ms"), total("profile.profile_ms")),
            "ratio",
        ),
        metric(
            "job.static_detect_share",
            ratio(total("sum.static_detect_ms"), total("job.wall_ms")),
            "ratio",
        ),
        metric(
            "trace.cover_share",
            ratio(total("sum.covered_ms"), total("job.wall_ms")),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            ratio(traced_summary.p50_ms - summary.p50_ms, summary.p50_ms),
            "ratio",
        ),
    ]);
    let mut notes = BTreeMap::new();
    notes.insert(
        "trace.overhead_share",
        format!(
            "(traced window: {} submissions, {:.3} jobs/s, {:.1} sim runs/job)",
            traced.records.len(),
            traced_summary.jobs_per_s,
            ratio(td.sim_runs, traced.records.len() as f64)
        ),
    );
    notes.insert(
        "job.replay_wall_ms",
        format!("(replayed {} jobs in-process)", sample.len()),
    );
    print_metrics("per-layer (traced run):", &layers, &notes);

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    println!("{}", json_line(correct, attempted, failed, &layers));
    Ok(())
}

/// Record a daemon span (and its children) under the client's job span;
/// daemon offsets count from the submission, as does `base`.
fn graft(
    tracer: &mut Tracer,
    span: &Json,
    job: &str,
    parent: usize,
    base: u64,
    queue_wait: &mut Vec<f64>,
) {
    let num = |key: &str| span.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
    let start = base + num("start_ns");
    let duration = num("duration_ns");
    if name == "queue_wait" {
        queue_wait.push(duration as f64 / 1e6);
    }
    let id = tracer.record(
        &format!("daemon.{name}"),
        job,
        Some(parent),
        start,
        start + duration,
    );
    if let Some(children) = span.get("children").and_then(Json::as_array) {
        for child in children {
            graft(tracer, child, job, id, base, queue_wait);
        }
    }
}

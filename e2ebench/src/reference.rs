//! The correctness check: every served report against an untimed
//! in-process `scalana_core` analysis of the same (program, scales,
//! config). Two comparisons: the served report and runs must equal the
//! reference rendered through the daemon's canonical JSON views, and
//! the diagnosis facts read back from the served JSON must equal those
//! taken here from the reference's own data structures — so a defect in
//! the JSON views, which the first comparison shares, shows as well.

use crate::workload::{Analysis, Program};
use scalana_core::{analyze, profile_one_scale, RunSummary, ScalAnaConfig};
use scalana_detect::{detect, DetectionReport};
use scalana_graph::{build_psg, Ppg, Psg};
use scalana_profile::recorder::discover_indirect_calls;
use scalana_service::json::{parse, Json};
use scalana_service::jsonify::run_summary_to_json;
use scalana_service::report_to_json;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The expected served documents of one analysis.
#[derive(Debug, Clone)]
pub struct Reference {
    pub report: String,
    pub runs: String,
    pub facts: String,
}

/// The program and the effective configuration of an analysis, exactly
/// as the daemon derives them from a submission: defaults, the app's
/// machine model for built-in apps, then the request's overrides.
pub fn resolve(analysis: &Analysis) -> Result<(scalana_lang::Program, ScalAnaConfig), String> {
    let mut config = ScalAnaConfig::default();
    let program = match &analysis.program {
        Program::App { name, params } => {
            let app = scalana_apps::by_name(name).ok_or_else(|| format!("unknown app {name}"))?;
            config.machine = app.machine.clone();
            for (k, v) in params {
                config.params.insert(k.clone(), *v);
            }
            app.program
        }
        Program::Source { name, text } => {
            scalana_lang::parse_program(name, text).map_err(|e| e.to_string())?
        }
    };
    if let Some(thd) = analysis.abnorm_thd {
        config.detect.abnorm_thd = thd;
    }
    if let Some(top) = analysis.top {
        config.detect.top_k = top;
    }
    if let Some(depth) = analysis.max_loop_depth {
        config.psg.max_loop_depth = depth;
    }
    Ok((program, config))
}

fn render(report: &DetectionReport, runs: &[RunSummary]) -> Reference {
    Reference {
        report: report_to_json(report).render(),
        runs: Json::Arr(runs.iter().map(run_summary_to_json).collect()).render(),
        facts: facts_of_reference(report, runs),
    }
}

/// A number as both sides print it: shortest round-trip form, zero as
/// `0`, non-finite as `null` (JSON has no such numbers).
fn num(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v}")
    }
}

/// The diagnosis as a user reads it — what was found where, how the
/// root causes rank, the backtracking paths and the per-scale runs —
/// one line per item, from the reference's data structures.
fn facts_of_reference(report: &DetectionReport, runs: &[RunSummary]) -> String {
    let mut out = String::new();
    for n in &report.non_scalable {
        let _ = writeln!(
            out,
            "non_scalable {} {} {} {}",
            n.vertex,
            n.location,
            num(n.fit.slope),
            num(n.time_fraction)
        );
    }
    for a in &report.abnormal {
        let _ = writeln!(
            out,
            "abnormal {} {} {:?} {}",
            a.vertex,
            a.location,
            a.ranks,
            num(a.ratio)
        );
    }
    for c in &report.root_causes {
        let _ = writeln!(
            out,
            "root_cause {} {} {} {} {} {}",
            c.vertex,
            c.kind,
            c.location,
            c.func,
            c.path_count,
            num(c.score)
        );
    }
    for p in &report.paths {
        let _ = write!(out, "path {} {}", p.root_cause_idx, p.confident);
        for step in &p.steps {
            let _ = write!(
                out,
                " {}:{}:{}:{}",
                step.rank, step.vertex, step.location, step.via_comm
            );
        }
        out.push('\n');
    }
    for r in runs {
        let _ = writeln!(
            out,
            "run {} {} {} {} {}",
            r.nprocs,
            num(r.total_time),
            r.storage_bytes,
            r.sample_count,
            r.comm_edges
        );
    }
    out
}

/// [`facts_of_reference`] read back from a served result document by
/// field name; a missing field prints as `?` and so never matches.
fn facts_of_served(doc: &Json) -> String {
    fn items<'a>(parent: Option<&'a Json>, key: &str) -> &'a [Json] {
        parent
            .and_then(|p| p.get(key))
            .and_then(Json::as_array)
            .unwrap_or(&[])
    }
    let text = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Null) => "null".to_string(),
        Some(v) => v.as_f64().map_or("?".to_string(), num),
        None => "?".to_string(),
    };
    let ranks = |item: &Json| {
        let ranks: Vec<String> = item
            .get("ranks")
            .and_then(Json::as_array)
            .map(|r| {
                r.iter()
                    .map(|v| v.as_f64().map_or("?".to_string(), num))
                    .collect()
            })
            .unwrap_or_default();
        format!("[{}]", ranks.join(", "))
    };
    let report = doc.get("report");
    let mut out = String::new();
    for n in items(report, "non_scalable") {
        let f = |k| text(n, k);
        let _ = writeln!(
            out,
            "non_scalable {} {} {} {}",
            f("vertex"),
            f("location"),
            f("slope"),
            f("time_fraction")
        );
    }
    for a in items(report, "abnormal") {
        let f = |k| text(a, k);
        let _ = writeln!(
            out,
            "abnormal {} {} {} {}",
            f("vertex"),
            f("location"),
            ranks(a),
            f("ratio")
        );
    }
    for c in items(report, "root_causes") {
        let f = |k| text(c, k);
        let _ = writeln!(
            out,
            "root_cause {} {} {} {} {} {}",
            f("vertex"),
            f("kind"),
            f("location"),
            f("func"),
            f("path_count"),
            f("score")
        );
    }
    for p in items(report, "paths") {
        let _ = write!(
            out,
            "path {} {}",
            text(p, "root_cause_idx"),
            text(p, "confident")
        );
        for step in items(Some(p), "steps") {
            let f = |k| text(step, k);
            let _ = write!(
                out,
                " {}:{}:{}:{}",
                f("rank"),
                f("vertex"),
                f("location"),
                f("via_comm")
            );
        }
        out.push('\n');
    }
    for r in items(Some(doc), "runs") {
        let f = |k| text(r, k);
        let _ = writeln!(
            out,
            "run {} {} {} {} {}",
            f("nprocs"),
            f("total_time"),
            f("storage_bytes"),
            f("sample_count"),
            f("comm_edges")
        );
    }
    out
}

/// Refined PSGs and per-scale profiles (as run summaries and PPGs)
/// shared between the analyses of one inline program. The stages are
/// pure functions of these keys, and `scalana_core` pins that profiling
/// scales one at a time and assembling them equals a whole `analyze`
/// byte for byte; sharing them keeps the check affordable for
/// workloads with thousands of distinct analyses over a few hundred
/// programs, most differing only in detection knobs.
#[derive(Default)]
struct Memo {
    /// By (program, discovery scale).
    psgs: Mutex<HashMap<(u64, usize), Arc<Psg>>>,
    /// By (program, discovery scale, scale).
    scales: Mutex<HashMap<(u64, usize, usize), Arc<ProfiledScale>>>,
}

/// One profiled scale: its run summary and its PPG.
type ProfiledScale = (RunSummary, Ppg);

fn compute(analysis: &Analysis, memo: &Memo) -> Result<Reference, String> {
    let (program, config) = resolve(analysis)?;
    let scales = &analysis.scales;
    // Only inline programs under the default profile configuration share
    // stages (detection knobs do not enter a profile).
    let (Program::Source { name, text }, None) = (&analysis.program, analysis.max_loop_depth)
    else {
        let result = analyze(&program, scales, &config).map_err(|e| e.to_string())?;
        return Ok(render(&result.report, &result.runs));
    };
    let mut h = DefaultHasher::new();
    (name, text).hash(&mut h);
    let key = h.finish();
    let discovery = scales[0];
    let cached = memo
        .psgs
        .lock()
        .expect("memo lock")
        .get(&(key, discovery))
        .cloned();
    let psg = match cached {
        Some(psg) => psg,
        None => {
            let mut psg = build_psg(&program, &config.psg);
            discover_indirect_calls(&program, &mut psg, discovery).map_err(|e| e.to_string())?;
            let psg = Arc::new(psg);
            memo.psgs
                .lock()
                .expect("memo lock")
                .insert((key, discovery), Arc::clone(&psg));
            psg
        }
    };
    let mut per_scale = Vec::with_capacity(scales.len());
    for &nprocs in scales {
        let slot = (key, discovery, nprocs);
        let cached = memo.scales.lock().expect("memo lock").get(&slot).cloned();
        let entry = match cached {
            Some(entry) => entry,
            None => {
                let data = profile_one_scale(&program, &psg, &config, nprocs)
                    .map_err(|e| e.to_string())?;
                let summary = RunSummary::of_profile(nprocs, &data);
                let entry = Arc::new((summary, data.into_ppg(Arc::clone(&psg))));
                memo.scales
                    .lock()
                    .expect("memo lock")
                    .insert(slot, Arc::clone(&entry));
                entry
            }
        };
        per_scale.push(entry);
    }
    let runs: Vec<RunSummary> = per_scale.iter().map(|e| e.0.clone()).collect();
    let ppgs: Vec<&Ppg> = per_scale.iter().map(|e| &e.1).collect();
    Ok(render(&detect(&ppgs, &config.detect), &runs))
}

/// `f` over `items` on `threads` threads; results in item order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let out: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                out.lock().expect("result slot lock")[i] = Some(result);
            });
        }
    });
    out.into_inner()
        .expect("result slot lock")
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

/// References for the analyses in `needed`, on `threads` threads,
/// indexed by analysis.
pub fn compute_all(
    analyses: &[Analysis],
    needed: &[usize],
    threads: usize,
) -> Vec<Option<Result<Reference, String>>> {
    let memo = Memo::default();
    let computed = par_map(needed, threads, |&a| compute(&analyses[a], &memo));
    let mut out = vec![None; analyses.len()];
    for (&a, reference) in needed.iter().zip(computed) {
        out[a] = Some(reference);
    }
    out
}

/// Check one served result body against its reference: `Ok` with the
/// served top-ranked root cause, or why the report is wrong.
pub fn verify(body: &[u8], expected: &Reference) -> Result<Option<String>, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("result is not UTF-8: {e}"))?;
    let doc = parse(text).map_err(|e| format!("undecodable result: {e}"))?;
    if facts_of_served(&doc) != expected.facts {
        return Err("the diagnosis differs from the reference".to_string());
    }
    if !matches_exactly(body, expected) {
        let rendered = |key: &str| doc.get(key).map(Json::render).unwrap_or_default();
        if rendered("report") != expected.report || rendered("runs") != expected.runs {
            return Err("the served JSON differs from the reference's canonical form".to_string());
        }
    }
    Ok(doc
        .get("report")
        .and_then(|r| r.get("root_causes"))
        .and_then(Json::as_array)
        .and_then(|causes| causes.first())
        .and_then(|cause| cause.get("location"))
        .and_then(Json::as_str)
        .map(str::to_string))
}

/// Whether the body holds the reference's canonical report and runs
/// fragments byte for byte, in the daemon's result envelope.
fn matches_exactly(body: &[u8], expected: &Reference) -> bool {
    const REPORT: &[u8] = b"\"report\":";
    let Some(at) = body.windows(REPORT.len()).position(|w| w == REPORT) else {
        return false;
    };
    let rest = &body[at + REPORT.len()..];
    let Some(rest) = rest.strip_prefix(expected.report.as_bytes()) else {
        return false;
    };
    let Some(rest) = rest.strip_prefix(b",\"runs\":".as_slice()) else {
        return false;
    };
    rest.starts_with(expected.runs.as_bytes())
}

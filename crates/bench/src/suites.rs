//! The Criterion benchmark suites, as plain functions.
//!
//! Each `benches/*.rs` harness delegates here, and the `perfgate` runner
//! calls the same functions in-process to collect machine-readable
//! medians — one definition, two consumers, so the committed
//! `BENCH_*.json` trajectory always measures exactly what `cargo bench`
//! runs.

use criterion::{BenchmarkId, Criterion};
use scalana_api::paths;
use scalana_core::{analyze_app, profile_one_scale, refined_psg, ScalAnaConfig};
use scalana_detect::{detect, DetectConfig};
use scalana_graph::{build_psg, Ppg, PsgOptions};
use scalana_lang::builder::{func_ref, int, var, BlockBuilder};
use scalana_lang::{parse_program, Program, ProgramBuilder};
use scalana_mpisim::{SimConfig, Simulation};
use scalana_obs::Histogram;
use scalana_profile::{FlatProfilerHook, ProfilerConfig, ScalAnaProfiler, TracerHook};
use scalana_service::client::Conn;
use scalana_service::exec::profile_one_scale_instrumented;
use scalana_service::json::Json;
use scalana_service::{client, Server, ServiceConfig, ServiceMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Discrete-event simulator throughput — how fast the substrate
/// executes rank-scaled workloads (CG at several scales, the
/// collective-heavy path, and a program with hundreds of contexts).
pub fn simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);

    let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
        na: 30_000,
        iterations: 5,
        delay_rank: None,
    });
    let psg = build_psg(&app.program, &PsgOptions::default());
    for p in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("cg", p), &p, |b, &p| {
            b.iter(|| {
                Simulation::new(&app.program, &psg, SimConfig::with_nprocs(p))
                    .run()
                    .unwrap()
            });
        });
    }

    let coll = parse_program(
        "coll.mmpi",
        "fn main() { for i in 0 .. 50 { comp(cycles = 10_000); allreduce(bytes = 8); } }",
    )
    .unwrap();
    let coll_psg = build_psg(&coll, &PsgOptions::default());
    for p in [64usize, 512] {
        group.bench_with_input(BenchmarkId::new("allreduce_chain", p), &p, |b, &p| {
            b.iter(|| {
                Simulation::new(&coll, &coll_psg, SimConfig::with_nprocs(p))
                    .run()
                    .unwrap()
            });
        });
    }

    // Hundreds of calling contexts: any per-run setup that grows with
    // contexts × statements shows here and not in the cases above.
    let many = many_contexts_program();
    let many_psg = refined_psg(&many, &ScalAnaConfig::default(), 2).unwrap();
    group.bench_function("many_contexts", |b| {
        b.iter(|| {
            Simulation::new(&many, &many_psg, SimConfig::with_nprocs(2))
                .run()
                .unwrap()
        });
    });
    group.finish();
}

/// A two-level call tree of 304 functions: `main` reaches 16 `mid_*`
/// functions, each of which reaches 18 `leaf_*` functions of its own.
/// Every other call goes through a function pointer, so indirect-call
/// discovery adds half of the contexts.
fn many_contexts_program() -> Program {
    fn call(f: &mut BlockBuilder<'_>, callee: &str, indirect: bool) {
        if indirect {
            f.let_("fp", func_ref(callee));
            f.call_indirect(var("fp"), vec![]);
        } else {
            f.call(callee, vec![]);
        }
    }
    const MIDS: usize = 16;
    const LEAVES: usize = 18;
    let mut b = ProgramBuilder::new("many_contexts.mmpi");
    b.function("main", &[], |f| {
        for m in 0..MIDS {
            call(f, &format!("mid_{m}"), m % 2 == 1);
        }
    });
    for m in 0..MIDS {
        b.function(&format!("mid_{m}"), &[], |f| {
            f.comp_cycles(int(2_000));
            for l in 0..LEAVES {
                call(f, &format!("leaf_{m}_{l}"), l % 2 == 1);
            }
            f.allreduce(int(8));
        });
        for l in 0..LEAVES {
            b.function(&format!("leaf_{m}_{l}"), &[], |f| {
                f.for_("i", int(0), int(2), |f| {
                    f.comp_cycles(int(1_000 + l as i64));
                });
                if l % 6 == 0 {
                    f.barrier();
                }
            });
        }
    }
    b.finish().expect("many-contexts program builds")
}

/// The hook layer itself — how much wall-clock time each tool's
/// instrumentation adds to the simulation loop (separate from the
/// modeled *virtual-time* overheads of Table I).
pub fn overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("hook_layer");
    group.sample_size(10);

    let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
        na: 30_000,
        iterations: 5,
        delay_rank: None,
    });
    let psg = build_psg(&app.program, &PsgOptions::default());
    let config = SimConfig::with_nprocs(32);

    group.bench_function("baseline_no_hook", |b| {
        b.iter(|| {
            Simulation::new(&app.program, &psg, config.clone())
                .run()
                .unwrap()
        });
    });
    group.bench_function("scalana_profiler", |b| {
        b.iter(|| {
            let mut hook = ScalAnaProfiler::new(ProfilerConfig::default());
            Simulation::new(&app.program, &psg, config.clone())
                .with_hook(&mut hook)
                .run()
                .unwrap();
            hook.take_data()
        });
    });
    group.bench_function("tracer", |b| {
        b.iter(|| {
            let mut hook = TracerHook::with_defaults();
            Simulation::new(&app.program, &psg, config.clone())
                .with_hook(&mut hook)
                .run()
                .unwrap();
            hook.storage_bytes()
        });
    });
    group.bench_function("flat_profiler", |b| {
        b.iter(|| {
            let mut hook = FlatProfilerHook::with_defaults();
            Simulation::new(&app.program, &psg, config.clone())
                .with_hook(&mut hook)
                .run()
                .unwrap();
            hook.storage_bytes()
        });
    });
    group.finish();
}

/// Post-mortem detection cost (Table IV, measured precisely) —
/// problematic-vertex detection plus backtracking over pre-built PPGs.
pub fn detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection");
    group.sample_size(20);
    for name in ["CG", "ZMP"] {
        let app = scalana_apps::by_name(name).unwrap();
        // Build the PPGs once; bench only the offline analysis.
        let analysis = analyze_app(&app, &[4, 8, 16, 32], &ScalAnaConfig::default()).unwrap();
        let refs: Vec<&Ppg> = analysis.ppgs.iter().collect();
        group.bench_with_input(BenchmarkId::new("detect", name), &refs, |b, refs| {
            b.iter(|| detect(refs, &DetectConfig::default()));
        });
    }
    group.finish();
}

/// PSG construction (Table III's static-analysis cost, measured
/// precisely) — parsing, full build, contraction on/off.
pub fn psg_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("psg_build");
    group.sample_size(20);
    for name in ["CG", "MG", "ZMP"] {
        let app = scalana_apps::by_name(name).unwrap();
        let source = app.source();
        group.bench_with_input(BenchmarkId::new("parse", name), &source, |b, src| {
            b.iter(|| parse_program("bench.mmpi", src).unwrap());
        });
        let program = parse_program("bench.mmpi", &source).unwrap();
        group.bench_with_input(
            BenchmarkId::new("build_contracted", name),
            &program,
            |b, p| {
                b.iter(|| build_psg(p, &PsgOptions::default()));
            },
        );
        group.bench_with_input(BenchmarkId::new("build_raw", name), &program, |b, p| {
            b.iter(|| {
                build_psg(
                    p,
                    &PsgOptions {
                        contract: false,
                        ..Default::default()
                    },
                )
            });
        });
    }
    group.finish();
}

/// Workload-generator throughput — how fast the fuzzer's front half
/// (weighted spec generation, lowering to a checked AST, and the
/// pretty-print → re-parse round trip the differential oracles feed on)
/// turns seeds into runnable MiniMPI programs. Tracks the cost of
/// growing the grammar: a heavier template mix shows up here before it
/// shows up as fuzz wall-clock.
pub fn wgen(c: &mut Criterion) {
    const CASES: usize = 100;
    const SEED: u64 = 0x5ca1_ab1e;

    let mut group = c.benchmark_group("wgen");
    group.sample_size(20);

    group.bench_function("generate_100", |b| {
        b.iter(|| {
            (0..CASES)
                .map(|case| scalana_wgen::generate(SEED, case).stmt_count())
                .sum::<usize>()
        });
    });

    let specs: Vec<_> = (0..CASES)
        .map(|case| scalana_wgen::generate(SEED, case))
        .collect();
    group.bench_function("lower_100", |b| {
        b.iter(|| {
            specs
                .iter()
                .map(|spec| spec.lower().next_node_id)
                .sum::<u32>()
        });
    });

    let sources: Vec<String> = specs.iter().map(|spec| spec.pretty()).collect();
    group.bench_function("reparse_100", |b| {
        b.iter(|| {
            sources
                .iter()
                .map(|src| parse_program("wgen.mmpi", src).unwrap().next_node_id)
                .sum::<u32>()
        });
    });

    group.finish();
}

/// The scales the observability-overhead pair runs at (also the ids
/// perfgate reads back when it computes and gates the overhead ratio).
pub const OBS_SCALES: [usize; 2] = [8, 32];

/// Observability overhead — what always-on self-tracing costs.
///
/// `sim_stripped` is the bare per-scale pipeline call
/// ([`profile_one_scale`]); `sim_instrumented` is the daemon's
/// production path around the *identical* simulation
/// ([`profile_one_scale_instrumented`]): the `simulate` stage span, the
/// latency histogram, the panic guard, and the `ObsSimHook` observer
/// counting every simulator event. The gap between their medians is the
/// overhead perfgate bounds (`OBS_OVERHEAD_FACTOR`, default 5% in full
/// runs) — the paper's thesis prices always-on instrumentation in
/// single-digit percent, and the daemon holds itself to the same bar.
/// The `event_record`/`histogram_record`/`span_timed` cases price the
/// primitives per operation.
pub fn obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.sample_size(20);

    let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
        na: 30_000,
        iterations: 5,
        delay_rank: None,
    });
    let psg = build_psg(&app.program, &PsgOptions::default());
    let config = ScalAnaConfig::default();
    for p in OBS_SCALES {
        group.bench_with_input(BenchmarkId::new("sim_stripped", p), &p, |b, &p| {
            b.iter(|| profile_one_scale(&app.program, &psg, &config, p).unwrap());
        });
    }
    let metrics = ServiceMetrics::new();
    for p in OBS_SCALES {
        let metrics = &metrics;
        group.bench_with_input(BenchmarkId::new("sim_instrumented", p), &p, |b, &p| {
            b.iter(|| {
                let (result, span) =
                    profile_one_scale_instrumented(metrics, &app.program, &psg, &config, p);
                (result.unwrap(), span)
            });
        });
    }

    // The primitives themselves, per operation: one ring event, one
    // histogram record, one timed span (two clock reads + a record).
    let label = scalana_obs::label("bench.obs.primitive");
    group.bench_function("event_record", |b| {
        b.iter(|| scalana_obs::record(scalana_obs::EventKind::Counter, label, 1));
    });
    let hist = Histogram::detached();
    group.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1237);
            hist.record(v & 0xf_ffff);
        });
    });
    group.bench_function("span_timed", |b| {
        b.iter(|| scalana_obs::span_timed(label, &hist).elapsed_ns());
    });
    group.finish();
}

/// One paired observability-overhead measurement at one scale.
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Process count simulated.
    pub scale: usize,
    /// Pairs measured.
    pub samples: usize,
    /// Median of the stripped runs, nanoseconds.
    pub stripped_median_ns: u64,
    /// Median of the instrumented runs, nanoseconds.
    pub instrumented_median_ns: u64,
}

impl ObsOverhead {
    /// Instrumented over stripped median — 1.0 means free tracing.
    pub fn ratio(&self) -> Option<f64> {
        (self.stripped_median_ns > 0)
            .then(|| self.instrumented_median_ns as f64 / self.stripped_median_ns as f64)
    }
}

/// Measure the instrumented and stripped simulation **interleaved** —
/// one stripped run, one instrumented run, alternating — so machine
/// drift over the run hits both sides alike (the same trick as
/// [`measure_wait`]). The sequential Criterion cases in [`obs`] are
/// kept for `cargo bench` eyeballing, but batch-vs-batch medians drift
/// by more than the single-digit-percent effect the perfgate bounds;
/// the paired run is the recorded and gated comparison.
pub fn measure_obs_overhead(samples: usize) -> Vec<ObsOverhead> {
    let app = scalana_apps::cg::build(&scalana_apps::CgOptions {
        na: 30_000,
        iterations: 5,
        delay_rank: None,
    });
    let psg = build_psg(&app.program, &PsgOptions::default());
    let config = ScalAnaConfig::default();
    let metrics = ServiceMetrics::new();
    let median = |mut v: Vec<Duration>| -> u64 {
        v.sort();
        v[v.len() / 2].as_nanos() as u64
    };
    OBS_SCALES
        .iter()
        .map(|&scale| {
            // One untimed warmup pair.
            profile_one_scale(&app.program, &psg, &config, scale).unwrap();
            profile_one_scale_instrumented(&metrics, &app.program, &psg, &config, scale)
                .0
                .unwrap();
            let mut stripped = Vec::with_capacity(samples);
            let mut instrumented = Vec::with_capacity(samples);
            for _ in 0..samples {
                let started = Instant::now();
                profile_one_scale(&app.program, &psg, &config, scale).unwrap();
                stripped.push(started.elapsed());
                let started = Instant::now();
                profile_one_scale_instrumented(&metrics, &app.program, &psg, &config, scale)
                    .0
                    .unwrap();
                instrumented.push(started.elapsed());
            }
            ObsOverhead {
                scale,
                samples,
                stripped_median_ns: median(stripped),
                instrumented_median_ns: median(instrumented),
            }
        })
        .collect()
}

fn service_program(work: u64) -> String {
    format!(
        "param WORK = {work};\n\
         fn main() {{\n\
             for it in 0 .. 4 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{ comp(cycles = WORK / 8, ins = WORK / 8); }}\n\
                 barrier();\n\
             }}\n\
             allreduce(bytes = 8);\n\
         }}"
    )
}

/// Full client round trip; returns once the result is served.
fn submit_and_wait(addr: &str, work: u64) {
    let body = Json::obj(vec![
        ("source", service_program(work).into()),
        ("name", "bench.mmpi".into()),
        ("scales", vec![2usize, 4].into()),
    ])
    .render();
    let response = client::request_json(addr, "POST", "/jobs", &body).unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let status = client::wait_for_job(addr, &key, Duration::from_secs(120)).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
    let result = client::request_json(addr, "GET", &format!("/jobs/{key}/result"), "").unwrap();
    assert!(result.get("report").is_some());
}

/// Daemon submission latency, cached vs uncached.
///
/// Starts the real `scalana-service` daemon on an ephemeral port and
/// measures the full client round trip (submit → poll → result). The
/// uncached case forces a distinct content address per iteration (a
/// fresh `WORK` parameter), so every submission runs the simulator; the
/// cached case re-submits one fixed job and is answered from the
/// content-addressed result cache. The gap between the two is the
/// service's work-reuse win.
pub fn service(c: &mut Criterion) {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());

    let mut group = c.benchmark_group("service");
    group.sample_size(10);

    // Every iteration submits a never-seen job: full pipeline each time.
    let unique = AtomicU64::new(0);
    {
        let addr = addr.clone();
        group.bench_function("submit_uncached", move |b| {
            b.iter(|| {
                let work = 400_000 + unique.fetch_add(1, Ordering::Relaxed);
                submit_and_wait(&addr, work);
            });
        });
    }

    // One warmed job, re-submitted: served from the result cache.
    submit_and_wait(&addr, 777_777);
    {
        let addr = addr.clone();
        group.bench_function("submit_cached", move |b| {
            b.iter(|| submit_and_wait(&addr, 777_777));
        });
    }
    group.finish();

    let _ = client::request(&addr, "POST", "/shutdown", "");
}

/// The throughput workload: enough per-iteration work that simulation
/// cost scales visibly with rank count, so the per-scale cache's
/// savings dominate protocol overheads.
fn overlap_program(work: u64) -> String {
    format!(
        "param WORK = {work};\n\
         fn main() {{\n\
             for it in 0 .. 40 {{\n\
                 comp(cycles = WORK / nprocs, ins = WORK / nprocs);\n\
                 if rank == 0 {{ comp(cycles = WORK / 16, ins = WORK / 16); }}\n\
                 barrier();\n\
                 allreduce(bytes = 8);\n\
             }}\n\
         }}"
    )
}

/// The overlap scenario's scale sets. The warm path primes everything
/// but one cheap middle scale — including the dominant 256-rank run —
/// so the full submission simulates exactly one small scale: the "fill
/// in the curve" workflow. Both sets share the smallest scale: the
/// per-scale cache keys on the discovery scale, so reuse requires it to
/// match (exactly as correctness does).
const OVERLAP_FULL: [usize; 4] = [2, 4, 8, 256];
const OVERLAP_PRIMED: [usize; 3] = [2, 8, 256];

fn boot_daemon(workers: usize) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 256,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Submit `source` over `scales` on `conn` (optionally with a detection
/// threshold override) and wait for completion.
fn submit_scales(conn: &mut Conn, source: &str, scales: &[usize], abnorm_thd: Option<f64>) {
    let mut pairs = vec![
        ("source", Json::from(source)),
        ("name", "throughput.mmpi".into()),
        ("scales", scales.to_vec().into()),
    ];
    if let Some(thd) = abnorm_thd {
        pairs.push(("abnorm_thd", thd.into()));
    }
    let response = conn
        .request_json("POST", "/jobs", &pairs_body(pairs))
        .unwrap();
    let key = response.get("job").unwrap().as_str().unwrap().to_string();
    let status = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
    assert_eq!(status.get("status").and_then(Json::as_str), Some("done"));
}

fn pairs_body(pairs: Vec<(&str, Json)>) -> String {
    Json::obj(pairs).render()
}

/// Service throughput: the per-scale profile cache and the concurrent
/// serving path.
///
/// - `overlap_cold` — a never-seen program over the full scale set:
///   every scale simulates.
/// - `overlap_warm` — the same submission after a priming job covered
///   part of the scale set: only the genuinely new scales simulate.
///   This is the headline sub-job memoization win (the whole-job cache
///   of PR 2 cannot reuse *anything* here — the scale sets differ).
/// - `redetect_warm` — same program and scales, new detection
///   threshold: a different job key whose scales *all* hit the cache;
///   measures the pure post-mortem path (assemble + detect + HTTP).
/// - `clients_8_round` — 8 concurrent keep-alive clients, one unique
///   job each, measured as one round; together with the recorded
///   jobs/sec this tracks multi-client scaling.
/// - `wait_longpoll` vs `wait_poll` — latency from wait start to
///   observed completion of a fresh fast job, through the server-side
///   long-poll (`GET /v1/jobs/<id>/wait`) and through the PR 4
///   client's exponential-backoff status polling (reproduced in
///   `wait_pr4_backoff`). The gap is the poll-cadence quantization
///   the long-poll removes.
pub fn throughput(c: &mut Criterion) {
    let addr = boot_daemon(4);
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);

    let unique = AtomicU64::new(0);

    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("overlap_cold", move |b| {
            let mut conn = Conn::connect(&addr).unwrap();
            b.iter_with_setup(
                || overlap_program(3_000_000 + unique.fetch_add(1, Ordering::Relaxed)),
                |source| submit_scales(&mut conn, &source, &OVERLAP_FULL, None),
            );
        });
    }

    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("overlap_warm", move |b| {
            // Separate connections: the priming submission plays the
            // role of an earlier, unrelated client.
            let mut primer = Conn::connect(&addr).unwrap();
            let mut conn = Conn::connect(&addr).unwrap();
            b.iter_with_setup(
                || {
                    let source =
                        overlap_program(3_000_000 + unique.fetch_add(1, Ordering::Relaxed));
                    // Prime (untimed): covers the extremes, including
                    // the dominant largest scale.
                    submit_scales(&mut primer, &source, &OVERLAP_PRIMED, None);
                    source
                },
                |source| submit_scales(&mut conn, &source, &OVERLAP_FULL, None),
            );
        });
    }

    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("redetect_warm", move |b| {
            let mut primer = Conn::connect(&addr).unwrap();
            let mut conn = Conn::connect(&addr).unwrap();
            b.iter_with_setup(
                || {
                    let source =
                        overlap_program(3_000_000 + unique.fetch_add(1, Ordering::Relaxed));
                    submit_scales(&mut primer, &source, &OVERLAP_FULL, None);
                    source
                },
                // New threshold = new job key, zero new simulations.
                |source| submit_scales(&mut conn, &source, &OVERLAP_FULL, Some(1.7)),
            );
        });
    }

    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("clients_8_round", move |b| {
            b.iter(|| round_of_clients(&addr, 8, 1, unique));
        });
    }

    // Wait-for-completion latency, long-poll vs the polling fallback.
    // Each iteration submits a unique fast job and measures from wait
    // start to observed completion: the job finishes *during* the wait,
    // so the polling client pays its sleep-cadence quantization while
    // the long-poll server answers at the completion transition.
    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("wait_longpoll", move |b| {
            let mut submit_conn = Conn::connect(&addr).unwrap();
            let mut wait_conn = Conn::connect(&addr).unwrap();
            b.iter_with_setup(
                || submit_fast_job(&mut submit_conn, unique),
                |key| {
                    let doc = wait_conn
                        .wait_for_job(&key, Duration::from_secs(60))
                        .unwrap();
                    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
                },
            );
        });
    }
    {
        let addr = addr.clone();
        let unique = &unique;
        group.bench_function("wait_poll", move |b| {
            let mut submit_conn = Conn::connect(&addr).unwrap();
            let mut wait_conn = Conn::connect(&addr).unwrap();
            b.iter_with_setup(
                || submit_fast_job(&mut submit_conn, unique),
                |key| {
                    let doc = wait_pr4_backoff(&mut wait_conn, &key).unwrap();
                    assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
                },
            );
        });
    }

    group.finish();
    let _ = client::request(&addr, "POST", "/shutdown", "");
}

/// The PR 4 client's wait loop, verbatim: status polls with
/// exponential backoff, 200µs doubling to a 25ms cap, on a keep-alive
/// connection. Kept here as the honest comparison baseline for
/// `wait_longpoll` — the shipped client no longer contains it (it
/// long-polls, with a fixed-cadence fallback for pre-`/v1` servers).
fn wait_pr4_backoff(conn: &mut Conn, key: &str) -> Result<Json, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut backoff = Duration::from_micros(200);
    let cap = Duration::from_millis(25);
    loop {
        let doc = conn.request_json("GET", &format!("/jobs/{key}"), "")?;
        match doc.get("status").and_then(Json::as_str) {
            Some("queued") | Some("running") => {}
            Some(_) => return Ok(doc),
            None => return Err("status response missing `status`".to_string()),
        }
        if Instant::now() >= deadline {
            return Err(format!("job {key} still pending"));
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(cap);
    }
}

/// Submit one never-seen fast job (no wait); returns its key. Sized to
/// execute in a few milliseconds: long enough that the wait reliably
/// begins *before* the job completes and that thread-wakeup jitter
/// (~1 ms on a busy box) does not dominate, short enough that the
/// backoff poller's late intervals (3–13 ms by then) are the visible
/// cost on the polling side.
fn submit_fast_job(conn: &mut Conn, unique: &AtomicU64) -> String {
    let work = 50_000 + unique.fetch_add(1, Ordering::Relaxed);
    let body = Json::obj(vec![
        (
            "source",
            format!(
                "param WORK = {work};\n\
                 fn main() {{\n\
                     for it in 0 .. 40 {{\n\
                         comp(cycles = WORK / nprocs);\n\
                         barrier();\n\
                         allreduce(bytes = 8);\n\
                     }}\n\
                 }}"
            )
            .into(),
        ),
        ("name", "wait.mmpi".into()),
        ("scales", vec![2usize, 384].into()),
    ])
    .render();
    let response = conn.request_json("POST", paths::JOBS, &body).unwrap();
    response.get("job").unwrap().as_str().unwrap().to_string()
}

/// Paired wait-latency comparison for the `BENCH_*.json` trajectory.
#[derive(Debug, Clone)]
pub struct WaitMetrics {
    /// Jobs measured per strategy.
    pub samples: usize,
    /// Median submit→completion-observed latency via the server-side
    /// long-poll, nanoseconds.
    pub longpoll_median_ns: u64,
    /// Same, via the PR 4 client's exponential-backoff polling.
    pub poll_median_ns: u64,
}

/// Measure both wait strategies **interleaved against one daemon** —
/// one long-poll job, one backoff-poll job, alternating — so that
/// machine-load drift over the run hits both strategies alike. The
/// sequential Criterion cases above are kept for `cargo bench`
/// eyeballing, but job duration varies by milliseconds with background
/// load, so batch-vs-batch medians can swamp the ~poll-interval effect
/// this exists to measure; the paired run is the recorded comparison.
pub fn measure_wait(samples: usize) -> WaitMetrics {
    let addr = boot_daemon(4);
    let unique = AtomicU64::new(0);
    let mut submit_conn = Conn::connect(&addr).unwrap();
    let mut wait_conn = Conn::connect(&addr).unwrap();
    // One untimed warmup pair.
    let key = submit_fast_job(&mut submit_conn, &unique);
    wait_conn
        .wait_for_job(&key, Duration::from_secs(60))
        .unwrap();
    let key = submit_fast_job(&mut submit_conn, &unique);
    wait_pr4_backoff(&mut wait_conn, &key).unwrap();

    let mut longpoll = Vec::with_capacity(samples);
    let mut poll = Vec::with_capacity(samples);
    for _ in 0..samples {
        let key = submit_fast_job(&mut submit_conn, &unique);
        let started = Instant::now();
        let doc = wait_conn
            .wait_for_job(&key, Duration::from_secs(60))
            .unwrap();
        longpoll.push(started.elapsed());
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));

        let key = submit_fast_job(&mut submit_conn, &unique);
        let started = Instant::now();
        let doc = wait_pr4_backoff(&mut wait_conn, &key).unwrap();
        poll.push(started.elapsed());
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
    }
    let _ = client::request(&addr, "POST", "/shutdown", "");
    let median = |mut v: Vec<Duration>| -> u64 {
        v.sort();
        v[v.len() / 2].as_nanos() as u64
    };
    WaitMetrics {
        samples,
        longpoll_median_ns: median(longpoll),
        poll_median_ns: median(poll),
    }
}

/// Machine-readable wait fan-out metrics for the `BENCH_*.json`
/// trajectory: one daemon, `clients` concurrent parked long-pollers,
/// one terminal transition observed by all of them.
#[derive(Debug, Clone)]
pub struct WaitFanout {
    /// Concurrent long-poll waiters parked on one job.
    pub clients: usize,
    /// `scalana_longpoll_parked` at saturation (must equal `clients`).
    pub parked: u64,
    /// Median completion-observation latency, nanoseconds, measured
    /// from the *first* observed response (the daemon-side fan-out
    /// spread; the absolute completion instant is not observable from
    /// outside the process).
    pub p50_ns: u64,
    /// 99th-percentile of the same (worst observed at small counts).
    pub p99_ns: u64,
    /// `VmRSS` of the whole process (daemon + parked client sockets) at
    /// park saturation, bytes. The headline: memory stays flat in the
    /// waiter count because a parked waiter is a subscription, not a
    /// thread.
    pub rss_bytes: u64,
}

/// Resident set of this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn vm_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// A never-seen source whose runtime scales linearly in `iters` —
/// `salt` keeps the content address unique across submissions.
fn fanout_source(iters: u64, salt: u64) -> String {
    format!(
        "param SALT = {salt};\n\
         fn main() {{\n\
             for it in 0 .. {iters} {{\n\
                 comp(cycles = 400 + SALT % 2);\n\
                 barrier();\n\
                 allreduce(bytes = 8);\n\
             }}\n\
         }}"
    )
}

/// Submit `source` at one scale without waiting; returns the job key.
fn submit_fanout_job(conn: &mut Conn, source: &str) -> String {
    let body = Json::obj(vec![
        ("source", source.into()),
        ("name", "fanout.mmpi".into()),
        ("scales", vec![4usize].into()),
    ])
    .render();
    let response = conn.request_json("POST", "/jobs", &body).unwrap();
    response.get("job").unwrap().as_str().unwrap().to_string()
}

/// Scrape one gauge/counter sample from `/v1/metrics`.
fn scrape_metric(conn: &mut Conn, name: &str) -> u64 {
    let (code, text) = conn.request("GET", paths::METRICS, "").unwrap();
    assert_eq!(code, 200, "metrics scrape failed: {text}");
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("metric `{name}` missing from exposition"))
}

/// Like [`scrape_metric`], but re-establishes the connection and retries
/// once if the daemon dropped it. The fan-out harness leaves its control
/// connection idle for tens of seconds while it parks thousands of
/// waiters on a busy machine, which is long enough for the daemon's idle
/// sweep to reap it.
#[cfg(target_os = "linux")]
fn scrape_metric_reconnect(conn: &mut Conn, addr: &str, name: &str) -> u64 {
    if let Ok((200, text)) = conn.request("GET", paths::METRICS, "") {
        if let Some(sample) = text
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse::<u64>().ok())
        {
            return sample;
        }
    }
    *conn = Conn::connect(addr).unwrap();
    scrape_metric(conn, name)
}

/// Park `clients` concurrent long-pollers on one pending job and
/// measure the completion fan-out.
///
/// Mechanics: a single-worker daemon runs a calibrated *filler* job
/// while the *target* job queues behind it, so the target stays pending
/// for the whole parking phase no matter how long parking takes. Every
/// waiter is a raw keep-alive socket whose `GET .../wait` request is
/// written and never read; saturation is confirmed on the daemon's own
/// `scalana_longpoll_parked` gauge (exact, not sampled). A fresh submit
/// is then issued *while all waiters are parked* — the acceptance point
/// of the event-loop refactor (the old thread-per-connection daemon
/// shed every submit past 256 parked waiters). When the filler drains,
/// the target completes and the daemon fans the response out; arrival
/// timestamps come from a client-side epoll loop in this thread.
///
/// Daemon and clients share the process (2 fds per waiter), so the fd
/// limit is raised up front; where the environment caps the hard limit
/// (no `CAP_SYS_RESOURCE`), the waiter count is clamped to what the
/// limit affords and the recorded `clients` reflects the clamp — never
/// a silently partial park. The same honesty applies to time: the
/// server clamps each wait at 25 s, so on machines whose accept+park
/// pace cannot fit the requested count inside that window the count is
/// clamped to what a 10 s connect phase affords. The run also asserts, at the end, that no
/// waiter timed out (`scalana_longpoll_wakes_total` grew by the full
/// waiter count) — a timeout would silently turn the fan-out spread
/// into timeout jitter.
#[cfg(target_os = "linux")]
pub fn measure_wait_fanout(clients: usize) -> WaitFanout {
    use scalana_service::net::{self, Epoll, Interest};
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;

    let requested = clients;
    let granted = net::raise_nofile_limit(2 * clients as u64 + 512).unwrap_or(512);
    let mut clients = requested.min((granted.saturating_sub(512) / 2) as usize);
    assert!(clients > 0, "fd limit {granted} leaves no room for waiters");
    if clients < requested {
        eprintln!(
            "wait_fanout: fd limit {granted} caps waiters at {clients} (requested {requested})"
        );
    }

    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_capacity: 16,
        max_connections: clients + 64,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());

    let unique = AtomicU64::new(0);
    let salt = || 9_700_000 + unique.fetch_add(1, Ordering::Relaxed);
    let mut control = Conn::connect(&addr).unwrap();

    // Calibrate the filler against this machine: parking must finish
    // well inside the filler's runtime, and the filler must finish well
    // inside the waiters' 25 s server-side wait clamp (a timed-out
    // waiter would be answered `pending` early and poison the numbers).
    let probe_iters = 2_000u64;
    let probe = fanout_source(probe_iters, salt());
    let probe_started = Instant::now();
    let key = submit_fanout_job(&mut control, &probe);
    control.wait_for_job(&key, Duration::from_secs(60)).unwrap();
    let per_iter = probe_started.elapsed() / probe_iters as u32;
    let runway = (Duration::from_secs(4) + Duration::from_millis(clients as u64 * 3 / 2))
        .min(Duration::from_secs(14));
    let filler_iters =
        (runway.as_nanos() / per_iter.as_nanos().max(1)).max(probe_iters as u128) as u64;
    eprintln!(
        "wait_fanout: calibrated per_iter={per_iter:?} runway={runway:?} filler_iters={filler_iters}"
    );

    // Parking can race the filler: the probe calibrates against the
    // machine as it is *now*, and a load spike that lifts between
    // calibration and parking leaves the filler drained before the last
    // waiter arrives — every waiter is then answered inline and the
    // gauge never saturates. Detect that case (target already terminal
    // while the gauge is short) and retry with a 4× filler rather than
    // recording a partial park.
    let mut filler_iters = filler_iters;
    let (epoll, waiters, parked, wakes_before) = 'park: {
        for attempt in 0..4u32 {
            // A retry starts by dropping thousands of waiter sockets at
            // once; processing that disconnect storm can occupy the
            // daemon long enough that its idle sweep reaps the control
            // connection in the meantime. Re-establish it rather than
            // racing the sweep.
            if attempt > 0 {
                control = Conn::connect(&addr).unwrap();
            }
            // Let the daemon retire the previous attempt's sockets so
            // its connection budget is free again before reconnecting.
            let drain_deadline = Instant::now() + Duration::from_secs(30);
            while scrape_metric_reconnect(&mut control, &addr, "scalana_connections ") > 8 {
                assert!(
                    Instant::now() < drain_deadline,
                    "stale waiter connections never drained"
                );
                std::thread::sleep(Duration::from_millis(20));
            }

            let wakes_before =
                scrape_metric_reconnect(&mut control, &addr, "scalana_longpoll_wakes_total ");
            submit_fanout_job(&mut control, &fanout_source(filler_iters, salt()));
            let target = submit_fanout_job(&mut control, &fanout_source(64, salt()));

            // Park the waiters: blocking connect + write (both instant
            // on loopback), then nonblocking and registered for
            // readability.
            let epoll = Epoll::new().unwrap();
            let wait_request = format!(
                "GET /v1/jobs/{target}/wait?timeout_ms=25000 HTTP/1.1\r\nHost: fanout\r\n\r\n"
            );
            // Every waiter must be parked *simultaneously*, and the
            // server clamps each wait at 25 s, so the whole connect
            // phase has to fit well inside that clamp. On a loaded
            // single-core machine the daemon's accept+park pace
            // (competing with the filler simulation for the same core)
            // can drop to milliseconds per waiter; clamp the waiter
            // count to what the window affords — a partial park honestly
            // recorded beats an impossible one retried forever. (The
            // filler cannot simply be grown to cover a slow connect
            // phase either: the simulator's per-rank step budget caps
            // its runtime, and waits expiring at the 25 s clamp would
            // poison the fan-out anyway.)
            let park_window = Duration::from_secs(10);
            let connect_started = Instant::now();
            let mut waiters: Vec<TcpStream> = Vec::with_capacity(clients);
            for token in 0..clients {
                if token != 0 && token % 256 == 0 && connect_started.elapsed() > park_window {
                    break;
                }
                let mut socket = TcpStream::connect(addr.as_str()).unwrap();
                socket.write_all(wait_request.as_bytes()).unwrap();
                socket.set_nonblocking(true).unwrap();
                epoll
                    .add(socket.as_raw_fd(), token as u64, Interest::READ)
                    .unwrap();
                waiters.push(socket);
            }
            if waiters.len() < clients {
                eprintln!(
                    "wait_fanout: accept pace fits only {} of {clients} waiters inside the \
                     {park_window:?} park window — clamping",
                    waiters.len()
                );
                clients = waiters.len();
            }
            eprintln!(
                "wait_fanout: connected {clients} waiters in {:?} (attempt {attempt})",
                connect_started.elapsed()
            );

            let park_deadline = Instant::now() + runway + Duration::from_secs(30);
            loop {
                let parked =
                    scrape_metric_reconnect(&mut control, &addr, "scalana_longpoll_parked ");
                if parked >= clients as u64 {
                    break 'park (epoll, waiters, parked, wakes_before);
                }
                let view = control
                    .request_json("GET", &format!("/jobs/{target}"), "")
                    .unwrap();
                let state = view
                    .get("status")
                    .and_then(Json::as_str)
                    .and_then(scalana_api::JobState::parse);
                if state.is_some_and(|s| s.is_terminal()) {
                    eprintln!(
                        "wait_fanout: filler drained before park saturated \
                         ({parked}/{clients}, attempt {attempt}) — resizing filler"
                    );
                    filler_iters *= 4;
                    break; // drops this attempt's sockets
                }
                assert!(
                    Instant::now() < park_deadline,
                    "only {parked}/{clients} waiters parked — filler undersized or waiters shed"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        panic!("wait_fanout: park never saturated after 4 filler resizes");
    };
    let rss_bytes = vm_rss_bytes();

    // The acceptance point: a fresh submission lands while every waiter
    // is parked (it queues behind the target and is never waited on).
    submit_fanout_job(&mut control, &fanout_source(32, salt()));

    // Observe the fan-out: each readiness event is one waiter seeing
    // the terminal response. Tokens are deleted on arrival so the
    // level-triggered registration fires exactly once per waiter.
    let mut arrivals: Vec<u64> = Vec::with_capacity(clients);
    let mut events = Vec::new();
    let observe_deadline = Instant::now() + Duration::from_secs(120);
    while arrivals.len() < clients {
        assert!(
            Instant::now() < observe_deadline,
            "only {}/{clients} waiters observed completion",
            arrivals.len()
        );
        epoll
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        let now = scalana_obs::now_ns();
        for event in &events {
            if event.readable || event.broken {
                arrivals.push(now);
                epoll
                    .delete(waiters[event.token as usize].as_raw_fd())
                    .unwrap();
            }
        }
    }

    // No waiter may have timed out into a `pending` answer: every one
    // must have been woken by the terminal transition.
    let wakes = scrape_metric_reconnect(&mut control, &addr, "scalana_longpoll_wakes_total ");
    assert!(
        wakes - wakes_before >= clients as u64,
        "only {} of {clients} waiters woke on completion (the rest timed out)",
        wakes - wakes_before
    );
    let _ = client::request(&addr, "POST", "/shutdown", "");

    arrivals.sort_unstable();
    let t0 = arrivals[0];
    let pct = |p: f64| -> u64 {
        let idx = ((clients as f64 * p).ceil() as usize).clamp(1, clients) - 1;
        arrivals[idx] - t0
    };
    WaitFanout {
        clients,
        parked,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        rss_bytes,
    }
}

/// One round: `clients` threads, each submitting `jobs_per_client`
/// unique jobs over [2, 4, 8] on its own keep-alive connection.
/// Returns every job's end-to-end latency.
fn round_of_clients(
    addr: &str,
    clients: usize,
    jobs_per_client: usize,
    unique: &AtomicU64,
) -> Vec<Duration> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Conn::connect(addr).unwrap();
                    let mut latencies = Vec::with_capacity(jobs_per_client);
                    for _ in 0..jobs_per_client {
                        let source =
                            overlap_program(9_000_000 + unique.fetch_add(1, Ordering::Relaxed));
                        let started = Instant::now();
                        submit_scales(&mut conn, &source, &[2, 4, 8], None);
                        latencies.push(started.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Machine-readable multi-client metrics for the `BENCH_*.json`
/// trajectory (jobs/sec plus p50/p99 end-to-end latency).
#[derive(Debug, Clone)]
pub struct ThroughputMetrics {
    /// Concurrent clients.
    pub clients: usize,
    /// Total jobs submitted.
    pub jobs: usize,
    /// Wall-clock of the whole round, nanoseconds.
    pub elapsed_ns: u64,
    /// Jobs per second over the round.
    pub jobs_per_sec: f64,
    /// Median end-to-end job latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile end-to-end job latency, nanoseconds (with small
    /// sample counts: the worst observed).
    pub p99_ns: u64,
}

/// Run one multi-client round against a fresh daemon and aggregate it.
pub fn measure_clients(clients: usize, jobs_per_client: usize) -> ThroughputMetrics {
    let addr = boot_daemon(4);
    let unique = AtomicU64::new(0);
    // Warm the listener/worker path so thread spawn-up is not billed.
    round_of_clients(&addr, 1, 1, &unique);
    let started = Instant::now();
    let mut latencies = round_of_clients(&addr, clients, jobs_per_client, &unique);
    let elapsed = started.elapsed();
    let _ = client::request(&addr, "POST", "/shutdown", "");

    latencies.sort();
    let jobs = latencies.len();
    let pct = |p: f64| -> u64 {
        let idx = ((jobs as f64 * p).ceil() as usize).clamp(1, jobs) - 1;
        latencies[idx].as_nanos() as u64
    };
    ThroughputMetrics {
        clients,
        jobs,
        elapsed_ns: elapsed.as_nanos() as u64,
        jobs_per_sec: jobs as f64 / elapsed.as_secs_f64(),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
    }
}

/// Warm-restart metrics for the `BENCH_*.json` trajectory: a durable
/// store-backed daemon analyses a workload cold, stops, and a
/// successor booted on the same `--store-dir` answers the identical
/// submission entirely from disk.
#[derive(Debug, Clone)]
pub struct WarmRestart {
    /// Cold submit→done latency against a fresh daemon + empty store,
    /// nanoseconds.
    pub cold_ns: u64,
    /// Warm submit→done latency against the restarted daemon,
    /// nanoseconds.
    pub warm_ns: u64,
    /// Entries the successor warm-loaded at boot.
    pub loaded: u64,
    /// Per-scale cache misses the warm resubmission incurred. The
    /// crash-safety contract pins this to exactly 0 — perfgate fails
    /// on any other value, no factor applied.
    pub scale_misses: u64,
}

/// Run the cold → restart → warm cycle once and aggregate it.
pub fn measure_warm_restart() -> WarmRestart {
    let dir =
        std::env::temp_dir().join(format!("scalana-bench-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot = || {
        let server = Server::bind(&ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    };
    let body = Json::obj(vec![
        ("app", "CG".into()),
        ("scales", vec![2usize, 4usize].into()),
    ])
    .render();
    let stat = |conn: &mut Conn, key: &str| -> u64 {
        conn.request_json("GET", paths::STATS, "")
            .unwrap()
            .get(key)
            .and_then(Json::as_i64)
            .unwrap_or(0) as u64
    };
    let timed_submit = |conn: &mut Conn| -> u64 {
        let started = Instant::now();
        let ack = conn.request_json("POST", paths::JOBS, &body).unwrap();
        let key = ack.get("job").unwrap().as_str().unwrap().to_string();
        let done = conn.wait_for_job(&key, Duration::from_secs(120)).unwrap();
        assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
        started.elapsed().as_nanos() as u64
    };

    // Cold: fresh daemon, empty store; graceful shutdown flushes the
    // write-behind queue so the successor has everything.
    let (addr, handle) = boot();
    let mut conn = Conn::connect(&addr).unwrap();
    let cold_ns = timed_submit(&mut conn);
    let _ = conn.request("POST", paths::SHUTDOWN, "");
    let _ = handle.join();

    // Warm: a successor on the same directory must answer the same
    // submission without touching the simulator.
    let (addr, handle) = boot();
    let mut conn = Conn::connect(&addr).unwrap();
    let loaded = stat(&mut conn, "store_loaded");
    let warm_ns = timed_submit(&mut conn);
    let scale_misses = stat(&mut conn, "scale_misses");
    let _ = conn.request("POST", paths::SHUTDOWN, "");
    let _ = handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    WarmRestart {
        cold_ns,
        warm_ns,
        loaded,
        scale_misses,
    }
}

/// Federation metrics for the `BENCH_*.json` trajectory: aggregate
/// jobs/sec of one capacity-constrained daemon vs a three-daemon fleet
/// over the same skewed-popularity workload, plus the deterministic
/// cross-daemon and dead-peer legs.
#[derive(Debug, Clone)]
pub struct FederationMetrics {
    /// Fleet size of the federated round.
    pub daemons: usize,
    /// Jobs per measured round (identical for solo and fleet).
    pub jobs: usize,
    /// Aggregate jobs/sec of the single daemon.
    pub solo_jobs_per_sec: f64,
    /// Aggregate jobs/sec of the fleet.
    pub fleet_jobs_per_sec: f64,
    /// `fleet_jobs_per_sec / solo_jobs_per_sec` — the headline number;
    /// perfgate requires ≥ 1.8.
    pub speedup: f64,
    /// Simulator runs the solo round incurred (cache thrash made
    /// visible).
    pub solo_sim_runs: u64,
    /// Simulator runs the fleet round incurred, summed over daemons.
    pub fleet_sim_runs: u64,
    /// Cross-daemon leg: the resubmitted analysis matched A's byte for
    /// byte. Gated `true`, no factor.
    pub remote_identical: bool,
    /// Cross-daemon leg: per-scale misses on the answering daemon.
    /// Gated exactly 0.
    pub remote_scale_misses: u64,
    /// Cross-daemon leg: simulator runs on the answering daemon.
    /// Gated exactly 0.
    pub remote_sim_runs: u64,
    /// Cross-daemon leg: peer fetches the answering daemon issued
    /// (recorded; how many of B's scales its owners served remotely vs
    /// write-through having landed them locally is placement-dependent).
    pub remote_peer_requests: u64,
    /// Cross-daemon leg: peer fetches answered with a decodable entry.
    pub remote_peer_hits: u64,
    /// Dead-peer leg: requests issued after one fleet member was
    /// killed.
    pub kill_requests: usize,
    /// Dead-peer leg: requests that failed. Gated exactly 0 — a dead
    /// peer degrades throughput, never availability.
    pub kill_failures: usize,
}

/// The skewed-popularity program set: every client cycles the same
/// popular programs, so the fleet-wide per-scale working set
/// (`POPULAR_PROGRAMS × FEDERATION_SCALES.len()` keys) is hot on every
/// daemon.
const POPULAR_PROGRAMS: usize = 48;
/// The 512-rank scale dominates each job's simulation cost (the small
/// scales are protocol-overhead-bound), so cache outcomes — simulate
/// 512 ranks vs one peer round trip — dwarf everything else in the
/// jobs/sec ratio.
const FEDERATION_SCALES: [usize; 3] = [2, 8, 512];
/// Per-daemon profile-cache capacity. Deliberately below the 144-key
/// working set: one daemon thrashes (access order matches insertion
/// order, so FIFO eviction re-simulates the popular set continuously),
/// while three federated daemons hold it comfortably — each retains
/// roughly its owned shard (~48 keys) plus what it simulated at prime
/// time, because remote hits are served by their owners, not admitted
/// locally. The capacity also leaves the cache's internal 16 shards
/// enough per-shard FIFO headroom (ceil(96/16) = 6 entries against an
/// expected 3 owned keys per shard) that hash imbalance does not evict
/// a daemon's own shard. That aggregate-capacity effect, not CPU
/// parallelism, is what the speedup gate measures — it holds on a
/// single-core runner.
const FEDERATION_CACHE_CAPACITY: usize = 96;

fn federation_program(index: usize) -> String {
    overlap_program(12_000_000 + index as u64)
}

/// Boot one capacity-constrained daemon with `peers` as federation
/// seeds; returns its bound address (also its ring identity).
fn boot_federation_daemon(peers: Vec<String>) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 256,
        max_cached_profiles: FEDERATION_CACHE_CAPACITY,
        peers,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    std::thread::spawn(move || server.run());
    addr
}

/// Poll every daemon's `GET /v1/peer/ring` until all agree on a
/// `members`-member ring (announce gossip is asynchronous).
fn await_ring(addrs: &[String], members: usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    'outer: loop {
        for addr in addrs {
            let (code, body) = client::request(addr, "GET", paths::PEER_RING, "").unwrap();
            assert_eq!(code, 200, "ring endpoint on {addr}: {body}");
            let doc = scalana_service::json::parse(&body).unwrap();
            let seen = doc
                .get("members")
                .and_then(Json::as_array)
                .map_or(0, |m| m.len());
            if seen != members {
                assert!(
                    Instant::now() < deadline,
                    "{addr} still sees {seen}/{members} ring members"
                );
                std::thread::sleep(Duration::from_millis(20));
                continue 'outer;
            }
        }
        return;
    }
}

/// One `/v1/stats` field.
fn fleet_stat(conn: &mut Conn, key: &str) -> u64 {
    conn.request_json("GET", paths::STATS, "")
        .unwrap()
        .get(key)
        .and_then(Json::as_i64)
        .unwrap_or(0) as u64
}

/// Poll until a daemon's peer write-behind backlog settles, so
/// cross-daemon reads are deterministic.
fn await_peer_backlog(conn: &mut Conn) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet_stat(conn, "peer_backlog") != 0 {
        assert!(Instant::now() < deadline, "peer backlog never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submit and wait without panicking; `Err` carries the failure shape
/// (the dead-peer leg counts these — the gate demands zero).
fn try_submit_scales(
    conn: &mut Conn,
    source: &str,
    scales: &[usize],
    abnorm_thd: Option<f64>,
) -> Result<String, String> {
    let mut pairs = vec![
        ("source", Json::from(source)),
        ("name", "federation.mmpi".into()),
        ("scales", scales.to_vec().into()),
    ];
    if let Some(thd) = abnorm_thd {
        pairs.push(("abnorm_thd", thd.into()));
    }
    let ack = conn
        .request_json("POST", "/jobs", &pairs_body(pairs))
        .map_err(|e| format!("submit: {e}"))?;
    let key = ack
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no job key in {}", ack.render()))?
        .to_string();
    let done = conn
        .wait_for_job(&key, Duration::from_secs(120))
        .map_err(|e| format!("wait: {e}"))?;
    match done.get("status").and_then(Json::as_str) {
        Some("done") => Ok(key),
        other => Err(format!("job ended {other:?}")),
    }
}

/// The `report` + `runs` fragments of a job's result — the analysis
/// itself, excluding `detect_seconds` (wall-clock, legitimately
/// varies between daemons).
fn analysis_fragments(conn: &mut Conn, key: &str) -> (String, String) {
    let doc = conn
        .request_json("GET", &format!("{}/{key}/result", paths::JOBS), "")
        .unwrap();
    (
        doc.get("report").unwrap().render(),
        doc.get("runs").unwrap().render(),
    )
}

/// One measured round: 3 client threads, each pinned to one daemon
/// (round-robin when fewer daemons than clients), cycling the popular
/// program set with a unique detection threshold per submission — a
/// fresh job key every time, so each job exercises the per-scale tier
/// rather than the whole-job result cache.
fn federation_round(addrs: &[String], jobs_per_client: usize, unique: &AtomicU64) -> Duration {
    const CLIENTS: usize = 3;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = &addrs[c % addrs.len()];
            scope.spawn(move || {
                let mut conn = Conn::connect(addr).unwrap();
                for j in 0..jobs_per_client {
                    // Stride by the client count so the three clients
                    // partition the program set (client c touches only
                    // indices ≡ c mod 3) and a repeat of the same
                    // program is as far apart in the global access
                    // stream as the set allows — adjacent repeats would
                    // hand the under-provisioned solo daemon FIFO hits
                    // it does not deserve.
                    let program = federation_program((j * CLIENTS + c) % POPULAR_PROGRAMS);
                    let thd = 2.5 + unique.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6;
                    submit_scales(&mut conn, &program, &FEDERATION_SCALES, Some(thd));
                }
            });
        }
    });
    started.elapsed()
}

/// Prime every popular program once (spread round-robin over the
/// daemons) so both rounds start from the same steady state: PSGs
/// discovered, every profile simulated at least once, write-through
/// settled.
fn federation_prime(addrs: &[String]) {
    let mut conns: Vec<Conn> = addrs.iter().map(|a| Conn::connect(a).unwrap()).collect();
    for i in 0..POPULAR_PROGRAMS {
        let conn = &mut conns[i % addrs.len()];
        submit_scales(conn, &federation_program(i), &FEDERATION_SCALES, None);
    }
    for conn in &mut conns {
        await_peer_backlog(conn);
    }
}

/// Simulator runs summed over a set of daemons.
fn fleet_sim_runs(addrs: &[String]) -> u64 {
    addrs
        .iter()
        .map(|a| {
            let mut conn = Conn::connect(a).unwrap();
            scrape_metric(&mut conn, "scalana_sim_runs_total ")
        })
        .sum()
}

/// The federation benchmark: solo round, fleet round, deterministic
/// cross-daemon resubmission, dead-peer survival.
pub fn measure_federation(jobs_per_client: usize) -> FederationMetrics {
    let unique = AtomicU64::new(0);
    let jobs = 3 * jobs_per_client;

    // Solo: one daemon whose profile cache cannot hold the popular
    // working set — FIFO thrash re-simulates it continuously.
    let solo = vec![boot_federation_daemon(Vec::new())];
    federation_prime(&solo);
    let sims_before = fleet_sim_runs(&solo);
    let solo_elapsed = federation_round(&solo, jobs_per_client, &unique);
    let solo_sim_runs = fleet_sim_runs(&solo) - sims_before;
    let _ = client::request(&solo[0], "POST", "/shutdown", "");

    // Fleet: three such daemons federated. Each daemon's cache holds
    // its owned shard; everything else is one peer round trip away.
    let a = boot_federation_daemon(Vec::new());
    let b = boot_federation_daemon(vec![a.clone()]);
    let c = boot_federation_daemon(vec![a.clone(), b.clone()]);
    let fleet = vec![a, b, c];
    await_ring(&fleet, fleet.len());
    federation_prime(&fleet);
    let sims_before = fleet_sim_runs(&fleet);
    let fleet_elapsed = federation_round(&fleet, jobs_per_client, &unique);
    let fleet_sims = fleet_sim_runs(&fleet) - sims_before;

    // Cross-daemon leg: a never-seen program analysed cold on A must be
    // served by B without a single per-scale miss or simulator run,
    // byte-identical — once A's write-through has settled.
    let fresh = overlap_program(13_000_000);
    let mut conn_a = Conn::connect(&fleet[0]).unwrap();
    let mut conn_b = Conn::connect(&fleet[1]).unwrap();
    let key_a = try_submit_scales(&mut conn_a, &fresh, &FEDERATION_SCALES, None).unwrap();
    await_peer_backlog(&mut conn_a);
    let misses_before = fleet_stat(&mut conn_b, "scale_misses");
    let sims_b_before = scrape_metric(&mut conn_b, "scalana_sim_runs_total ");
    let requests_before = fleet_stat(&mut conn_b, "peer_requests");
    let hits_before = fleet_stat(&mut conn_b, "peer_hits");
    let key_b = try_submit_scales(&mut conn_b, &fresh, &FEDERATION_SCALES, None).unwrap();
    assert_eq!(key_a, key_b, "content-addressed job keys must agree");
    let remote_scale_misses = fleet_stat(&mut conn_b, "scale_misses") - misses_before;
    let remote_sim_runs = scrape_metric(&mut conn_b, "scalana_sim_runs_total ") - sims_b_before;
    let remote_peer_requests = fleet_stat(&mut conn_b, "peer_requests") - requests_before;
    let remote_peer_hits = fleet_stat(&mut conn_b, "peer_hits") - hits_before;
    let remote_identical =
        analysis_fragments(&mut conn_a, &key_a) == analysis_fragments(&mut conn_b, &key_b);

    // Dead-peer leg: kill the third daemon mid-fleet and keep
    // submitting to the survivors. Probes to the dead owner fail fast
    // (then its breaker opens) and every job still completes locally.
    let _ = client::request(&fleet[2], "POST", "/shutdown", "");
    let kill_requests = 2 * jobs_per_client.max(2);
    let mut kill_failures = 0usize;
    for i in 0..kill_requests {
        let conn = if i % 2 == 0 { &mut conn_a } else { &mut conn_b };
        let program = federation_program(i % POPULAR_PROGRAMS);
        let thd = 2.5 + unique.fetch_add(1, Ordering::Relaxed) as f64 * 1e-6;
        if try_submit_scales(conn, &program, &FEDERATION_SCALES, Some(thd)).is_err() {
            kill_failures += 1;
        }
    }
    for addr in &fleet[..2] {
        let _ = client::request(addr, "POST", "/shutdown", "");
    }

    let solo_jobs_per_sec = jobs as f64 / solo_elapsed.as_secs_f64();
    let fleet_jobs_per_sec = jobs as f64 / fleet_elapsed.as_secs_f64();
    FederationMetrics {
        daemons: fleet.len(),
        jobs,
        solo_jobs_per_sec,
        fleet_jobs_per_sec,
        speedup: fleet_jobs_per_sec / solo_jobs_per_sec,
        solo_sim_runs,
        fleet_sim_runs: fleet_sims,
        remote_identical,
        remote_scale_misses,
        remote_sim_runs,
        remote_peer_requests,
        remote_peer_hits,
        kill_requests,
        kill_failures,
    }
}

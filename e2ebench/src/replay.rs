//! The traced in-process replay: one job at a time through the public
//! stage functions, one span per call, plus the hook split — a bare
//! `Simulation::run` on the same inputs as each `profile_one_scale`,
//! measured outside the job so the job's spans still tile it.

use crate::reference::resolve;
use crate::trace::Tracer;
use crate::workload::{Analysis, Program};
use scalana_core::profile_one_scale;
use scalana_detect::backtrack::backtrack_all;
use scalana_detect::problematic::{find_abnormal, find_non_scalable};
use scalana_detect::DetectionReport;
use scalana_graph::{build_psg, Ppg};
use scalana_mpisim::{
    CommDepEvent, CompEvent, Hook, IndirectCallEvent, MpiEnterEvent, MpiExitEvent, SimConfig,
    Simulation,
};
use scalana_profile::recorder::discover_indirect_calls;
use scalana_profile::store;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Alternations of bare and profiled simulation per scale in the hook
/// split.
const HOOK_SPLIT_ROUNDS: usize = 2;

/// Per-job layer figures, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Counts simulator events; adds no virtual time.
#[derive(Default)]
struct EventCounter(u64);

impl Hook for EventCounter {
    fn on_comp(&mut self, _: &CompEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_mpi_enter(&mut self, _: &MpiEnterEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_mpi_exit(&mut self, _: &MpiExitEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_comm_dep(&mut self, _: &CommDepEvent) -> f64 {
        self.0 += 1;
        0.0
    }
    fn on_indirect_call(&mut self, _: &IndirectCallEvent) -> f64 {
        self.0 += 1;
        0.0
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Replay one analysis as job `job`; returns its layer figures.
pub fn replay(tracer: &mut Tracer, analysis: &Analysis, job: &str) -> Result<Layers, String> {
    let (built, config) = resolve(analysis)?;
    // Built-in apps are replayed from their printed source, so the
    // front-end is timed for them too.
    let (file, text) = match &analysis.program {
        Program::App { name, .. } => (
            format!("{name}.mmpi"),
            scalana_lang::pretty::print_program(&built),
        ),
        Program::Source { name, text } => (name.clone(), text.clone()),
    };
    let scales = &analysis.scales;
    let mut layers = Layers::new();
    let mut stage_ns: BTreeMap<&'static str, u64> = BTreeMap::new();

    let job_start = Instant::now();
    let root = tracer.record("job", job, None, tracer.ns(job_start), tracer.ns(job_start));
    let mut stage = |tracer: &mut Tracer, name: &'static str, run: &mut dyn FnMut()| {
        let ((), id) = tracer.time(name, job, Some(root), &mut *run);
        let span = &tracer.spans()[id];
        *stage_ns.entry(name).or_default() += span.duration_ns();
        span.duration_ns()
    };

    let mut program = None;
    stage(tracer, "parse_program", &mut || {
        program = Some(scalana_lang::parse_program(&file, &text));
    });
    let program = program.expect("stage ran").map_err(|e| e.to_string())?;
    let mut psg = None;
    stage(tracer, "build_psg", &mut || {
        psg = Some(build_psg(&program, &config.psg))
    });
    let mut psg = psg.expect("stage ran");
    let mut discovered = None;
    stage(tracer, "discover_indirect_calls", &mut || {
        discovered = Some(discover_indirect_calls(&program, &mut psg, scales[0]));
    });
    discovered.expect("stage ran").map_err(|e| e.to_string())?;
    let psg = Arc::new(psg);

    let mut profiles = Vec::with_capacity(scales.len());
    let mut top_scale_ns = 0;
    for &nprocs in scales {
        let mut data = None;
        top_scale_ns = stage(tracer, "profile_one_scale", &mut || {
            data = Some(profile_one_scale(&program, &psg, &config, nprocs));
        });
        profiles.push(data.expect("stage ran").map_err(|e| e.to_string())?);
    }
    let mut images = Vec::with_capacity(profiles.len());
    for data in &profiles {
        stage(tracer, "store::save", &mut || {
            images.push(store::save(data))
        });
    }
    let image_bytes: usize = images.iter().map(|i| i.len()).sum();
    let mut loaded = Vec::with_capacity(images.len());
    for image in images {
        let mut image = Some(image);
        stage(tracer, "store::load", &mut || {
            loaded.push(store::load(image.take().expect("loaded once")));
        });
    }
    let mut ppgs: Vec<Ppg> = Vec::with_capacity(loaded.len());
    for data in loaded {
        let data = data.map_err(|e| format!("profile image did not load: {e:?}"))?;
        let mut data = Some(data);
        stage(tracer, "ProfileData::into_ppg", &mut || {
            ppgs.push(
                data.take()
                    .expect("assembled once")
                    .into_ppg(Arc::clone(&psg)),
            );
        });
    }
    let refs: Vec<&Ppg> = ppgs.iter().collect();
    let largest = refs[refs.len() - 1];
    let detect = &config.detect;
    let mut non_scalable = Vec::new();
    stage(tracer, "find_non_scalable", &mut || {
        non_scalable = find_non_scalable(&refs, detect)
    });
    let mut abnormal = Vec::new();
    stage(tracer, "find_abnormal", &mut || {
        abnormal = find_abnormal(largest, detect)
    });
    let mut traced = None;
    stage(tracer, "backtrack_all", &mut || {
        traced = Some(backtrack_all(largest, &non_scalable, &abnormal, detect));
    });
    let (paths, root_causes) = traced.expect("stage ran");
    let path_count = paths.len();
    let report = DetectionReport {
        non_scalable,
        abnormal,
        paths,
        root_causes,
    };
    stage(tracer, "DetectionReport::render", &mut || {
        black_box(report.render());
    });
    let job_end = Instant::now();
    tracer.close(root, job_end);
    let wall_ns = job_end.duration_since(job_start).as_nanos() as u64;

    // Freed only now, so the job's spans do not pay for it.
    drop(profiles);

    // The hook split, outside the job: per scale, the bare simulation
    // and `profile_one_scale` on identical inputs, alternated
    // `HOOK_SPLIT_ROUNDS` times with the fastest of each kept (one run
    // each reads the machine's noise as much as the hook), then one run
    // with only an event counter.
    let mut bare_ns = 0;
    let mut profiled_ns = 0;
    let mut events = 0;
    for &nprocs in scales {
        let sim_config = || {
            let mut c = SimConfig::with_nprocs(nprocs);
            c.machine = Arc::new(config.machine.clone());
            c.params = config.params.clone();
            c
        };
        let (mut bare, mut profiled) = (u64::MAX, u64::MAX);
        for _ in 0..HOOK_SPLIT_ROUNDS {
            let (result, id) = tracer.time("Simulation::run", job, None, || {
                Simulation::new(&program, &psg, sim_config()).run()
            });
            black_box(result.map_err(|e| e.to_string())?);
            bare = bare.min(tracer.spans()[id].duration_ns());
            let (data, id) = tracer.time("profile_one_scale (hook split)", job, None, || {
                profile_one_scale(&program, &psg, &config, nprocs)
            });
            black_box(data.map_err(|e| e.to_string())?);
            profiled = profiled.min(tracer.spans()[id].duration_ns());
        }
        bare_ns += bare;
        profiled_ns += profiled;
        let mut counter = EventCounter::default();
        Simulation::new(&program, &psg, sim_config())
            .with_hook(&mut counter)
            .run()
            .map_err(|e| e.to_string())?;
        events += counter.0;
    }

    let get = |name: &str| stage_ns.get(name).copied().unwrap_or(0);
    let covered: u64 = stage_ns.values().sum();
    let profile_ns = get("profile_one_scale");
    let static_ns = get("parse_program")
        + get("build_psg")
        + get("discover_indirect_calls")
        + get("find_non_scalable")
        + get("find_abnormal")
        + get("backtrack_all");
    layers.insert("job.wall_ms", ms(wall_ns));
    layers.insert("lang.parse_ms", ms(get("parse_program")));
    layers.insert("lang.stmts", program.stmt_count() as f64);
    layers.insert("graph.psg_build_ms", ms(get("build_psg")));
    layers.insert("graph.psg_vertices", psg.vertex_count() as f64);
    layers.insert("profile.discovery_ms", ms(get("discover_indirect_calls")));
    layers.insert("profile.profile_ms", ms(profile_ns));
    layers.insert("mpisim.sim_ms", ms(bare_ns));
    layers.insert("mpisim.events", events as f64);
    layers.insert("profile.hook_ms", ms(profiled_ns) - ms(bare_ns));
    layers.insert("profile.image_encode_ms", ms(get("store::save")));
    layers.insert("profile.image_decode_ms", ms(get("store::load")));
    layers.insert("profile.image_bytes", image_bytes as f64);
    layers.insert("graph.ppg_assemble_ms", ms(get("ProfileData::into_ppg")));
    layers.insert("detect.non_scalable_ms", ms(get("find_non_scalable")));
    layers.insert("detect.abnormal_ms", ms(get("find_abnormal")));
    layers.insert("detect.backtrack_ms", ms(get("backtrack_all")));
    layers.insert("detect.paths", path_count as f64);
    layers.insert("core.render_ms", ms(get("DetectionReport::render")));
    // Sums over the sample, turned into shares by the caller.
    layers.insert("sum.covered_ms", ms(covered));
    layers.insert("sum.top_scale_ms", ms(top_scale_ns));
    layers.insert("sum.static_detect_ms", ms(static_ns));
    Ok(layers)
}

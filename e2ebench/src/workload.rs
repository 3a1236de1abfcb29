//! The three workloads as seeded, deterministic submission streams.
//!
//! Each stream yields the next submission on demand; the same seed gives
//! the same sequence (which of the two clients sends a given submission
//! depends on timing, the sequence does not). Alongside the stream each
//! workload keeps its distinct analyses — (program, scales, config) —
//! so the reference check runs once per analysis.

use crate::gen;
use crate::rng::{Rng, Zipf};
use scalana_service::json::Json;
use std::collections::HashMap;

/// The program of an analysis.
#[derive(Debug, Clone)]
pub enum Program {
    /// A built-in app by name, with its recommended machine model.
    App {
        name: String,
        params: Vec<(String, i64)>,
    },
    /// Inline MiniMPI source.
    Source { name: String, text: String },
}

/// One distinct analysis: what the reference check recomputes.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub program: Program,
    pub scales: Vec<usize>,
    pub abnorm_thd: Option<f64>,
    pub top: Option<usize>,
    pub max_loop_depth: Option<u32>,
    /// `file:line` of the planted root cause, for planted-defect jobs.
    pub expected_root_cause: Option<String>,
}

/// What a submission is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `cold_apps` job with a planted root cause.
    Planted,
    /// `cold_apps` control (clean NPB kernel).
    Control,
    /// `warm_reuse`: byte-identical resubmission (result cache).
    Resubmit,
    /// `warm_reuse`: same program and scales, new detection knobs
    /// (profile cache).
    Redetect,
    /// `warm_reuse`: new scale set overlapping earlier ones.
    NewScales,
    /// `large_program` job.
    Large,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Planted => "planted",
            Kind::Control => "control",
            Kind::Resubmit => "resubmit",
            Kind::Redetect => "redetect",
            Kind::NewScales => "new_scales",
            Kind::Large => "large",
        }
    }
}

/// One submission.
#[derive(Debug, Clone)]
pub struct Submission {
    pub body: String,
    pub analysis: usize,
    pub kind: Kind,
}

pub trait Workload: Send {
    /// Closed-loop clients (each with one keep-alive connection).
    fn clients(&self) -> usize;
    /// Submissions per deck: a timed window ends on a whole deck, so
    /// every window holds the workload's mix exactly.
    fn deck(&self) -> usize;
    fn next(&mut self) -> Submission;
    fn analyses(&self) -> &[Analysis];
    /// The untimed submissions that bring a fresh daemon to the state
    /// the timed window starts from.
    fn priming(&mut self) -> Vec<Submission>;
}

pub const WORKLOADS: [&str; 3] = ["cold_apps", "warm_reuse", "large_program"];

/// The named workload's stream for `seed`; `smoke` shortens the priming.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    match name {
        "cold_apps" => Some(Box::new(ColdApps::new(seed))),
        "warm_reuse" => Some(Box::new(WarmReuse::new(
            seed,
            if smoke { 40 } else { WARM_PRIMING },
        ))),
        "large_program" => Some(Box::new(LargeProgram::new(seed))),
        _ => None,
    }
}

fn body(analysis: &Analysis) -> String {
    let mut pairs: Vec<(&str, Json)> = Vec::new();
    let mut params = Vec::new();
    match &analysis.program {
        Program::App { name, params: p } => {
            pairs.push(("app", name.as_str().into()));
            params = p.clone();
        }
        Program::Source { name, text } => {
            pairs.push(("source", text.as_str().into()));
            pairs.push(("name", name.as_str().into()));
        }
    }
    pairs.push(("scales", analysis.scales.clone().into()));
    if let Some(thd) = analysis.abnorm_thd {
        pairs.push(("abnorm_thd", thd.into()));
    }
    if let Some(top) = analysis.top {
        pairs.push(("top", top.into()));
    }
    if let Some(depth) = analysis.max_loop_depth {
        pairs.push(("max_loop_depth", (depth as usize).into()));
    }
    if !params.is_empty() {
        pairs.push((
            "params",
            Json::Obj(params.into_iter().map(|(k, v)| (k, Json::Int(v))).collect()),
        ));
    }
    Json::obj(pairs).render()
}

/// Distinct analyses, deduplicated by a caller-chosen key.
#[derive(Debug, Default)]
struct Registry {
    list: Vec<Analysis>,
    index: HashMap<String, usize>,
}

impl Registry {
    fn intern(&mut self, key: String, make: impl FnOnce() -> Analysis) -> usize {
        let list = &mut self.list;
        *self.index.entry(key).or_insert_with(|| {
            list.push(make());
            list.len() - 1
        })
    }
}

// ---------------------------------------------------------------- cold_apps

const COLD_SCALES: [usize; 5] = [8, 16, 32, 64, 128];

/// Submissions of the built-in apps, shuffled deck by deck: every deck
/// holds the three case studies (ZMP, SST, NEK), six CGs with a delay
/// injected at six fixed ranks, and the eight clean NPB kernels, so
/// every seed runs the same mix in a different order.
///
/// Each submission carries a distinct `max_loop_depth` above the apps'
/// loop nesting (the default is 10, the apps nest at most 4 deep), so no
/// cache tier — result, per-scale profile or refined PSG — answers any
/// part of it, while the analysis itself is unchanged. The reference
/// for an (app, params, scales) is computed at the depth of its first
/// submission; had the depth mattered, the later ones would count as
/// wrong reports.
pub struct ColdApps {
    rng: Rng,
    deck: Vec<(String, Option<i64>)>,
    nonce: u32,
    registry: Registry,
}

const PLANTED_APPS: [&str; 3] = ["ZMP", "SST", "NEK"];
const CONTROL_APPS: [&str; 8] = ["BT", "CG", "EP", "FT", "MG", "SP", "LU", "IS"];

/// Delay-injected CGs per deck. With six, the deck's median latency
/// falls a fifth of the way into the CG family (seven of the seventeen
/// jobs) and its 90th percentile a third of the way into NEK's, so
/// neither `job_p50_ms` nor `job_p90_ms` sits at the edge of a gap
/// between two clusters of like jobs.
const CG_DELAYED: usize = 6;

/// `DELAY_RANK` values for the delay-injected CG are spread over
/// `0..CG_DELAY_RANKS`: below the smallest scale, so the delayed rank
/// exists at every scale.
const CG_DELAY_RANKS: usize = 8;

/// Distinct `max_loop_depth` values start here (well above any app's
/// loop nesting and the default of 10).
const DEPTH_BASE: u32 = 1_000;

impl ColdApps {
    pub fn new(seed: u64) -> ColdApps {
        ColdApps {
            rng: Rng::new(seed, 1),
            deck: Vec::new(),
            nonce: 0,
            registry: Registry::default(),
        }
    }

    fn refill(&mut self) {
        let mut deck: Vec<(String, Option<i64>)> = Vec::new();
        deck.extend(PLANTED_APPS.iter().map(|a| (a.to_string(), None)));
        for i in 0..CG_DELAYED {
            let rank = (i * CG_DELAY_RANKS / CG_DELAYED) as i64;
            deck.push(("CG".to_string(), Some(rank)));
        }
        deck.extend(CONTROL_APPS.iter().map(|a| (a.to_string(), None)));
        self.rng.shuffle(&mut deck);
        // Popped from the back.
        deck.reverse();
        self.deck = deck;
    }

    fn submission(&mut self, app: &str, delay: Option<i64>, depth: u32) -> Submission {
        let key = format!("{app}/{delay:?}");
        let analysis = self.registry.intern(key, || {
            // Building an app is not free: only on an analysis's first
            // submission, never per submission.
            let expected_root_cause = match delay {
                Some(rank) => {
                    scalana_apps::cg::build(&scalana_apps::CgOptions {
                        delay_rank: Some(rank),
                        ..Default::default()
                    })
                    .expected_root_cause
                }
                None => scalana_apps::by_name(app).and_then(|a| a.expected_root_cause),
            };
            Analysis {
                program: Program::App {
                    name: app.to_string(),
                    params: delay
                        .map(|rank| vec![("DELAY_RANK".to_string(), rank)])
                        .unwrap_or_default(),
                },
                scales: COLD_SCALES.to_vec(),
                abnorm_thd: None,
                top: None,
                max_loop_depth: Some(depth),
                expected_root_cause,
            }
        });
        let mut spec = self.registry.list[analysis].clone();
        let kind = if spec.expected_root_cause.is_some() {
            Kind::Planted
        } else {
            Kind::Control
        };
        spec.max_loop_depth = Some(depth);
        Submission {
            body: body(&spec),
            analysis,
            kind,
        }
    }
}

impl Workload for ColdApps {
    /// One client: each job has both workers to itself, so its latency
    /// is the job's own, not that of whichever job it shares them with.
    fn clients(&self) -> usize {
        1
    }

    fn deck(&self) -> usize {
        PLANTED_APPS.len() + CG_DELAYED + CONTROL_APPS.len()
    }

    fn next(&mut self) -> Submission {
        if self.deck.is_empty() {
            self.refill();
        }
        let (app, delay) = self.deck.pop().expect("refilled deck");
        self.nonce += 1;
        self.submission(&app, delay, DEPTH_BASE + self.nonce)
    }

    fn analyses(&self) -> &[Analysis] {
        &self.registry.list
    }

    fn priming(&mut self) -> Vec<Submission> {
        // Every app once at two small scales: warms the daemon's lazy
        // set-up (allocator, page cache, code) without caching anything
        // the window asks for — the window's depths start above this one.
        PLANTED_APPS
            .iter()
            .chain(&CONTROL_APPS)
            .map(|app| {
                let spec = Analysis {
                    program: Program::App {
                        name: app.to_string(),
                        params: Vec::new(),
                    },
                    scales: vec![2, 4],
                    abnorm_thd: None,
                    top: None,
                    max_loop_depth: Some(DEPTH_BASE),
                    expected_root_cause: None,
                };
                Submission {
                    body: body(&spec),
                    analysis: usize::MAX,
                    kind: Kind::Control,
                }
            })
            .collect()
    }
}

// --------------------------------------------------------------- warm_reuse

/// Scales a `warm_reuse` job draws from; every set includes the first,
/// which is also the discovery scale, so one refined PSG serves every
/// job of a program.
const WARM_SCALES: [usize; 8] = [2, 4, 8, 16, 24, 32, 48, 64];

/// The daemon's default per-scale profile-cache capacity (entries).
pub const PROFILE_CACHE_CAPACITY: usize = 1024;

/// Programs in the population: their distinct per-scale profile keys
/// (`WARM_PROGRAMS * WARM_SCALES.len()`) are 1.5x the profile cache.
const WARM_PROGRAMS: usize = PROFILE_CACHE_CAPACITY * 3 / 2 / WARM_SCALES.len();

/// Recent submissions that resubmissions and re-detections pick from:
/// few enough that their results and profiles are still cached.
const WARM_HISTORY: usize = 32;

/// Stream submissions primed before the window (after the cache fill).
const WARM_PRIMING: usize = 300;

/// The submission mix of every ten `warm_reuse` submissions.
const WARM_DECK: [Kind; 10] = [
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Redetect,
    Kind::Redetect,
    Kind::Redetect,
    Kind::NewScales,
    Kind::NewScales,
    Kind::NewScales,
];

/// Zipf-skewed reuse over a population of small seeded programs, mixing
/// (in every deck of ten) four exact resubmissions, three re-detections
/// with new `abnorm_thd`/`top`, and three new overlapping scale sets.
pub struct WarmReuse {
    rng: Rng,
    priming: usize,
    programs: Vec<String>,
    popularity: Zipf,
    /// Popularity rank -> program index.
    order: Vec<usize>,
    deck: Vec<Kind>,
    history: Vec<usize>,
    redetections: usize,
    registry: Registry,
    /// Program index of each analysis, parallel to the registry.
    program_of: Vec<usize>,
}

impl WarmReuse {
    pub fn new(seed: u64, priming: usize) -> WarmReuse {
        let mut rng = Rng::new(seed, 2);
        let programs: Vec<String> = (0..WARM_PROGRAMS)
            .map(|_| gen::small_program(&mut rng))
            .collect();
        let mut order: Vec<usize> = (0..WARM_PROGRAMS).collect();
        rng.shuffle(&mut order);
        WarmReuse {
            rng,
            priming,
            programs,
            popularity: Zipf::new(WARM_PROGRAMS, 1.0),
            order,
            deck: Vec::new(),
            history: Vec::new(),
            redetections: 0,
            registry: Registry::default(),
            program_of: Vec::new(),
        }
    }

    fn intern(
        &mut self,
        program: usize,
        scales: Vec<usize>,
        thd: Option<f64>,
        top: Option<usize>,
    ) -> usize {
        let key = format!("{program}/{scales:?}/{thd:?}/{top:?}");
        let text = &self.programs[program];
        let program_of = &mut self.program_of;
        self.registry.intern(key, || {
            program_of.push(program);
            Analysis {
                program: Program::Source {
                    name: format!("w{program}.mmpi"),
                    text: text.clone(),
                },
                scales,
                abnorm_thd: thd,
                top,
                max_loop_depth: None,
                expected_root_cause: None,
            }
        })
    }

    fn new_scales(&mut self) -> usize {
        let program = self.order[self.popularity.sample(&mut self.rng)];
        let mut rest: Vec<usize> = WARM_SCALES[1..].to_vec();
        self.rng.shuffle(&mut rest);
        let extra = self.rng.range(2, 4) as usize;
        let mut scales = vec![WARM_SCALES[0]];
        scales.extend_from_slice(&rest[..extra]);
        scales.sort_unstable();
        self.intern(program, scales, None, None)
    }
}

impl Workload for WarmReuse {
    /// Two clients: cache reads run beside cache writes and evictions.
    fn clients(&self) -> usize {
        2
    }

    fn deck(&self) -> usize {
        WARM_DECK.len()
    }

    fn next(&mut self) -> Submission {
        if self.deck.is_empty() {
            let mut deck = WARM_DECK.to_vec();
            self.rng.shuffle(&mut deck);
            self.deck = deck;
        }
        let mut kind = self.deck.pop().expect("refilled deck");
        if self.history.is_empty() {
            kind = Kind::NewScales;
        }
        let analysis = match kind {
            Kind::Resubmit => self.history[self.rng.below(self.history.len())],
            Kind::Redetect => {
                let base = self.history[self.rng.below(self.history.len())];
                let (program, scales) = (
                    self.program_of[base],
                    self.registry.list[base].scales.clone(),
                );
                self.redetections += 1;
                let thd = 1.2 + (self.redetections % 997) as f64 * 0.001;
                let top = [3, 5, 8][self.rng.below(3)];
                self.intern(program, scales, Some(thd), Some(top))
            }
            _ => self.new_scales(),
        };
        self.history.push(analysis);
        if self.history.len() > WARM_HISTORY {
            self.history.remove(0);
        }
        Submission {
            body: body(&self.registry.list[analysis]),
            analysis,
            kind,
        }
    }

    fn analyses(&self) -> &[Analysis] {
        &self.registry.list
    }

    fn priming(&mut self) -> Vec<Submission> {
        // Fill the profile cache with every scale of the most popular
        // programs, then run the stream's first submissions (the window
        // continues the stream after them): the window starts with a
        // full cache that evicts as it inserts, not with one that is
        // still filling.
        let fill = (PROFILE_CACHE_CAPACITY / WARM_SCALES.len()).min(self.priming);
        let mut submissions: Vec<Submission> = (0..fill)
            .map(|rank| {
                let analysis = self.intern(self.order[rank], WARM_SCALES.to_vec(), None, None);
                Submission {
                    body: body(&self.registry.list[analysis]),
                    analysis,
                    kind: Kind::NewScales,
                }
            })
            .collect();
        submissions.extend((0..self.priming).map(|_| self.next()));
        submissions
    }
}

// ------------------------------------------------------------ large_program

const LARGE_SCALES: [usize; 2] = [2, 4];

/// Distinct generated programs per seed.
const LARGE_POOL: usize = 6;

/// Seeded ~10k-line programs submitted round-robin. Each submission
/// appends a distinct trailing comment, so its text — and with it every
/// cache key — is new, while the parsed program (and the report) is that
/// of the pool entry, whose reference analysis serves every submission
/// of it.
pub struct LargeProgram {
    programs: Vec<String>,
    next: usize,
    registry: Registry,
}

impl LargeProgram {
    pub fn new(seed: u64) -> LargeProgram {
        let mut rng = Rng::new(seed, 3);
        let programs = (0..LARGE_POOL)
            .map(|_| gen::large_program(&mut rng))
            .collect();
        LargeProgram {
            programs,
            next: 0,
            registry: Registry::default(),
        }
    }
}

impl Workload for LargeProgram {
    /// One client: each job's static stages and simulations have the
    /// daemon to themselves.
    fn clients(&self) -> usize {
        1
    }

    fn deck(&self) -> usize {
        LARGE_POOL
    }

    fn next(&mut self) -> Submission {
        let index = self.next % LARGE_POOL;
        let nonce = self.next;
        self.next += 1;
        let text = &self.programs[index];
        let analysis = self.registry.intern(index.to_string(), || Analysis {
            program: Program::Source {
                name: format!("large{index}.mmpi"),
                text: text.clone(),
            },
            scales: LARGE_SCALES.to_vec(),
            abnorm_thd: None,
            top: None,
            max_loop_depth: None,
            expected_root_cause: None,
        });
        let mut spec = self.registry.list[analysis].clone();
        if let Program::Source { text, .. } = &mut spec.program {
            text.push_str(&format!("// submission {nonce}\n"));
        }
        Submission {
            body: body(&spec),
            analysis,
            kind: Kind::Large,
        }
    }

    fn analyses(&self) -> &[Analysis] {
        &self.registry.list
    }

    fn priming(&mut self) -> Vec<Submission> {
        // A fixed large program (the same for every seed): warms the
        // daemon's lazy set-up; its text never recurs in the window.
        let spec = Analysis {
            program: Program::Source {
                name: "warmup.mmpi".to_string(),
                text: gen::large_program(&mut Rng::new(0, 99)),
            },
            scales: LARGE_SCALES.to_vec(),
            abnorm_thd: None,
            top: None,
            max_loop_depth: None,
            expected_root_cause: None,
        };
        vec![Submission {
            body: body(&spec),
            analysis: usize::MAX,
            kind: Kind::Large,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions};

    #[test]
    fn distinct_loop_depths_leave_every_app_psg_unchanged() {
        // What makes `cold_apps` submissions unique must not change
        // what is analysed.
        for app in scalana_apps::all_apps() {
            let default = build_psg(&app.program, &PsgOptions::default());
            let deep = build_psg(
                &app.program,
                &PsgOptions {
                    max_loop_depth: DEPTH_BASE,
                    ..PsgOptions::default()
                },
            );
            assert_eq!(default.vertex_count(), deep.vertex_count(), "{}", app.name);
            assert_eq!(default.stats, deep.stats, "{}", app.name);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        for name in WORKLOADS {
            let mut a = build(name, 9, true).expect("known workload");
            let mut b = build(name, 9, true).expect("known workload");
            let (pa, pb) = (a.priming(), b.priming());
            assert_eq!(pa.len(), pb.len());
            for _ in 0..3 * a.deck() {
                let (x, y) = (a.next(), b.next());
                assert_eq!((x.body, x.analysis, x.kind), (y.body, y.analysis, y.kind));
            }
        }
    }
}

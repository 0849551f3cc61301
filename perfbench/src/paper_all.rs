//! `paper-all`: what `cloudy-repro all` does, cut into the calls
//! `Study::run` is made of, so that world and population building are
//! timed as set-up and both campaigns plus all twenty figures as work.

use crate::harness::{cpu_now, Digest, Out, Tracer, Workload, THREADS};
use cloudy_core::experiments::{run_one, ExperimentId};
use cloudy_core::study::build_registry;
use cloudy_core::{Study, StudyConfig};
use cloudy_geo::CountryCode;
use cloudy_measure::campaign::{execute_tasks_into, warm_route_cache};
use cloudy_measure::{plan, Dataset, FailureStats};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::{atlas, speedchecker, Population};
use cloudy_topology::{Asn, Registry};
use std::collections::HashMap;

pub struct PaperAll {
    config: StudyConfig,
    /// The last leg's study, dropped by the untimed check.
    study: Option<Study>,
    /// (slug, raw digest, canonical digest) of each artifact: the first
    /// leg's, and the last leg's.
    first: Vec<(&'static str, Digest, Digest)>,
    artifacts: Vec<(&'static str, Digest, Digest)>,
}

/// Artifacts whose row order among ties follows `HashMap` iteration order,
/// so that it differs from run to run with or without tracing (fig1 and
/// fig2 rank continents by probe count, fig14 ranks countries by spread and
/// many share a spread of 0 km). The
/// traced-equals-untraced check compares their rows as a sorted multiset;
/// a raw byte difference is reported as a known defect and counted in
/// `core.unstable_artifacts`, but does not fail the run.
const UNSTABLE_ROW_ORDER: [&str; 3] = ["fig1", "fig2", "fig14"];

impl PaperAll {
    /// SC 10 %, Atlas 25 %, 30 days (smoke: SC 1.2 %, Atlas 15 %, 3 days).
    pub fn new(seed: u64, smoke: bool) -> PaperAll {
        let mut config = StudyConfig::tiny(seed);
        (
            config.sc_fraction,
            config.atlas_fraction,
            config.duration_days,
        ) = if smoke {
            (0.012, 0.15, 3)
        } else {
            (0.10, 0.25, 30)
        };
        config.threads = THREADS;
        PaperAll {
            config,
            study: None,
            first: Vec::new(),
            artifacts: Vec::new(),
        }
    }
}

pub struct World {
    sim: Simulator,
    isps_by_country: HashMap<CountryCode, Vec<Asn>>,
    registry: Registry,
    sc_pop: Population,
    atlas_pop: Population,
}

impl Workload for PaperAll {
    type Input = World;

    fn op_name(&self) -> &'static str {
        "one figure (experiments::run_one)"
    }

    fn setup(&mut self, tr: &mut Tracer, _obs: &Obs) -> Result<World, String> {
        let c = &self.config;
        let world = tr.span("netsim.build", || {
            build(&WorldConfig {
                seed: c.seed,
                isps_per_country: c.isps_per_country,
                countries: None,
            })
        });
        let (sc_pop, atlas_pop) = tr.span("probes.population", || {
            (
                speedchecker::population(&world, c.sc_fraction, c.seed ^ 0x5C),
                atlas::population(&world, c.atlas_fraction, c.seed ^ 0xA7),
            )
        });
        let isps_by_country = world.isps_by_country.clone();
        let registry = tr.span("core.registry", || build_registry(&world.net));
        let sim = tr.span("netsim.simulator", || Simulator::new(world.net));
        Ok(World {
            sim,
            isps_by_country,
            registry,
            sc_pop,
            atlas_pop,
        })
    }

    fn work(&mut self, w: World, tr: &mut Tracer, obs: &Obs) -> Result<Out, String> {
        let mut out = Out::default();
        let mut cfg = self.config.campaign_config();
        cfg.obs = obs.clone();
        let mut totals = FailureStats::default();
        let (mut tasks, mut pairs) = (0u64, 0u64);
        let mut run = |pop: &Population, tr: &mut Tracer| -> Result<Dataset, String> {
            let schedule = tr.span("measure.plan", || plan::plan(&cfg.plan, pop));
            pairs += tr.span("measure.warm_routes", || {
                warm_route_cache(&w.sim, pop, &cfg.artifacts, &schedule.tasks)
            }) as u64;
            tasks += schedule.tasks.len() as u64;
            let mut ds = Dataset::new(pop.platform);
            let stats = tr
                .span("measure.execute", || {
                    execute_tasks_into(&cfg, &w.sim, pop, &schedule.tasks, &mut ds)
                })
                .map_err(|e| format!("campaign: {e}"))?;
            totals.merge(&stats);
            Ok(ds)
        };
        let sc = run(&w.sc_pop, tr)?;
        let atlas = run(&w.atlas_pop, tr)?;
        out.attempted += 2;

        let cache = w.sim.route_cache().stats();
        out.records =
            (sc.pings.len() + sc.traces.len() + atlas.pings.len() + atlas.traces.len()) as u64;
        out.count("measure.tasks", tasks as f64);
        out.count("measure.route_pairs", pairs as f64);
        out.count("measure.records", out.records as f64);
        out.count("measure.retries", totals.retries as f64);
        out.count("netsim.route_cache_hit_ratio", cache.hit_rate());
        out.count("netsim.route_cache_entries", cache.entries as f64);

        let study = Study {
            config: self.config.clone(),
            sim: w.sim,
            isps_by_country: w.isps_by_country,
            registry: w.registry,
            sc,
            atlas,
        };
        let mut artifacts = Vec::new();
        for id in ExperimentId::ALL {
            let t0 = cpu_now();
            let artifact = tr.span(&format!("core.experiment.{}", id.slug()), || {
                run_one(&study, id)
            });
            out.ops_ms.push((cpu_now() - t0) * 1e3);
            out.attempted += 1;
            out.failed += u64::from(artifact.is_empty());
            let mut raw = Digest::default();
            raw.update(artifact.as_bytes());
            let mut canonical = Digest::default();
            if UNSTABLE_ROW_ORDER.contains(&id.slug()) {
                let mut rows: Vec<&str> = artifact.lines().collect();
                rows.sort_unstable();
                rows.iter().for_each(|row| canonical.update(row.as_bytes()));
            } else {
                canonical = raw;
            }
            out.digest.update(&canonical.0.to_le_bytes());
            artifacts.push((id.slug(), raw, canonical));
        }
        self.study = Some(study);
        self.artifacts = artifacts;
        Ok(out)
    }

    fn check(&mut self, out: &mut Out) -> Vec<String> {
        // Every leg, traced or not, must render the artifacts of the first.
        self.study = None;
        let artifacts = std::mem::take(&mut self.artifacts);
        if self.first.is_empty() {
            self.first = artifacts.clone();
        }
        let mut problems = Vec::new();
        let mut unstable = 0;
        for ((slug, raw, canonical), (_, raw0, canonical0)) in artifacts.iter().zip(&self.first) {
            if canonical != canonical0 {
                problems.push(format!("paper-all: {slug} differs from the first leg"));
            } else if raw != raw0 {
                println!(
                    "defect {slug}: row order differs from the first leg (HashMap iteration order)"
                );
                unstable += 1;
            }
        }
        out.count("core.unstable_artifacts", f64::from(unstable));
        if out.records == 0 {
            problems.push("paper-all: campaigns produced no records".to_string());
        }
        if out.digest == Digest::default() {
            problems.push("paper-all: no artifact rendered".to_string());
        }
        problems
    }
}

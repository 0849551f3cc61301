//! `intercloud-placement`: the region-to-region campaign (4 regions per
//! provider, 24 hours) into a store, the provider gap matrix over it, and
//! a closed loop of placement requests over a user-campaign store. The
//! only workload on cloud-ping rows, the path cache and the optimizer.

use crate::harness::{cpu_now, Out, Tracer, Workload, THREADS};
use cloudy_intercloud::{
    brute_force, choose, execute_tasks_into, latency_matrix, plan, roster, stats_from_store,
    IntercloudConfig, Placement, PlacementStats,
};
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::campaign::{execute_tasks_into as execute_user, warm_route_cache};
use cloudy_measure::plan::PlanConfig;
use cloudy_measure::{plan as user_plan, CampaignConfig};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::{speedchecker, Platform};
use cloudy_store::{Reader, Writer, WriterOptions};

/// Seed of the parts whose cost would otherwise depend on the seed by up
/// to 30 % (which regions are paired; which countries and regions the
/// user store covers): the region roster and the whole user store. The
/// run's seed drives the RTT draws of the inter-cloud campaign.
const FIXED_SEED: u64 = 1;

/// Every placement request shortlists 16 candidates and picks 3 regions.
const SHORTLIST: usize = 16;
const K: usize = 3;

pub struct Input {
    users: Reader,
}

pub struct Intercloud {
    cfg: IntercloudConfig,
    user_days: u32,
    requests: usize,
    /// Outputs of the last leg, for the untimed check: matrix rows, the
    /// first placement with its restricted stats, and the stores.
    kept: Option<Kept>,
    checked: bool,
}

struct Kept {
    matrix_rows: usize,
    first: Option<(PlacementStats, Placement)>,
    stores: (Reader, Reader),
}

impl Intercloud {
    /// 4 regions per provider for 24 h; a 2 %, 2-day user store; 100
    /// placement requests (smoke: 2 regions per provider, 2 h, 1 day, 6).
    pub fn new(seed: u64, smoke: bool) -> Intercloud {
        let (regions, hours, user_days, requests) =
            if smoke { (2, 2, 1, 6) } else { (4, 24, 2, 100) };
        let cfg = IntercloudConfig {
            seed,
            regions_per_provider: regions,
            hours,
            threads: THREADS,
            ..IntercloudConfig::default()
        };
        Intercloud {
            cfg,
            user_days,
            requests,
            kept: None,
            checked: false,
        }
    }
}

impl Workload for Intercloud {
    type Input = Input;

    fn op_name(&self) -> &'static str {
        "one placement request (stats_from_store + restrict_to_top + choose)"
    }

    /// The user-campaign store the optimizer reads, on the full world so
    /// that every country with users weighs in the objective.
    fn setup(&mut self, tr: &mut Tracer, _obs: &Obs) -> Result<Input, String> {
        let world = tr.span("netsim.build", || {
            build(&WorldConfig {
                seed: FIXED_SEED,
                isps_per_country: 2,
                countries: None,
            })
        });
        let pop = tr.span("probes.population", || {
            speedchecker::population(&world, 0.02, FIXED_SEED)
        });
        let sim = Simulator::new(world.net);
        let cfg = CampaignConfig {
            plan: PlanConfig {
                seed: FIXED_SEED,
                duration_days: self.user_days,
                ..PlanConfig::default()
            },
            artifacts: ArtifactConfig::realistic(),
            threads: THREADS,
            ..CampaignConfig::default()
        };
        let schedule = tr.span("measure.plan", || user_plan::plan(&cfg.plan, &pop));
        tr.span("measure.warm_routes", || {
            warm_route_cache(&sim, &pop, &cfg.artifacts, &schedule.tasks)
        });
        let bytes = tr
            .span("measure.execute", || {
                let mut w =
                    Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())
                        .map_err(|e| e.to_string())?;
                execute_user(&cfg, &sim, &pop, &schedule.tasks, &mut w)
                    .map_err(|e| e.to_string())?;
                w.finish().map(|(b, _)| b).map_err(|e| e.to_string())
            })
            .map_err(|e| format!("user campaign: {e}"))?;
        let users = Reader::from_bytes(bytes).map_err(|e| format!("user store: {e}"))?;
        Ok(Input { users })
    }

    fn work(&mut self, input: Input, tr: &mut Tracer, obs: &Obs) -> Result<Out, String> {
        let mut out = Out::default();
        let (roster, tasks) = tr.span("intercloud.plan", || {
            let r = roster(&IntercloudConfig {
                seed: FIXED_SEED,
                ..self.cfg.clone()
            });
            let t = plan(&self.cfg, &r);
            (r, t)
        });
        let mut w = Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())
            .map_err(|e| format!("writer: {e}"))?;
        w.set_obs(obs.clone());
        let stats = tr
            .span("intercloud.execute", || {
                execute_tasks_into(&self.cfg, &roster, &tasks, &mut w)
            })
            .map_err(|e| format!("inter-cloud campaign: {e}"))?;
        let (bytes, summary) = tr
            .span("store.write", || w.finish())
            .map_err(|e| format!("store finish: {e}"))?;
        out.attempted += 1;
        out.records = stats.delivered + stats.lost;
        out.digest.update(&bytes);
        out.count("intercloud.tasks", stats.tasks as f64);
        out.count("store.chunks", summary.chunks as f64);
        out.count(
            "store.bytes_per_row",
            summary.bytes as f64 / out.records.max(1) as f64,
        );

        let mut cloud = tr
            .span("store.open", || Reader::from_bytes(bytes))
            .map_err(|e| format!("store open: {e}"))?;
        cloud.set_obs(obs.clone());
        let matrix = tr
            .span("intercloud.matrix", || latency_matrix(&cloud))
            .map_err(|e| format!("matrix: {e}"))?;
        out.attempted += 1;
        for row in &matrix {
            out.digest.update(&row.gap_ms.to_bits().to_le_bytes());
        }

        let mut first = None;
        for _ in 0..self.requests {
            let t0 = cpu_now();
            let result = tr
                .span("intercloud.placement_stats", || {
                    stats_from_store(&input.users)
                })
                .and_then(|mut s| {
                    out.count("intercloud.candidates", s.candidates.len() as f64);
                    tr.span("intercloud.restrict", || s.restrict_to_top(SHORTLIST));
                    tr.span("intercloud.choose", || choose(&s, K))
                        .map(|p| (s, p))
                });
            out.ops_ms.push((cpu_now() - t0) * 1e3);
            out.attempted += 1;
            match result {
                Ok((s, p)) => {
                    out.digest.update(&p.p95_ms.to_bits().to_le_bytes());
                    if first.is_none() {
                        first = Some((s, p));
                    }
                }
                Err(e) => {
                    eprintln!("placement: {e}");
                    out.failed += 1;
                }
            }
        }
        self.kept = Some(Kept {
            matrix_rows: matrix.len(),
            first,
            stores: (cloud, input.users),
        });
        Ok(out)
    }

    fn check(&mut self, _out: &mut Out) -> Vec<String> {
        let Some(kept) = self.kept.take() else {
            return vec!["intercloud-placement: nothing kept".into()];
        };
        let mut problems = Vec::new();
        let providers = self.cfg.providers.len();
        if kept.matrix_rows != providers * providers {
            problems.push(format!(
                "intercloud-placement: matrix has {} rows, expected {}",
                kept.matrix_rows,
                providers * providers
            ));
        }
        if let (false, Some((stats, got))) =
            (std::mem::replace(&mut self.checked, true), &kept.first)
        {
            match brute_force(stats, K) {
                Ok(want) if want == *got => {}
                Ok(want) => {
                    problems.push(format!("placement: choose {got:?} != brute force {want:?}"))
                }
                Err(e) => problems.push(format!("placement: brute force failed: {e}")),
            }
        }
        drop(kept.stores);
        problems
    }
}

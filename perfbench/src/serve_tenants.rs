//! `serve-tenants`: the virtual-time `Service` with 50 tenants for 16
//! virtual hours, stepped one virtual minute at a time by one closed-loop
//! client that takes a top-10 snapshot after every step.

use crate::harness::{cpu_now, Out, Tracer, Workload, THREADS};
use cloudy_obs::Obs;
use cloudy_serve::{default_world, ServeConfig, Service};
use cloudy_store::Reader;

const STEP_MS: u64 = 60_000;

/// Seed of the service's 4-country world. With the world drawn from the
/// run's seed, the step phase of one seed cost up to 30 % more than that
/// of another (0.81–0.91 s against 1.10–1.14 s, measured back to back).
/// The run's seed drives the probe population and every tenant's plan and
/// traffic.
const WORLD_SEED: u64 = 1;

pub struct ServeTenants {
    seed: u64,
    tenants: u32,
    hours: u64,
    /// Store bytes of the last leg, handed to the untimed check.
    bytes: Option<Vec<u8>>,
}

impl ServeTenants {
    /// 50 tenants, 16 virtual hours (smoke: 6 tenants, 1 hour). A service
    /// cannot be copied, so every leg builds one; at 100 tenants for 4
    /// hours that set-up took 70 % of a leg, and run-to-run spread of the
    /// steps was twice what it is here, where half the tenants run four
    /// times as long for about the same records per leg (~1.1 million).
    pub fn new(seed: u64, smoke: bool) -> ServeTenants {
        let (tenants, hours) = if smoke { (6, 1) } else { (50, 16) };
        ServeTenants {
            seed,
            tenants,
            hours,
            bytes: None,
        }
    }
}

impl Workload for ServeTenants {
    type Input = Service;

    fn op_name(&self) -> &'static str {
        "one step (run_until one virtual minute + top-10 snapshot)"
    }

    fn setup(&mut self, tr: &mut Tracer, obs: &Obs) -> Result<Service, String> {
        let cfg = ServeConfig {
            seed: self.seed,
            tenants: self.tenants,
            hours: self.hours,
            threads: THREADS,
            obs: obs.clone(),
            ..ServeConfig::default()
        };
        tr.span("serve.new", || {
            Service::with_world(cfg, default_world(WORLD_SEED))
        })
        .map_err(|e| format!("service: {e}"))
    }

    fn work(&mut self, mut svc: Service, tr: &mut Tracer, _obs: &Obs) -> Result<Out, String> {
        let mut out = Out::default();
        for step in 1..=self.hours * 60 {
            let t0 = cpu_now();
            let ran = tr.span("serve.run_until", || svc.run_until(step * STEP_MS));
            let snap = tr.span("serve.snapshot", || svc.snapshot(10));
            out.ops_ms.push((cpu_now() - t0) * 1e3);
            out.attempted += 1;
            if let Err(e) = ran {
                eprintln!("serve step {step}: {e}");
                out.failed += 1;
            }
            out.digest.update(&snap.records.to_le_bytes());
        }
        let (report, bytes) = tr
            .span("serve.finish", || svc.finish())
            .map_err(|e| format!("service finish: {e}"))?;
        out.attempted += 1;
        out.records = report.records;
        out.digest.update(&bytes);
        out.count("serve.events", report.events as f64);
        out.count(
            "serve.admit_ratio",
            report.admitted as f64 / report.submissions.max(1) as f64,
        );
        out.count(
            "store.bytes_per_row",
            bytes.len() as f64 / report.records.max(1) as f64,
        );
        for p in report.reconcile() {
            eprintln!("serve report does not reconcile: {p}");
            out.failed += 1;
        }
        self.bytes = Some(bytes);
        Ok(out)
    }

    fn check(&mut self, out: &mut Out) -> Vec<String> {
        // Store bytes of every leg, traced or not, must equal the first
        // leg's: the harness compares digests that cover them.
        let Some(bytes) = self.bytes.take() else {
            return vec!["serve-tenants: no store bytes".into()];
        };
        match Reader::from_bytes(bytes) {
            Ok(r) => {
                out.count("store.chunks", r.chunks().len() as f64);
                Vec::new()
            }
            Err(e) => vec![format!("serve-tenants: store bytes do not open: {e}")],
        }
    }
}

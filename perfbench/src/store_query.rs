//! `store-query`: run a seeded Speedchecker campaign into memory (set-up),
//! then ingest its records through `store::Writer` in campaign order, open
//! the bytes with `Reader::from_bytes` and issue a seeded, equal-share mix
//! of six query shapes. The timed part never plans, routes or analyses, so
//! it is the no-change control for those layers.

use crate::harness::{cpu_now, Out, Tracer, Workload, THREADS};
use cloudy_cloud::Provider;
use cloudy_geo::CountryCode;
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::campaign::{execute_tasks_into, warm_route_cache};
use cloudy_measure::plan::PlanConfig;
use cloudy_measure::{
    plan, CampaignConfig, CloudPingRecord, MeasureError, PingRecord, RecordSink, TracerouteRecord,
};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::rng::splitmix64;
use cloudy_netsim::Simulator;
use cloudy_obs::Obs;
use cloudy_probes::{speedchecker, Platform};
use cloudy_store::{
    Agg, ChunkRows, GroupId, GroupKey, Query, Reader, ScanFilter, ScanStats, Writer, WriterOptions,
};
use std::collections::BTreeMap;

/// The six query shapes, in [`Shape::index`] order.
pub const SHAPES: [&str; 6] = [
    "provider",
    "country",
    "hours",
    "groupby-country",
    "groupby-provider",
    "summary-exact",
];

/// Distinct query mixes a run draws; leg `k` issues mix `k % MIXES`. The
/// cost of one query depends on its draw (an `hours` window spans 1 to 8
/// days, a `summary-exact` bound keeps few rows or most), so a single mix
/// repeated on every leg made the whole run's cost depend on the seed:
/// the mean query time moved by 25 % between seeds while set-up, run in
/// the same minutes, did not. Sixteen mixes cover a run's legs.
const MIXES: usize = 16;

/// Deterministic query-mix generator (SplitMix64): the same seed always
/// yields the same queries.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0) % n.max(1)
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Provider(Provider),
    Country(CountryCode),
    Hours(u64, u64),
    GroupByCountry,
    GroupByProvider,
    /// Exact-quantile summary of every row at or below an RTT bound.
    SummaryExact(f64),
}

impl Shape {
    fn index(&self) -> usize {
        match self {
            Shape::Provider(_) => 0,
            Shape::Country(_) => 1,
            Shape::Hours(..) => 2,
            Shape::GroupByCountry => 3,
            Shape::GroupByProvider => 4,
            Shape::SummaryExact(_) => 5,
        }
    }
}

/// A query's answer in a form the oracle can rebuild.
#[derive(Debug, PartialEq)]
enum Answer {
    /// Matching RTTs, sorted.
    Values(Vec<f64>),
    /// Per group: (group, count, mean).
    Groups(Vec<(GroupId, u64, f64)>),
}

#[derive(Clone)]
enum Row {
    Ping(PingRecord),
    Trace(TracerouteRecord),
}

/// Keeps a campaign's records in arrival order, the order a store
/// `Writer` streamed by the same campaign would receive them in.
#[derive(Default)]
struct Rows(Vec<Row>);

impl RecordSink for Rows {
    fn sink_ping(&mut self, r: PingRecord) -> Result<(), MeasureError> {
        self.0.push(Row::Ping(r));
        Ok(())
    }

    fn sink_trace(&mut self, r: TracerouteRecord) -> Result<(), MeasureError> {
        self.0.push(Row::Trace(r));
        Ok(())
    }

    fn sink_cloud(&mut self, _r: CloudPingRecord) -> Result<(), MeasureError> {
        Err(MeasureError::sink(
            "a user campaign emits no inter-cloud rows",
        ))
    }
}

#[derive(Clone)]
pub struct Input {
    rows: Vec<Row>,
    /// [`MIXES`] query mixes.
    mixes: Vec<Vec<Shape>>,
}

pub struct StoreQuery {
    seed: u64,
    fraction: f64,
    days: u32,
    queries: usize,
    /// Legs run so far, which picks the query mix.
    legs: usize,
    /// The last leg's reader and the answers to the first execution of
    /// each shape (first leg only), for the untimed oracle check.
    kept: Option<(Reader, Vec<(Shape, Answer)>)>,
    checked: bool,
}

impl StoreQuery {
    /// A 10 % Speedchecker campaign over 52 days, ~500k records (the daily
    /// API quota caps a day at 11 520 tasks, and lost pings leave no
    /// record), and 24 queries per leg; a run's ten or more legs issue
    /// over 200 (smoke: 1.2 %, 2 days, 12 queries).
    pub fn new(seed: u64, smoke: bool) -> StoreQuery {
        let (fraction, days, queries) = if smoke {
            (0.012, 2, 12)
        } else {
            (0.10, 52, 24)
        };
        StoreQuery {
            seed,
            fraction,
            days,
            queries,
            legs: 0,
            kept: None,
            checked: false,
        }
    }

    fn campaign(&self, tr: &mut Tracer) -> Result<Vec<Row>, String> {
        let world = tr.span("netsim.build", || {
            build(&WorldConfig {
                seed: self.seed,
                isps_per_country: 2,
                countries: None,
            })
        });
        let pop = tr.span("probes.population", || {
            speedchecker::population(&world, self.fraction, self.seed)
        });
        let sim = Simulator::new(world.net);
        let cfg = CampaignConfig {
            plan: PlanConfig {
                seed: self.seed,
                duration_days: self.days,
                ..PlanConfig::default()
            },
            artifacts: ArtifactConfig::realistic(),
            threads: THREADS,
            ..CampaignConfig::default()
        };
        let schedule = tr.span("measure.plan", || plan::plan(&cfg.plan, &pop));
        tr.span("measure.warm_routes", || {
            warm_route_cache(&sim, &pop, &cfg.artifacts, &schedule.tasks)
        });
        let mut rows = Rows::default();
        tr.span("measure.execute", || {
            execute_tasks_into(&cfg, &sim, &pop, &schedule.tasks, &mut rows)
        })
        .map_err(|e| format!("campaign: {e}"))?;
        Ok(rows.0)
    }

    /// One equal-share shuffled mix of the six shapes. Countries are drawn
    /// as the country of a random row, so that they follow the campaign's
    /// own spread.
    fn query_mix(&self, rows: &[Row], rng: &mut Rng) -> Vec<Shape> {
        let hours = u64::from(self.days) * 24;
        let mut out: Vec<Shape> = (0..self.queries)
            .map(|i| match i % 6 {
                0 => Shape::Provider(Provider::FIGURE_NINE[rng.below(9) as usize]),
                1 => Shape::Country(match &rows[rng.below(rows.len() as u64) as usize] {
                    Row::Ping(r) => r.country,
                    Row::Trace(r) => r.country,
                }),
                2 => {
                    let lo = rng.below(hours);
                    Shape::Hours(lo, lo + 24 + rng.below(7 * 24))
                }
                3 => Shape::GroupByCountry,
                4 => Shape::GroupByProvider,
                _ => Shape::SummaryExact(20.0 + rng.below(180) as f64),
            })
            .collect();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out
    }
}

fn run_query(reader: &Reader, shape: Shape) -> Result<(Answer, ScanStats), String> {
    let q = Query::rtts().threads(THREADS);
    let values = |q: Query| {
        q.values(reader).map(|(mut v, s)| {
            v.sort_by(f64::total_cmp);
            (Answer::Values(v), s)
        })
    };
    let grouped = |key: GroupKey| {
        q.clone()
            .group_by(key)
            .aggregate(Agg::Moments | Agg::P2Quantiles)
            .grouped(reader)
            .map(|(t, s)| {
                let rows = t
                    .into_iter()
                    .map(|(id, r)| (id, r.count, r.moments.map_or(f64::NAN, |m| m.mean())))
                    .collect();
                (Answer::Groups(rows), s)
            })
    };
    let result = match shape {
        Shape::Provider(p) => values(q.clone().provider(p)),
        Shape::Country(c) => values(q.clone().country(c)),
        Shape::Hours(lo, hi) => values(q.clone().hours(lo, hi)),
        Shape::GroupByCountry => grouped(GroupKey::Country),
        Shape::GroupByProvider => grouped(GroupKey::Provider),
        Shape::SummaryExact(max) => q
            .clone()
            .max_rtt_ms(max)
            .aggregate(Agg::ExactQuantiles)
            .summary(reader)
            .map(|(row, s)| {
                let mut v = row.values.unwrap_or_default();
                v.sort_by(f64::total_cmp);
                (Answer::Values(v), s)
            }),
    };
    result.map_err(|e| format!("query {shape:?}: {e}"))
}

/// One decoded row as the oracle sees it: (provider, country, hour, RTT).
type Flat = (Provider, CountryCode, u64, f64);

/// Decode-then-filter oracle: decode every chunk whole, then answer the
/// shape by filtering full records in plain code.
fn oracle(reader: &Reader, shape: Shape) -> Result<Answer, String> {
    let mut rows: Vec<Flat> = Vec::new();
    reader
        .for_each(&ScanFilter::default(), |chunk| match chunk {
            ChunkRows::Pings(v) => rows.extend(
                v.iter()
                    .filter_map(|r| Some((r.provider, r.country, r.hour, r.rtt_ms()?))),
            ),
            ChunkRows::Traces(v) => rows.extend(
                v.iter()
                    .filter_map(|r| Some((r.provider, r.country, r.hour, r.outcome.rtt_ms()?))),
            ),
            ChunkRows::CloudPings(_) => {}
        })
        .map_err(|e| format!("oracle decode: {e}"))?;
    let values = |keep: &dyn Fn(&Flat) -> bool| {
        let mut v: Vec<f64> = rows.iter().filter(|r| keep(r)).map(|r| r.3).collect();
        v.sort_by(f64::total_cmp);
        Answer::Values(v)
    };
    let groups = |key: &dyn Fn(&Flat) -> GroupId| {
        let mut acc: BTreeMap<GroupId, (u64, f64)> = BTreeMap::new();
        for r in &rows {
            let e = acc.entry(key(r)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += r.3;
        }
        Answer::Groups(
            acc.into_iter()
                .map(|(id, (n, sum))| (id, n, sum / n as f64))
                .collect(),
        )
    };
    Ok(match shape {
        Shape::Provider(p) => values(&|r| r.0 == p),
        Shape::Country(c) => values(&|r| r.1 == c),
        Shape::Hours(lo, hi) => values(&|r| (lo..=hi).contains(&r.2)),
        Shape::GroupByCountry => groups(&|r| GroupId::Country(r.1)),
        Shape::GroupByProvider => groups(&|r| GroupId::Provider(r.0)),
        Shape::SummaryExact(max) => values(&|r| r.3 <= max),
    })
}

/// Equal up to the summation-order error of a mean.
fn same(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Values(x), Answer::Values(y)) => x == y,
        (Answer::Groups(x), Answer::Groups(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| {
                    p.0 == q.0 && p.1 == q.1 && (p.2 - q.2).abs() <= 1e-9 * p.2.abs().max(1.0)
                })
        }
        _ => false,
    }
}

impl Workload for StoreQuery {
    type Input = Input;

    fn op_name(&self) -> &'static str {
        "one store query"
    }

    /// The campaign takes longer than the timed part, so legs after the
    /// first few run on a copy of its rows.
    fn fork(&self, input: &Input) -> Option<Input> {
        Some(input.clone())
    }

    fn setup(&mut self, tr: &mut Tracer, _obs: &Obs) -> Result<Input, String> {
        let rows = self.campaign(tr)?;
        if rows.is_empty() {
            return Err("store-query: the campaign produced no records".into());
        }
        let mut rng = Rng(self.seed ^ 0x5709);
        let mixes = (0..MIXES)
            .map(|_| self.query_mix(&rows, &mut rng))
            .collect();
        Ok(Input { rows, mixes })
    }

    fn work(&mut self, input: Input, tr: &mut Tracer, obs: &Obs) -> Result<Out, String> {
        let mut out = Out {
            records: input.rows.len() as u64,
            ..Out::default()
        };
        let (bytes, summary) = tr
            .span("store.write", || {
                let mut w =
                    Writer::new(Vec::new(), Platform::Speedchecker, WriterOptions::default())?;
                w.set_obs(obs.clone());
                for row in input.rows {
                    match row {
                        Row::Ping(r) => w.push_ping(r)?,
                        Row::Trace(r) => w.push_trace(r)?,
                    }
                }
                w.finish()
            })
            .map_err(|e| format!("store write: {e}"))?;
        out.count("store.chunks", summary.chunks as f64);
        out.count(
            "store.bytes_per_row",
            summary.bytes as f64 / out.records as f64,
        );
        out.digest.update(&bytes);

        let mut reader = tr
            .span("store.open", || Reader::from_bytes(bytes))
            .map_err(|e| format!("store open: {e}"))?;
        reader.set_obs(obs.clone());

        let mut scans = [(0u64, 0u64, 0u64, 0u64); 6];
        let mut first: Vec<(Shape, Answer)> = Vec::new();
        let mix = self.legs % MIXES;
        self.legs += 1;
        for &shape in &input.mixes[mix] {
            let t = cpu_now();
            let result = tr.span(&format!("store.query.{}", SHAPES[shape.index()]), || {
                run_query(&reader, shape)
            });
            out.ops_ms.push((cpu_now() - t) * 1e3);
            out.attempted += 1;
            let (answer, stats) = match result {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{e}");
                    out.failed += 1;
                    continue;
                }
            };
            let s = &mut scans[shape.index()];
            s.0 += stats.chunks_scanned as u64;
            s.1 += stats.chunks_total as u64;
            s.2 += stats.rows_decoded;
            s.3 += stats.rows_matched;
            if !self.checked && !first.iter().any(|(f, _)| f.index() == shape.index()) {
                first.push((shape, answer));
            }
        }
        for (name, s) in SHAPES.iter().zip(scans) {
            let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
            out.count(
                format!("store.query.{name}.chunks_scanned_ratio"),
                ratio(s.0, s.1),
            );
            out.count(
                format!("store.query.{name}.rows_decoded_per_match"),
                ratio(s.2, s.3),
            );
        }
        self.kept = Some((reader, first));
        Ok(out)
    }

    fn check(&mut self, _out: &mut Out) -> Vec<String> {
        let Some((reader, first)) = self.kept.take() else {
            return vec!["store-query: no reader".into()];
        };
        if std::mem::replace(&mut self.checked, true) {
            return Vec::new();
        }
        let mut problems = Vec::new();
        if first.len() != SHAPES.len() {
            problems.push(format!("store-query: only {} of 6 shapes ran", first.len()));
        }
        for (shape, answer) in &first {
            match oracle(&reader, *shape) {
                Ok(expected) if same(answer, &expected) => {}
                Ok(_) => problems.push(format!("store-query: {shape:?} disagrees with the oracle")),
                Err(e) => problems.push(e),
            }
        }
        problems
    }
}

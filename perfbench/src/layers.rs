//! The per-layer metric catalogue: every name a traced run emits.
//! `BENCHMARK.json` lists the same names; the smoke test checks that the
//! two agree. A name's unit and the place its value comes from follow from
//! its suffix (see [`unit`] and [`source`]).
//!
//! A layer a workload never calls through its public functions reads 0.

use crate::store_query::SHAPES;
use cloudy_core::experiments::ExperimentId;

/// Where a per-layer value comes from.
pub enum Source<'a> {
    /// `<span>_ms`: median over traced legs of the summed duration of the span.
    Total(&'a str),
    /// `<span>.p50_ms` or `<span>_p50_ms`: median duration of one instance
    /// of the span, over all traced legs.
    P50(&'a str),
    /// Anything else: median over traced legs of a count the workload read
    /// from program return values.
    Count,
    /// Wall time of the timed part not covered by a top-level span.
    Uncovered,
    /// Share of the timed part covered by top-level spans.
    Coverage,
    /// Traced `work_cpu_s` over untraced `work_cpu_s`.
    Overhead,
}

/// Names besides the per-figure and per-query-shape families.
const NAMES: &[&str] = &[
    // World and populations (set-up of every workload but serve-tenants).
    "netsim.build_ms",
    "probes.population_ms",
    "core.registry_ms",
    // Campaign planning, route warming and block execution.
    "measure.plan_ms",
    "measure.tasks",
    "measure.warm_routes_ms",
    "measure.route_pairs",
    "netsim.route_cache_hit_ratio",
    "netsim.route_cache_entries",
    "measure.execute_ms",
    "measure.records",
    "measure.retries",
    // Figures whose row order is not stable between runs.
    "core.unstable_artifacts",
    // Store writes and opening.
    "store.write_ms",
    "store.chunks",
    "store.bytes_per_row",
    "store.open_ms",
    // Service.
    "serve.new_ms",
    "serve.run_until_ms",
    "serve.snapshot_p50_ms",
    "serve.finish_ms",
    "serve.events",
    "serve.admit_ratio",
    // Inter-cloud plane.
    "intercloud.plan_ms",
    "intercloud.execute_ms",
    "intercloud.tasks",
    "intercloud.matrix_ms",
    "intercloud.placement_stats_ms",
    "intercloud.restrict_ms",
    "intercloud.choose_ms",
    "intercloud.candidates",
    // Tracing itself.
    "bench.uncovered_ms",
    "bench.span_coverage",
    "obs.overhead_ratio",
];

/// Every per-layer metric name: [`NAMES`], one `_ms` per figure and three
/// per query shape.
pub fn names() -> Vec<String> {
    let figures = ExperimentId::ALL
        .iter()
        .map(|id| format!("core.experiment.{}_ms", id.slug()));
    let shapes = SHAPES.iter().flat_map(|s| {
        ["p50_ms", "chunks_scanned_ratio", "rows_decoded_per_match"]
            .map(|m| format!("store.query.{s}.{m}"))
    });
    NAMES
        .iter()
        .map(|n| n.to_string())
        .chain(figures)
        .chain(shapes)
        .collect()
}

pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if ["_ratio", "_per_match", "_coverage"]
        .iter()
        .any(|s| name.ends_with(s))
    {
        "ratio"
    } else if name.ends_with("_per_row") {
        "B/row"
    } else {
        "count"
    }
}

pub fn source(name: &str) -> Source<'_> {
    match name {
        "bench.uncovered_ms" => Source::Uncovered,
        "bench.span_coverage" => Source::Coverage,
        "obs.overhead_ratio" => Source::Overhead,
        _ => {
            if let Some(span) = name.strip_suffix("p50_ms") {
                Source::P50(&span[..span.len() - 1])
            } else if let Some(span) = name.strip_suffix("_ms") {
                Source::Total(span)
            } else {
                Source::Count
            }
        }
    }
}

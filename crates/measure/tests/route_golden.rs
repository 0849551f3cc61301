//! Golden for route construction: every (probe, region) pair a small
//! seeded Speedchecker + Atlas plan visits, routed and pinned to the
//! interconnect, AS path, IXP, every hop's kind, IP, owner, location and
//! kilometre f64 bits, and the wide-area kilometre bits. Routes are folded
//! into one digest line per (platform, region), so the file stays small
//! while any moved bit still shows up as the region it moved in.
//!
//! Three legs must reproduce the same file: `Simulator::route` with the
//! memo filled in plan order, `Simulator::route` on a fresh simulator
//! filled in reverse order, and `Simulator::route_uncached`. A memo whose
//! key misses a routing input serves one probe's geometry to another and
//! makes the legs differ.
//!
//! Regenerate after an intentional change to route construction with:
//!
//! ```text
//! CLOUDY_BLESS=1 cargo test -p cloudy-measure --test route_golden
//! ```

use cloudy_cloud::RegionId;
use cloudy_geo::CountryCode;
use cloudy_lastmile::ArtifactConfig;
use cloudy_measure::plan::{self, PlanConfig};
use cloudy_netsim::build::{build, WorldConfig};
use cloudy_netsim::{ClientCtx, RoutePath, Simulator};
use cloudy_probes::{atlas, speedchecker, Population};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 13;

/// Vantage countries: the §6.2 case-study pairs, plus one or two per
/// continent so direct, IXP, private-transit and public paths all occur.
const COUNTRIES: [&str; 12] = [
    "DE", "GB", "UA", "JP", "IN", "BH", "US", "BR", "ZA", "KE", "AU", "EG",
];

fn world_config() -> WorldConfig {
    WorldConfig {
        seed: SEED,
        isps_per_country: 3,
        countries: Some(COUNTRIES.iter().map(|c| CountryCode::new(c)).collect()),
    }
}

/// The two populations, each with the distinct pairs of its 3-day plan and
/// the client of every probe.
struct Campaign {
    name: &'static str,
    clients: Vec<ClientCtx>,
    pairs: Vec<(u32, RegionId)>,
}

/// A fresh simulator and the two campaigns over its world.
fn setup() -> (Simulator, Vec<Campaign>) {
    let world = build(&world_config());
    let pops: [(&'static str, Population); 2] = [
        ("sc", speedchecker::population(&world, 0.01, SEED)),
        ("atlas", atlas::population(&world, 0.25, SEED)),
    ];
    let sim = Simulator::new(world.net);
    let artifacts = ArtifactConfig::realistic();
    let campaigns = pops
        .into_iter()
        .map(|(name, pop)| {
            let cfg = PlanConfig {
                seed: SEED,
                duration_days: 3,
                cycle_days: 3,
                ..PlanConfig::default()
            };
            let pairs = plan::block_pairs(&plan::plan(&cfg, &pop).tasks);
            let clients = pop
                .probes
                .iter()
                .map(|p| p.client_ctx(&sim.net, &artifacts))
                .collect();
            Campaign {
                name,
                clients,
                pairs,
            }
        })
        .collect();
    (sim, campaigns)
}

fn fresh_simulator() -> Simulator {
    Simulator::new(build(&world_config()).net)
}

/// One canonical line per route: every field a route carries, f64s as bits.
fn route_line(probe_ix: u32, region: RegionId, r: &RoutePath) -> String {
    let mut s = format!(
        "{probe_ix} {} {:?} [{}] ixp={:?} wa={:016x}",
        region.0,
        r.interconnect,
        r.as_path
            .iter()
            .map(|a| a.0.to_string())
            .collect::<Vec<_>>()
            .join(","),
        r.via_ixp.map(|x| x.0),
        r.wide_area_km.to_bits(),
    );
    for h in &r.hops {
        write!(
            s,
            " {:?}/{}/{:?}/{:016x},{:016x}/{:016x}",
            h.kind,
            h.ip,
            h.owner.map(|a| a.0),
            h.location.lat().to_bits(),
            h.location.lon().to_bits(),
            h.km_from_prev.to_bits(),
        )
        .expect("writing to a String cannot fail");
    }
    s
}

/// FNV-1a, 64-bit: a stable digest independent of std's hasher.
fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Render the golden from routes given in each campaign's pair order.
fn render(campaigns: &[Campaign], routes: &[Vec<RoutePath>]) -> String {
    let mut out = String::new();
    for (c, rs) in campaigns.iter().zip(routes) {
        let mut by_region: BTreeMap<u16, (usize, u64)> = BTreeMap::new();
        for (&(probe_ix, region), r) in c.pairs.iter().zip(rs) {
            let e = by_region
                .entry(region.0)
                .or_insert((0, 0xcbf2_9ce4_8422_2325));
            e.0 += 1;
            e.1 = fnv1a(e.1, route_line(probe_ix, region, r).as_bytes());
        }
        writeln!(
            out,
            "{} pairs={} regions={}",
            c.name,
            c.pairs.len(),
            by_region.len()
        )
        .expect("writing to a String cannot fail");
        for (region, (n, digest)) in by_region {
            writeln!(
                out,
                "{} region={region} routes={n} digest={digest:016x}",
                c.name
            )
            .expect("writing to a String cannot fail");
        }
    }
    out
}

fn routed(
    campaigns: &[Campaign],
    f: impl Fn(&ClientCtx, RegionId) -> RoutePath,
) -> Vec<Vec<RoutePath>> {
    campaigns
        .iter()
        .map(|c| {
            c.pairs
                .iter()
                .map(|&(p, r)| f(&c.clients[p as usize], r))
                .collect()
        })
        .collect()
}

#[test]
fn routes_match_golden_cached_in_either_order_and_uncached() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("routes.golden");

    let (sim, cs) = setup();
    let forward = render(&cs, &routed(&cs, |c, r| (*sim.route(c, r)).clone()));

    if std::env::var_os("CLOUDY_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &forward).expect("write blessed golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); run with CLOUDY_BLESS=1 to create it",
            path.display()
        )
    });
    let check = |leg: &str, got: &str| {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{leg}: route golden differs at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{leg}: golden line count"
        );
    };
    check("route, plan order", &forward);

    // A fresh simulator whose memo is filled from the last pair backwards.
    let rev_sim = fresh_simulator();
    let mut reversed: Vec<Vec<RoutePath>> = cs
        .iter()
        .map(|c| {
            c.pairs
                .iter()
                .rev()
                .map(|&(p, r)| (*rev_sim.route(&c.clients[p as usize], r)).clone())
                .collect()
        })
        .collect();
    for rs in &mut reversed {
        rs.reverse();
    }
    check("route, reverse order", &render(&cs, &reversed));

    check(
        "route_uncached",
        &render(&cs, &routed(&cs, |c, r| sim.route_uncached(c, r))),
    );
}

#[test]
fn golden_campaigns_cover_every_interconnect() {
    use cloudy_cloud::PeeringKind;
    let (sim, cs) = setup();
    let routes = routed(&cs, |c, r| sim.route_uncached(c, r));
    for kind in [
        PeeringKind::Direct,
        PeeringKind::IxpPublic,
        PeeringKind::PrivateTransit,
        PeeringKind::Public,
    ] {
        assert!(
            routes.iter().flatten().any(|r| r.interconnect == kind),
            "no {kind:?} route in the golden plan"
        );
    }
}

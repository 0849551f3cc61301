//! Effective routed distance between two points on Earth.
//!
//! Within a continent, fiber roughly follows the great circle times a
//! continent-specific *terrestrial stretch* (infrastructure density: Europe's
//! dense mesh barely detours, African routes famously trombone). Between
//! continents the route must chain terrestrial legs with submarine cables; we
//! compute the cheapest such chain — by effective (stretch-weighted) fiber
//! kilometres — with Dijkstra over the landing-point graph of
//! [`crate::cable`]. The paper's Fig. 6 inter-continental findings (North
//! Africa reaching Europe/NA faster than in-continent South Africa;
//! Bolivia/Peru reaching NA as fast as Brazil) are emergent properties of
//! exactly this model.

use crate::cable::{CABLES, LANDING_POINTS};
use crate::continent::Continent;
use crate::coord::GeoPoint;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Terrestrial fiber path-stretch per continent: how much longer the real
/// fiber route is than the great circle.
pub fn terrestrial_stretch(c: Continent) -> f64 {
    match c {
        Continent::Europe => 1.10,
        Continent::NorthAmerica => 1.15,
        Continent::Oceania => 1.25,
        Continent::Asia => 1.45,
        Continent::SouthAmerica => 1.60,
        Continent::Africa => 1.90,
    }
}

/// Stretch applied to submarine-cable legs (published route-km already
/// follow the seabed, so only a small residual).
pub const CABLE_STRETCH: f64 = 1.05;

/// One leg of a routed path.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteLeg {
    /// Terrestrial leg: great-circle length and the continent whose network
    /// carries it (for stretch attribution).
    Terrestrial { km: f64, continent: Continent },
    /// Traversal of a named submarine cable.
    Cable { name: &'static str, km: f64 },
}

impl RouteLeg {
    /// Raw great-circle / route kilometres.
    pub fn km(&self) -> f64 {
        match self {
            RouteLeg::Terrestrial { km, .. } | RouteLeg::Cable { km, .. } => *km,
        }
    }

    /// Infrastructure-weighted fiber kilometres.
    pub fn effective_km(&self) -> f64 {
        match self {
            RouteLeg::Terrestrial { km, continent } => km * terrestrial_stretch(*continent),
            RouteLeg::Cable { km, .. } => km * CABLE_STRETCH,
        }
    }
}

/// The routed path between two points.
#[derive(Debug, Clone)]
pub struct RoutedPath {
    pub legs: Vec<RouteLeg>,
    /// Raw kilometres (sum of leg great-circle lengths).
    pub total_km: f64,
    /// Stretch-weighted kilometres — what propagation delay is computed from.
    pub effective_km: f64,
    /// Whether any submarine cable was traversed.
    pub crosses_sea: bool,
}

/// Cheapest routed path (by effective km) between `src` on `src_continent`
/// and `dst` on `dst_continent`. Same-continent pairs route terrestrially;
/// different continents route through the cable graph (or a land bridge).
///
/// ```
/// use cloudy_geo::{routed_distance_km, Continent, GeoPoint};
/// let london = GeoPoint::new(51.51, -0.13);
/// let new_york = GeoPoint::new(40.71, -74.01);
/// let path = routed_distance_km(london, Continent::Europe, new_york, Continent::NorthAmerica);
/// assert!(path.crosses_sea);
/// assert!(path.effective_km > london.haversine_km(&new_york));
/// ```
pub fn routed_distance_km(
    src: GeoPoint,
    src_continent: Continent,
    dst: GeoPoint,
    dst_continent: Continent,
) -> RoutedPath {
    if src_continent == dst_continent {
        let km = src.haversine_km(&dst);
        let leg = RouteLeg::Terrestrial { km, continent: src_continent };
        return RoutedPath {
            effective_km: leg.effective_km(),
            legs: vec![leg],
            total_km: km,
            crosses_sea: false,
        };
    }
    shortest_cable_route(src, src_continent, dst, dst_continent)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    cost: f64,
    node_ix: usize,
}

impl Eq for QueueEntry {}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost; NaN never enters the queue.
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Graph node indices: the virtual source and destination, then landing
/// point `k` at `LANDING + k`.
const SOURCE: usize = 0;
const DEST: usize = 1;
const LANDING: usize = 2;

/// One directed edge: neighbour node, effective cost, and the leg it adds.
type Edge = (usize, f64, RouteLeg);

/// The part of the graph that does not depend on the endpoints: for each
/// landing point, its terrestrial edges to the other landing points (in
/// landing order) and then its cables (in [`CABLES`] order). Built once.
fn landing_edges() -> &'static [Vec<Edge>] {
    static EDGES: OnceLock<Vec<Vec<Edge>>> = OnceLock::new();
    EDGES.get_or_init(|| {
        let n = LANDING_POINTS.len();
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (&LANDING_POINTS[i], &LANDING_POINTS[j]);
                // Terrestrial edge on the cheapest shared continent.
                let best = Continent::ALL
                    .iter()
                    .filter(|&&c| a.serves(c) && b.serves(c))
                    .map(|&c| (terrestrial_stretch(c), c))
                    .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
                if let Some((_, cont)) = best {
                    let km = a.location().haversine_km(&b.location());
                    let leg = RouteLeg::Terrestrial { km, continent: cont };
                    let cost = leg.effective_km();
                    adj[i].push((LANDING + j, cost, leg.clone()));
                    adj[j].push((LANDING + i, cost, leg));
                }
            }
        }
        for c in CABLES {
            let (i, j) = (c.a.0 as usize, c.b.0 as usize);
            let leg = RouteLeg::Cable { name: c.name, km: c.length_km };
            let cost = leg.effective_km();
            adj[i].push((LANDING + j, cost, leg.clone()));
            adj[j].push((LANDING + i, cost, leg));
        }
        adj
    })
}

/// An endpoint's terrestrial edges, indexed by landing point: `(cost, leg)`
/// to each landing point serving `continent`, `None` for the rest. The
/// great circle runs from the endpoint to the landing point.
fn access_edges(p: GeoPoint, continent: Continent) -> Vec<Option<(f64, RouteLeg)>> {
    LANDING_POINTS
        .iter()
        .map(|lp| {
            lp.serves(continent).then(|| {
                let leg = RouteLeg::Terrestrial { km: p.haversine_km(&lp.location()), continent };
                (leg.effective_km(), leg)
            })
        })
        .collect()
}

/// Dijkstra over the cable graph between endpoints on different
/// continents. Per call only the endpoints' access edges are built; the
/// landing-to-landing edges come from [`landing_edges`]. Every node
/// relaxes its edges in the order a full adjacency list would hold them
/// (source, destination, other landings in index order, cables), so the
/// cost sums and equal-cost tie-breaks do not depend on how the graph is
/// stored.
fn shortest_cable_route(
    src: GeoPoint,
    src_continent: Continent,
    dst: GeoPoint,
    dst_continent: Continent,
) -> RoutedPath {
    let n = LANDING + LANDING_POINTS.len();
    let landing = landing_edges();
    let src_edges = access_edges(src, src_continent);
    let dst_edges = access_edges(dst, dst_continent);

    // Dijkstra from the source to the destination on effective cost.
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(usize, &RouteLeg)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[SOURCE] = 0.0;
    heap.push(QueueEntry { cost: 0.0, node_ix: SOURCE });
    while let Some(QueueEntry { cost, node_ix }) = heap.pop() {
        if cost > dist[node_ix] {
            continue;
        }
        if node_ix == DEST {
            break;
        }
        let mut relax = |next: usize, w: f64, leg| {
            let nd = cost + w;
            if nd < dist[next] {
                dist[next] = nd;
                prev[next] = Some((node_ix, leg));
                heap.push(QueueEntry { cost: nd, node_ix: next });
            }
        };
        if node_ix == SOURCE {
            for (k, edge) in src_edges.iter().enumerate() {
                if let Some((w, leg)) = edge {
                    relax(LANDING + k, *w, leg);
                }
            }
        } else {
            let k = node_ix - LANDING;
            if let Some((w, leg)) = &src_edges[k] {
                relax(SOURCE, *w, leg);
            }
            if let Some((w, leg)) = &dst_edges[k] {
                relax(DEST, *w, leg);
            }
            for (next, w, leg) in &landing[k] {
                relax(*next, *w, leg);
            }
        }
    }

    // Reconstruct. The cable graph is connected across all continents, so a
    // route always exists; fall back to a raw great circle defensively.
    if !dist[DEST].is_finite() {
        let km = src.haversine_km(&dst);
        let leg = RouteLeg::Terrestrial { km, continent: src_continent };
        return RoutedPath {
            effective_km: leg.effective_km(),
            legs: vec![leg],
            total_km: km,
            crosses_sea: true,
        };
    }
    let mut legs = Vec::new();
    let mut cur = DEST;
    while let Some((p, leg)) = prev[cur] {
        legs.push(leg.clone());
        cur = p;
    }
    legs.reverse();
    let crosses_sea = legs.iter().any(|l| matches!(l, RouteLeg::Cable { .. }));
    let total_km = legs.iter().map(|l| l.km()).sum();
    RoutedPath { legs, total_km, effective_km: dist[DEST], crosses_sea }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::by_name;
    use crate::country::lookup_str;

    fn city_point(name: &str) -> GeoPoint {
        by_name(name).unwrap().1.location()
    }
    fn continent_of(cc: &str) -> Continent {
        lookup_str(cc).unwrap().continent
    }

    #[test]
    fn same_continent_is_stretched_great_circle() {
        let p = routed_distance_km(
            city_point("Berlin"),
            Continent::Europe,
            city_point("Madrid"),
            Continent::Europe,
        );
        assert!(!p.crosses_sea);
        assert_eq!(p.legs.len(), 1);
        let gc = city_point("Berlin").haversine_km(&city_point("Madrid"));
        assert!((p.total_km - gc).abs() < 1e-9);
        assert!((p.effective_km - gc * 1.10).abs() < 1e-6);
    }

    #[test]
    fn transatlantic_crosses_a_cable() {
        let p = routed_distance_km(
            city_point("London"),
            Continent::Europe,
            city_point("New York"),
            Continent::NorthAmerica,
        );
        assert!(p.crosses_sea);
        assert!(p.legs.iter().any(|l| matches!(l, RouteLeg::Cable { .. })));
        let gc = city_point("London").haversine_km(&city_point("New York"));
        assert!(p.total_km >= gc, "routed {} < gc {}", p.total_km, gc);
        assert!(p.total_km < gc * 1.8, "routed {} too long vs gc {}", p.total_km, gc);
    }

    #[test]
    fn routed_distance_is_at_least_great_circle_minus_epsilon() {
        let pairs = [
            ("Tokyo", "JP", "Mumbai", "IN"),
            ("Sydney", "AU", "Los Angeles", "US"),
            ("Casablanca", "MA", "New York", "US"),
            ("Lima", "PE", "Miami", "US"),
        ];
        for (a, ca, b, cb) in pairs {
            let p = routed_distance_km(
                city_point(a),
                continent_of(ca),
                city_point(b),
                continent_of(cb),
            );
            let gc = city_point(a).haversine_km(&city_point(b));
            assert!(p.total_km >= gc * 0.98, "{a}->{b}: {} < {}", p.total_km, gc);
            assert!(p.effective_km >= p.total_km, "{a}->{b}: effective below raw");
        }
    }

    #[test]
    fn cairo_to_europe_shorter_than_cairo_to_johannesburg() {
        // The Fig. 6a phenomenon: North Africa reaches Europe faster than
        // in-continent South Africa.
        let cairo = city_point("Cairo");
        let to_frankfurt = routed_distance_km(
            cairo,
            Continent::Africa,
            city_point("Frankfurt"),
            Continent::Europe,
        );
        let to_jnb = routed_distance_km(
            cairo,
            Continent::Africa,
            city_point("Johannesburg"),
            Continent::Africa,
        );
        assert!(
            to_frankfurt.effective_km < to_jnb.effective_km,
            "Cairo->FRA {} should be < Cairo->JNB {}",
            to_frankfurt.effective_km,
            to_jnb.effective_km
        );
    }

    #[test]
    fn lima_to_miami_is_competitive_with_lima_to_sao_paulo() {
        // Fig. 6b: Peru reaches NA about as fast as in-continent Brazil,
        // thanks to the Pacific cable via Panama.
        let lima = city_point("Lima");
        let to_miami = routed_distance_km(
            lima,
            Continent::SouthAmerica,
            city_point("Miami"),
            Continent::NorthAmerica,
        );
        let to_sp = routed_distance_km(
            lima,
            Continent::SouthAmerica,
            city_point("Sao Paulo"),
            Continent::SouthAmerica,
        );
        assert!(
            to_miami.effective_km < to_sp.effective_km * 1.35,
            "Lima->MIA {} vs Lima->GRU {}",
            to_miami.effective_km,
            to_sp.effective_km
        );
    }

    #[test]
    fn legs_sum_to_totals() {
        let p = routed_distance_km(
            city_point("Tokyo"),
            Continent::Asia,
            city_point("Mumbai"),
            Continent::Asia,
        );
        let raw: f64 = p.legs.iter().map(|l| l.km()).sum();
        let eff: f64 = p.legs.iter().map(|l| l.effective_km()).sum();
        assert!((raw - p.total_km).abs() < 1e-6);
        assert!((eff - p.effective_km).abs() < 1e-6);
    }

    #[test]
    fn symmetric_within_tolerance() {
        let a = city_point("Nairobi");
        let b = city_point("London");
        let ab = routed_distance_km(a, Continent::Africa, b, Continent::Europe);
        let ba = routed_distance_km(b, Continent::Europe, a, Continent::Africa);
        assert!((ab.effective_km - ba.effective_km).abs() < 1e-6);
    }

    #[test]
    fn terrestrial_stretch_ordering_matches_infrastructure() {
        assert!(terrestrial_stretch(Continent::Europe) < terrestrial_stretch(Continent::Asia));
        assert!(terrestrial_stretch(Continent::Asia) < terrestrial_stretch(Continent::Africa));
        for c in Continent::ALL {
            assert!(terrestrial_stretch(c) >= 1.0);
        }
    }
}

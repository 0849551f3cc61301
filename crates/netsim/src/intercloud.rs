//! Cloud-to-cloud (region↔region) path construction and RTT sampling.
//!
//! The client-facing simulator answers "how far is a *user* from a region?";
//! this module answers the CloudCast question: how far are two *regions* from
//! each other, over the provider private plane versus over the public
//! Internet? Every region pair is probed twice — once per [`RouteClass`] —
//! and the private-vs-public gap becomes a computed column downstream.
//!
//! Modeling contract (load-bearing for the proptest invariant):
//!
//! * Both routes of a pair draw from the **same flow** — the flow id is keyed
//!   by (src, dst, seq) *without* the route class — so congestion shocks,
//!   processing jitter, and loss are shared events along the shared
//!   geography, and each route only scales them by its own engineered
//!   profile.
//! * Every scale factor is ordered private ≤ public: path kilometres
//!   (engineered WAN stretch < transit stretch + hub detour), queueing
//!   medians ([`QueueProfile`] ordering), spike sets (ordered spike
//!   probabilities against a shared uniform), spike factors, processing
//!   sums, and loss probabilities.
//! * Therefore a delivered private sample never exceeds the same-seq public
//!   sample — **unless** the pair has no private plane at all (a Public
//!   backbone on either side, [`CloudPath::exception`]), in which case the
//!   "private" route rides the identical public path and the two samples are
//!   bit-equal.

use crate::hop::HopKind;
use crate::latency::{self, propagation_rtt_ms, QueueProfile};
use crate::rng::{mix, FlowRng};
use cloudy_cloud::{cloud_interconnect, region, PeeringKind, Provider, RegionId, RouteClass};
use cloudy_geo::{distance::routed_distance_km, Continent, GeoPoint};
use cloudy_lastmile::stats_math::LogNormal;
use cloudy_topology::{known, Asn};
use rand::Rng;

/// Engineered-WAN stretch over the routed fiber distance: provider
/// backbones run close to the great-circle cable graph.
const DIRECT_STRETCH: f64 = 1.04;
/// One-carrier private transit is slightly less optimal.
const TRANSIT_STRETCH: f64 = 1.12;
/// Public hierarchical transit: BGP path inflation on top of the cable
/// graph, before any hub trombone.
const PUBLIC_STRETCH: f64 = 1.30;

/// Cv of the shared queueing draw (both routes scale the same unit sample).
const QUEUE_CV: f64 = 0.8;

/// Flow-id domain tag for inter-cloud pings (cf. `0xD1A1` for client pings).
const CLOUD_PING_TAG: u64 = 0xC10DD;

/// A fully-determined inter-cloud path: pure function of (src, dst, route),
/// no seed and no [`crate::network::Network`] — region geometry is static.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudPath {
    pub src: RegionId,
    pub dst: RegionId,
    pub route: RouteClass,
    /// Interconnection class actually ridden (drives queueing and loss).
    pub interconnect: PeeringKind,
    /// Effective fiber kilometres end to end.
    pub km: f64,
    /// Router count, for reporting.
    pub hops: u32,
    /// Sum of median per-router processing (ms).
    pub proc_ms: f64,
    /// Longitude the diurnal load factor is evaluated at (pair midpoint).
    pub load_lon: f64,
    /// True when the pair has no private plane (Public backbone on either
    /// side): the private route fell back to the public path, and the
    /// private ≤ public RTT guarantee degrades to equality.
    pub exception: bool,
}

/// Construct the path for one (src, dst, route) triple. `None` when either
/// region id is out of range.
pub fn cloud_path(src: RegionId, dst: RegionId, route: RouteClass) -> Option<CloudPath> {
    let s = region::by_id(src)?;
    let d = region::by_id(dst)?;
    let geom = Geometry::of(s, d);
    let kind = cloud_interconnect(s.provider, geom.src_cont, d.provider, geom.dst_cont);
    let exception = kind == PeeringKind::Public;
    let (interconnect, km, kinds): (PeeringKind, f64, &'static [HopKind]) =
        match (route, exception) {
            // No private plane: the "private" probe rides the public path.
            (_, true) | (RouteClass::PublicTransit, _) => {
                (PeeringKind::Public, geom.public_km(s.provider, d.provider), PUBLIC_HOPS)
            }
            (RouteClass::PrivateWan, false) => match kind {
                PeeringKind::Direct | PeeringKind::IxpPublic => {
                    (PeeringKind::Direct, geom.base_km * DIRECT_STRETCH, DIRECT_HOPS)
                }
                PeeringKind::PrivateTransit => {
                    (PeeringKind::PrivateTransit, geom.base_km * TRANSIT_STRETCH, TRANSIT_HOPS)
                }
                PeeringKind::Public => unreachable!("exception handled above"),
            },
        };
    Some(CloudPath {
        src,
        dst,
        route,
        interconnect,
        km,
        hops: kinds.len() as u32,
        proc_ms: kinds.iter().map(|k| k.processing_ms()).sum(),
        load_lon: geom.mid_lon,
        exception,
    })
}

/// Both planes for one pair, private first (the record emission order).
pub fn cloud_path_pair(src: RegionId, dst: RegionId) -> Option<[CloudPath; 2]> {
    Some([
        cloud_path(src, dst, RouteClass::PrivateWan)?,
        cloud_path(src, dst, RouteClass::PublicTransit)?,
    ])
}

/// One inter-cloud ping at a campaign hour. `None` = lost. Deterministic per
/// (seed, src, dst, seq, hour); the route class only rescales shared draws
/// (see the module contract).
pub fn cloud_ping_at(seed: u64, path: &CloudPath, seq: u64, utc_hour: u64) -> Option<f64> {
    let flow = cloud_flow(path.src, path.dst, seq);
    let mut rng = FlowRng::new(seed, flow);
    // Fixed draw order, route-independent: both routes of a pair see the
    // same four underlying samples.
    let u_loss = rng.gen::<f64>();
    let queue_unit = LogNormal::from_median_cv(1.0, QUEUE_CV).sample(&mut rng);
    let u_spike = rng.gen::<f64>();
    let u_proc = rng.gen::<f64>();

    if u_loss < latency::loss_probability(path.interconnect) {
        return None;
    }
    let load = latency::diurnal::factor_at(utc_hour, path.load_lon);
    let prop = propagation_rtt_ms(path.km);
    let qp = QueueProfile::for_kind(path.interconnect);
    let mut queue = (qp.base_ms + qp.prop_fraction * prop) * queue_unit * load;
    if u_spike < qp.spike_prob {
        queue *= qp.spike_factor;
    }
    let proc = path.proc_ms * (0.7 + 0.6 * u_proc);
    Some(prop + queue + proc)
}

/// Route-class-free flow id: the shared-draw keystone.
fn cloud_flow(src: RegionId, dst: RegionId, seq: u64) -> u64 {
    mix(&[CLOUD_PING_TAG, src.0 as u64, dst.0 as u64, seq])
}

// Hop rosters per path shape. Orderings are load-bearing:
// proc(DIRECT) < proc(TRANSIT) < proc(PUBLIC), checked in tests.
const DIRECT_HOPS: &[HopKind] = &[
    HopKind::CloudEdge,
    HopKind::CloudCore,
    HopKind::CloudCore,
    HopKind::CloudEdge,
    HopKind::Destination,
];
const TRANSIT_HOPS: &[HopKind] = &[
    HopKind::CloudEdge,
    HopKind::CloudCore,
    HopKind::Tier1Core,
    HopKind::Tier1Core,
    HopKind::CloudCore,
    HopKind::CloudEdge,
    HopKind::Destination,
];
const PUBLIC_HOPS: &[HopKind] = &[
    HopKind::CloudEdge,
    HopKind::Tier2Core,
    HopKind::Tier1Core,
    HopKind::Tier1Core,
    HopKind::Tier1Core,
    HopKind::Tier2Core,
    HopKind::CloudEdge,
    HopKind::Destination,
];

/// Shared pair geometry.
struct Geometry {
    src_loc: GeoPoint,
    src_cont: Continent,
    dst_loc: GeoPoint,
    dst_cont: Continent,
    /// Routed effective km over the cable graph, before stretch.
    base_km: f64,
    mid_lon: f64,
}

impl Geometry {
    fn of(s: &'static region::CloudRegion, d: &'static region::CloudRegion) -> Geometry {
        let (src_loc, dst_loc) = (s.location(), d.location());
        let (src_cont, dst_cont) = (s.continent(), d.continent());
        let base_km = routed_distance_km(src_loc, src_cont, dst_loc, dst_cont).effective_km;
        Geometry {
            src_loc,
            src_cont,
            dst_loc,
            dst_cont,
            base_km,
            mid_lon: src_loc.midpoint(&dst_loc).lon(),
        }
    }

    /// Public-route kilometres: stretched transit, never shorter than the
    /// trombone through the serving carrier's nearest hub (the Fig. 6a
    /// mechanism — a Johannesburg↔Johannesburg public path detours through
    /// Europe). The `max` keeps public km ≥ any private km by construction.
    fn public_km(&self, src: Provider, dst: Provider) -> f64 {
        let carrier = public_carrier(src, dst);
        let mid = self.src_loc.midpoint(&self.dst_loc);
        let via_hub = crate::hubs::nearest_hub(carrier, mid)
            .map(|hub| {
                let (hub_loc, hub_cont) = (hub.location(), hub.continent());
                routed_distance_km(self.src_loc, self.src_cont, hub_loc, hub_cont).effective_km
                    + routed_distance_km(hub_loc, hub_cont, self.dst_loc, self.dst_cont)
                        .effective_km
            })
            .unwrap_or(0.0);
        (self.base_km * PUBLIC_STRETCH).max(via_hub)
    }
}

/// The Tier-1 hauling a public inter-cloud path: pure function of the
/// provider pair (the clouds' transit contracts do not depend on the
/// campaign seed).
fn public_carrier(src: Provider, dst: Provider) -> Asn {
    match mix(&[src.asn().0 as u64, dst.asn().0 as u64]) % 3 {
        0 => known::TELIA,
        1 => known::GTT,
        _ => known::LUMEN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_cloud::Backbone;

    fn first_region_of(p: Provider) -> RegionId {
        region::of_provider(p).next().expect("provider has regions").0
    }

    fn pair(pa: Provider, pb: Provider) -> [CloudPath; 2] {
        cloud_path_pair(first_region_of(pa), first_region_of(pb)).expect("valid ids")
    }

    #[test]
    fn unknown_region_is_none() {
        assert!(cloud_path(RegionId(9999), RegionId(0), RouteClass::PrivateWan).is_none());
    }

    #[test]
    fn paths_are_deterministic_pure_functions() {
        let a = pair(Provider::Google, Provider::Microsoft);
        let b = pair(Provider::Google, Provider::Microsoft);
        assert_eq!(a, b);
    }

    #[test]
    fn hop_roster_processing_is_ordered() {
        let p = |ks: &[HopKind]| ks.iter().map(|k| k.processing_ms()).sum::<f64>();
        assert!(p(DIRECT_HOPS) < p(TRANSIT_HOPS));
        assert!(p(TRANSIT_HOPS) < p(PUBLIC_HOPS));
    }

    #[test]
    fn private_km_below_public_km() {
        for pa in Provider::ALL {
            for pb in Provider::ALL {
                let [pri, pub_] = pair(pa, pb);
                assert!(
                    pri.km <= pub_.km + 1e-9,
                    "{pa}->{pb}: private {} > public {}",
                    pri.km,
                    pub_.km
                );
            }
        }
    }

    #[test]
    fn exception_iff_public_backbone_and_paths_identical() {
        for pa in Provider::ALL {
            for pb in Provider::ALL {
                let [pri, pub_] = pair(pa, pb);
                let expect_exc = pa.backbone() == Backbone::Public
                    || pb.backbone() == Backbone::Public;
                assert_eq!(pri.exception, expect_exc, "{pa}->{pb}");
                assert!(pub_.exception == expect_exc);
                if expect_exc {
                    assert_eq!(pri.km, pub_.km);
                    assert_eq!(pri.interconnect, PeeringKind::Public);
                }
            }
        }
    }

    #[test]
    fn delivered_private_never_beats_public_and_exceptions_tie() {
        let mut checked = 0usize;
        for pa in [Provider::Google, Provider::Alibaba, Provider::Ibm, Provider::Vultr] {
            for pb in [Provider::Microsoft, Provider::DigitalOcean, Provider::Linode] {
                let [pri, pub_] = pair(pa, pb);
                for seq in 0..300 {
                    let (a, b) = (
                        cloud_ping_at(7, &pri, seq, seq % 24),
                        cloud_ping_at(7, &pub_, seq, seq % 24),
                    );
                    if let (Some(a), Some(b)) = (a, b) {
                        if pri.exception {
                            assert_eq!(a, b, "{pa}->{pb} seq {seq}");
                        } else {
                            assert!(a <= b, "{pa}->{pb} seq {seq}: private {a} > public {b}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 2000, "too few delivered samples: {checked}");
    }

    #[test]
    fn sampling_is_reproducible_and_seq_varies() {
        let [pri, _] = pair(Provider::Google, Provider::Google);
        assert_eq!(cloud_ping_at(3, &pri, 5, 12), cloud_ping_at(3, &pri, 5, 12));
        assert_ne!(cloud_ping_at(3, &pri, 5, 12), cloud_ping_at(3, &pri, 6, 12));
        assert_ne!(cloud_ping_at(3, &pri, 5, 12), cloud_ping_at(4, &pri, 5, 12));
    }

    #[test]
    fn intra_provider_public_detour_exceeds_private() {
        // Two regions of one hypergiant: the private WAN rides the cable
        // graph near-optimally, the public route is strictly stretched.
        let mut it = region::of_provider(Provider::AmazonEc2);
        let (a, _) = it.next().expect("regions");
        let (b, _) = it.next().expect("second region");
        let [pri, pub_] = cloud_path_pair(a, b).expect("valid");
        assert!(pri.km > 0.0);
        assert!(pub_.km > pri.km, "public {} <= private {}", pub_.km, pri.km);
    }

    #[test]
    fn loss_shared_draw_nests_private_in_public() {
        // Whenever the private probe is lost, the public one is too.
        let [pri, pub_] = pair(Provider::Google, Provider::Ibm);
        let mut pub_lost = 0usize;
        for seq in 0..4000 {
            let a = cloud_ping_at(11, &pri, seq, 3);
            let b = cloud_ping_at(11, &pub_, seq, 3);
            if a.is_none() {
                assert!(b.is_none(), "private lost but public delivered at {seq}");
            }
            if b.is_none() {
                pub_lost += 1;
            }
        }
        assert!(pub_lost > 0, "public path should lose some probes");
    }

    #[test]
    fn diurnal_load_moves_the_median() {
        let [_, pub_] = pair(Provider::Google, Provider::Microsoft);
        let med = |hour: u64| {
            let mut v: Vec<f64> =
                (0..600).filter_map(|s| cloud_ping_at(9, &pub_, s, hour)).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        // Peak local evening vs trough, at the pair midpoint longitude.
        let lon = pub_.load_lon;
        let peak_utc = (21.0 - lon / 15.0).rem_euclid(24.0) as u64;
        let trough_utc = (5.0 - lon / 15.0).rem_euclid(24.0) as u64;
        assert!(med(peak_utc) > med(trough_utc));
    }
}

//! Property-based tests: route construction and sampling invariants over
//! randomly-placed clients against a shared world.

use crate::build::{build, BuiltWorld, WorldConfig};
use crate::client::ClientCtx;
use crate::rng::mix;
use crate::sim::{Protocol, Simulator};
use cloudy_cloud::RegionId;
use cloudy_geo::{country, CountryCode, GeoPoint};
use cloudy_lastmile::artifacts::ProbeArtifacts;
use cloudy_lastmile::{AccessProfile, AccessType};
use proptest::prelude::*;
use std::sync::OnceLock;

const TEST_COUNTRIES: [&str; 8] = ["DE", "GB", "JP", "IN", "US", "BR", "ZA", "KE"];

fn world() -> &'static (Simulator, BuiltWorld) {
    static WORLD: OnceLock<(Simulator, BuiltWorld)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let built = build(&WorldConfig {
            seed: 77,
            isps_per_country: 2,
            countries: Some(TEST_COUNTRIES.iter().map(|c| CountryCode::new(c)).collect()),
        });
        // The simulator needs its own copy of the network; rebuild.
        let built2 = build(&WorldConfig {
            seed: 77,
            isps_per_country: 2,
            countries: Some(TEST_COUNTRIES.iter().map(|c| CountryCode::new(c)).collect()),
        });
        (Simulator::new(built2.net), built)
    })
}

fn arb_client() -> impl Strategy<Value = ClientCtx> {
    (
        0usize..TEST_COUNTRIES.len(),
        0usize..64,
        any::<u64>(),
        prop::sample::select(vec![
            AccessType::WifiHome,
            AccessType::Cellular,
            AccessType::Cellular5g,
            AccessType::Wired,
        ]),
        any::<bool>(),
        any::<bool>(),
        -0.5f64..0.5,
        -0.5f64..0.5,
    )
        .prop_map(|(ci, isp_ix, hash, access, cgn, vpn, dlat, dlon)| {
            let (sim, built) = world();
            let c = country::lookup_str(TEST_COUNTRIES[ci]).expect("known");
            let isps = &built.isps_by_country[&c.code()];
            let isp = isps[isp_ix % isps.len()];
            let loc = c.location();
            ClientCtx {
                probe_hash: hash,
                location: GeoPoint::new(loc.lat() + dlat, loc.lon() + dlon),
                country: c.code(),
                continent: c.continent,
                isp,
                public_ip: sim.net.router_ip(isp, mix(&[hash, 0xF00])),
                access: AccessProfile::baseline(access),
                artifacts: ProbeArtifacts { behind_cgn: cgn, behind_vpn: vpn },
            }
        })
}

fn arb_region() -> impl Strategy<Value = RegionId> {
    (0u16..195).prop_map(RegionId)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routes_are_well_formed(client in arb_client(), region in arb_region()) {
        let (sim, _) = world();
        let path = sim.route(&client, region);
        prop_assert!(path.hops.len() >= 4, "too short: {:?}", path.hops);
        // Ends at the region's VM.
        let last = path.hops.last().unwrap();
        prop_assert_eq!(last.kind, crate::hop::HopKind::Destination);
        prop_assert_eq!(last.ip, sim.net.region(region).vm_ip);
        // Distances are non-negative and finite.
        for h in &path.hops {
            prop_assert!(h.km_from_prev.is_finite() && h.km_from_prev >= 0.0);
        }
        // Pervasiveness is a ratio.
        let p = path.pervasiveness();
        prop_assert!((0.0..=1.0).contains(&p));
        // AS path endpoints: serving ISP to provider network.
        prop_assert_eq!(*path.as_path.first().unwrap(), client.isp);
        prop_assert_eq!(
            *path.as_path.last().unwrap(),
            sim.net.region(region).region.provider.asn()
        );
    }

    #[test]
    fn owned_hop_ips_resolve_to_owner(client in arb_client(), region in arb_region()) {
        let (sim, _) = world();
        let path = sim.route(&client, region);
        for h in &path.hops {
            if let Some(owner) = h.owner {
                if h.kind == crate::hop::HopKind::CgnGateway {
                    continue; // CGN space is unannounced by design.
                }
                prop_assert_eq!(
                    sim.net.prefixes.lookup(h.ip),
                    Some(owner),
                    "{:?} hop {} owned by {}",
                    h.kind, h.ip, owner
                );
            }
        }
    }

    #[test]
    fn rtt_samples_are_sane(
        client in arb_client(),
        region in arb_region(),
        seq in 0u64..1000,
        icmp in any::<bool>(),
    ) {
        let (sim, _) = world();
        let path = sim.route(&client, region);
        let proto = if icmp { Protocol::Icmp } else { Protocol::Tcp };
        let rtt = sim.ping(&client, &path, proto, seq);
        prop_assert!(rtt.is_finite());
        prop_assert!(rtt > 1.0, "impossibly fast {rtt}");
        prop_assert!(rtt < 5_000.0, "impossibly slow {rtt}");
        // Physics: never faster than the propagation bound alone.
        let prop_bound = crate::latency::propagation_rtt_ms(path.total_km());
        prop_assert!(rtt >= prop_bound, "rtt {rtt} below light-in-fiber bound {prop_bound}");
        // Determinism.
        prop_assert_eq!(rtt, sim.ping(&client, &path, proto, seq));
    }

    #[test]
    fn traceroutes_are_consistent(
        client in arb_client(),
        region in arb_region(),
        seq in 0u64..200,
    ) {
        let (sim, _) = world();
        let path = sim.route(&client, region);
        let tr = sim.traceroute(&client, &path, Protocol::Icmp, seq);
        prop_assert_eq!(tr.len(), path.hops.len());
        for (i, hop) in tr.iter().enumerate() {
            prop_assert_eq!(hop.ttl as usize, i + 1);
            prop_assert_eq!(hop.ip.is_some(), hop.rtt_ms.is_some());
            if let Some(rtt) = hop.rtt_ms {
                prop_assert!(rtt.is_finite() && rtt > 0.0);
            }
            if let Some(ip) = hop.ip {
                prop_assert_eq!(ip, path.hops[i].ip);
            }
        }
        // Destination always responds.
        prop_assert!(tr.last().unwrap().ip.is_some());
    }

    #[test]
    fn route_key_captures_every_routing_input(
        client in arb_client(),
        region in arb_region(),
        other_vpn in any::<bool>(),
        ip_salt in any::<u64>(),
        access_pick in 0usize..3,
    ) {
        // The cache-correctness obligation, stated as a property: two
        // clients with equal `RouteKey`s must route identically even when
        // every input *excluded* from the key differs. If `route` ever
        // grows a dependence on an excluded field, this test fails before
        // the cache can serve a stale plan.
        let (sim, _) = world();
        let mut other = client.clone();
        other.artifacts.behind_vpn = other_vpn;
        other.public_ip = sim.net.router_ip(other.isp, mix(&[ip_salt, 0xF00]));
        // Vary the access profile without crossing the WifiHome boundary
        // (the only access fact the key — and routing — reads).
        other.access = if client.access.access == AccessType::WifiHome {
            // Same type, different latency processes: still off-key.
            AccessProfile::baseline(AccessType::WifiHome).personalized(1.7)
        } else {
            let non_wifi = [AccessType::Cellular, AccessType::Cellular5g, AccessType::Wired];
            AccessProfile::baseline(non_wifi[access_pick])
        };
        prop_assert_eq!(
            crate::cache::RouteKey::new(&client, region),
            crate::cache::RouteKey::new(&other, region)
        );
        let a = sim.route_uncached(&client, region);
        let b = sim.route_uncached(&other, region);
        prop_assert_eq!(&a, &b);
        // And the shared cache hands back exactly the uncached plan.
        let cached = sim.route(&client, region);
        prop_assert_eq!(&*cached, &a);
    }

    #[test]
    fn egress_memo_key_captures_every_middle_input(
        client in arb_client(),
        region in arb_region(),
        other_hash in any::<u64>(),
    ) {
        // The wide-area memo is keyed by (ISP, country, egress anchor,
        // region), not by the probe's cell. Two probes in different cells
        // that share those must get the same middle; if the middle ever
        // reads the cell (or anything else off-key), the second probe is
        // served the first one's geometry and differs from its oracle.
        let (sim, _) = world();
        let anchor = sim.access_leg(&client).anchor;
        let steps = [(0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1)];
        let other = steps.iter().find_map(|(dlat, dlon)| {
            let mut o = client.clone();
            o.probe_hash = other_hash;
            o.location = GeoPoint::new(client.location.lat() + dlat, client.location.lon() + dlon);
            (sim.access_leg(&o).anchor == anchor).then_some(o)
        });
        let Some(other) = other else {
            return Ok(()); // Every neighbouring cell egresses elsewhere.
        };
        let _ = sim.route(&client, region);
        prop_assert_eq!(&*sim.route(&other, region), &sim.route_uncached(&other, region));
        // The converse: a probe of the same ISP and country that egresses
        // at another city must not be served this entry.
        let elsewhere = cloudy_geo::city::in_country(client.country).iter().find_map(|c| {
            let mut o = other.clone();
            o.location = c.location();
            (sim.access_leg(&o).anchor != anchor).then_some(o)
        });
        if let Some(elsewhere) = elsewhere {
            let uncached = sim.route_uncached(&elsewhere, region);
            prop_assert_eq!(&*sim.route(&elsewhere, region), &uncached);
        }
    }

    #[test]
    fn ingress_memo_key_captures_every_ingress_input(
        client in arb_client(),
        region in arb_region(),
        isp_pick in any::<usize>(),
        other_hash in any::<u64>(),
    ) {
        // The peer-ingress memo is keyed by (provider, egress anchor,
        // region continent), so probes of another ISP routed to another
        // region of the same provider and continent share the entry the
        // first route filled, and must still match their oracle.
        let (sim, built) = world();
        let _ = sim.route(&client, region);
        let dest = sim.net.region(region).region;
        let isps = &built.isps_by_country[&client.country];
        let mut other = client.clone();
        other.isp = isps[isp_pick % isps.len()];
        other.probe_hash = other_hash;
        let sibling = cloudy_cloud::region::of_provider(dest.provider)
            .map(|(id, _)| id)
            .find(|&id| id != region && sim.net.region(id).region.continent() == dest.continent())
            .unwrap_or(region);
        prop_assert_eq!(&*sim.route(&other, sibling), &sim.route_uncached(&other, sibling));
        let anchor = sim.access_leg(&client).anchor;
        prop_assert_eq!(
            sim.cached_direct_ingress(dest.provider, anchor, dest.continent()),
            sim.direct_ingress(dest.provider, anchor, dest.continent())
        );
    }

    #[test]
    fn fault_draws_depend_only_on_task_identity(
        probe_hash in any::<u64>(),
        region_tag in any::<u64>(),
        kind_tag in prop::sample::select(vec![0xD1A1u64, 0x7124CE]),
        hour in 0u64..4320,
        seq in any::<u64>(),
        attempt in 0u32..4,
        off_key in any::<u64>(),
    ) {
        // The fault model is a pure function of (seed, task identity):
        // a rebuilt model instance, interleaved draws for *other* tasks,
        // and backoff queries must never perturb the draw for this task —
        // the property the campaign's thread-count invariance rests on.
        let profile = crate::FaultProfile::default_profile();
        let direct = crate::FaultModel::new(77, profile)
            .draw(probe_hash, region_tag, kind_tag, hour, seq, attempt);
        let other = crate::FaultModel::new(77, profile);
        let _ = other.draw(off_key, region_tag ^ 1, kind_tag, hour + 1, seq ^ 7, attempt + 1);
        let _ = other.backoff_ms(attempt + 1);
        prop_assert_eq!(
            other.draw(probe_hash, region_tag, kind_tag, hour, seq, attempt),
            direct
        );
        // A different seed draws from a different stream; a none() profile
        // never injects, whatever the key.
        prop_assert_eq!(
            crate::FaultModel::new(77, crate::FaultProfile::none())
                .draw(probe_hash, region_tag, kind_tag, hour, seq, attempt),
            crate::FaultDraw::Deliver
        );
    }

    #[test]
    fn attempt_zero_reproduces_the_legacy_sample(
        client in arb_client(),
        region in arb_region(),
        seq in 0u64..500,
        hour in 0u64..168,
        icmp in any::<bool>(),
    ) {
        // Retry-aware sampling must be an extension, not a reshuffle: the
        // first attempt draws from exactly the pre-fault flow (so zero-fault
        // campaigns stay byte-identical), and each retry attempt is its own
        // deterministic stream.
        let (sim, _) = world();
        let path = sim.route(&client, region);
        let proto = if icmp { Protocol::Icmp } else { Protocol::Tcp };
        prop_assert_eq!(
            sim.ping_at(&client, &path, proto, seq, hour),
            sim.ping_at_attempt(&client, &path, proto, seq, hour, 0)
        );
        prop_assert_eq!(
            sim.traceroute_at(&client, &path, proto, seq, hour),
            sim.traceroute_at_attempt(&client, &path, proto, seq, hour, 0)
        );
        let retry = sim.ping_at_attempt(&client, &path, proto, seq, hour, 1);
        prop_assert_eq!(retry, sim.ping_at_attempt(&client, &path, proto, seq, hour, 1));
    }

    #[test]
    fn route_structure_is_location_stable(client in arb_client(), region in arb_region()) {
        // Probes in the same grid cell and ISP share wide-area structure;
        // calling twice must be identical (cache or not).
        let (sim, _) = world();
        let a = sim.route(&client, region);
        let b = sim.route(&client, region);
        prop_assert_eq!(a.hops, b.hops);
        prop_assert_eq!(a.interconnect, b.interconnect);
    }
}

//! Tier-1 carrier hub cities.
//!
//! Transit traffic does not follow the great circle: it enters the carrier's
//! network at the hub nearest the customer and exits at the hub nearest the
//! destination. Where a carrier has no hub on a continent, traffic trombones
//! through another continent — the documented cause of African and
//! Middle-Eastern paths detouring via Europe, which the paper's Fig. 6a and
//! Fig. 18b latencies exhibit.

use cloudy_geo::city::{self, City};
use cloudy_geo::GeoPoint;
use cloudy_topology::{known, Asn};

/// Gazetteer rows for hub names, joined at compile time: an unknown name
/// fails the build.
macro_rules! hubs {
    ($($name:literal),* $(,)?) => {
        const { &[$(city::resolve($name)),*] }
    };
}

/// Hub cities for each named Tier-1. Synthetic Tier-2s use their anchor city
/// instead (see `Network`).
pub fn hub_cities(carrier: Asn) -> &'static [&'static City] {
    match carrier {
        a if a == known::TELIA => hubs!["Stockholm", "Frankfurt", "London", "Ashburn", "Chicago"],
        a if a == known::GTT => hubs!["London", "Frankfurt", "New York", "Dallas", "Madrid"],
        a if a == known::NTT_GLOBAL => hubs!["Tokyo", "Osaka", "Los Angeles", "London", "Singapore"],
        a if a == known::TATA => hubs!["Mumbai", "Chennai", "Singapore", "London", "New York"],
        a if a == known::COGENT => hubs!["Ashburn", "Chicago", "Los Angeles", "Paris", "Frankfurt"],
        a if a == known::LUMEN => hubs!["Denver", "Ashburn", "London", "Amsterdam", "Sao Paulo"],
        a if a == known::SPARKLE => hubs!["Milan", "Marseille", "Miami", "Sao Paulo", "Buenos Aires"],
        a if a == known::ZAYO => hubs!["Denver", "New York", "London", "Paris"],
        a if a == known::PCCW => hubs!["Hong Kong", "Singapore", "Tokyo", "London", "San Francisco"],
        a if a == known::ORANGE_OTI => hubs!["Paris", "Marseille", "Dakar", "Abidjan", "Mumbai"],
        _ => &[],
    }
}

/// The carrier hub nearest to `point` (the first in table order on a tie),
/// or `None` for carriers without a hub table (synthetic Tier-2s).
pub fn nearest_hub(carrier: Asn, point: GeoPoint) -> Option<&'static City> {
    hub_cities(carrier)
        .iter()
        .map(|c| (*c, c.location().haversine_km(&point)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_hub_cities_exist_in_gazetteer() {
        for (asn, _) in known::TIER1S {
            for hub in hub_cities(*asn) {
                let (_, by_name) = city::by_name(hub.name).expect("hub city in gazetteer");
                assert_eq!(hub.country, by_name.country, "{} resolves to another row", hub.name);
                assert_eq!(hub.location(), by_name.location(), "{} resolves to another row", hub.name);
            }
            assert!(!hub_cities(*asn).is_empty(), "no hubs for {asn}");
        }
    }

    #[test]
    fn unknown_carrier_has_no_hubs() {
        assert!(hub_cities(Asn(99_999)).is_empty());
        assert!(nearest_hub(Asn(99_999), GeoPoint::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn nearest_hub_geometry() {
        // From Nairobi, Telia's nearest hub is in Europe (no African hub) —
        // the trombone.
        let nairobi = GeoPoint::new(-1.29, 36.82);
        let name = nearest_hub(known::TELIA, nairobi).unwrap().name;
        assert!(["Frankfurt", "London", "Stockholm"].contains(&name), "got {name}");
        // From Tokyo, NTT's nearest hub is Tokyo itself.
        let tokyo = GeoPoint::new(35.68, 139.65);
        let name = nearest_hub(known::NTT_GLOBAL, tokyo).unwrap().name;
        assert_eq!(name, "Tokyo");
        // Orange has West-African hubs: from Dakar, the hub is local.
        let dakar = GeoPoint::new(14.72, -17.47);
        let name = nearest_hub(known::ORANGE_OTI, dakar).unwrap().name;
        assert_eq!(name, "Dakar");
    }
}

//! Golden for `routed_distance_km`: every ordered continent pair over a
//! fixed grid of points, pinned to the exact f64 bits of `effective_km`
//! and `total_km`, the leg count, the cables crossed and `crosses_sea`.
//! Dijkstra over the cable graph sums edge costs in adjacency order and
//! breaks equal-cost ties by heap push order, so any change to how the
//! graph is built shows up here as a diff.
//!
//! Regenerate after an intentional change to the cable model with:
//!
//! ```text
//! CLOUDY_BLESS=1 cargo test -p cloudy-geo --test routed_golden
//! ```

use cloudy_geo::{routed_distance_km, Continent, GeoPoint, RouteLeg};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Latitudes and longitudes of the point grid (12 points).
const LATS: [f64; 3] = [-35.0, 5.0, 45.0];
const LONS: [f64; 4] = [-100.0, -10.0, 40.0, 120.0];

/// Destinations probed per source point and continent pair.
const DESTS_PER_SOURCE: usize = 2;

fn grid() -> Vec<GeoPoint> {
    LATS.iter().flat_map(|&lat| LONS.iter().map(move |&lon| GeoPoint::new(lat, lon))).collect()
}

fn render() -> String {
    let points = grid();
    let n = points.len();
    let mut out = String::new();
    for (ai, &a) in Continent::ALL.iter().enumerate() {
        for (bi, &b) in Continent::ALL.iter().enumerate() {
            for (si, &src) in points.iter().enumerate() {
                for k in 0..DESTS_PER_SOURCE {
                    let dst = points[(si * 5 + ai * 3 + bi + k * 7 + 1) % n];
                    let p = routed_distance_km(src, a, dst, b);
                    let cables: Vec<&str> = p
                        .legs
                        .iter()
                        .filter_map(|l| match l {
                            RouteLeg::Cable { name, .. } => Some(*name),
                            RouteLeg::Terrestrial { .. } => None,
                        })
                        .collect();
                    writeln!(
                        out,
                        "{}>{} ({},{})>({},{}) eff={:016x} tot={:016x} legs={} sea={} [{}]",
                        a.code(),
                        b.code(),
                        src.lat(),
                        src.lon(),
                        dst.lat(),
                        dst.lon(),
                        p.effective_km.to_bits(),
                        p.total_km.to_bits(),
                        p.legs.len(),
                        u8::from(p.crosses_sea),
                        cables.join(";"),
                    )
                    .expect("writing to a String cannot fail");
                }
            }
        }
    }
    out
}

#[test]
fn routed_distance_matches_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("routed_distance.golden");
    let got = render();
    if std::env::var_os("CLOUDY_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &got).expect("write blessed golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{} unreadable ({e}); run with CLOUDY_BLESS=1 to create it", path.display())
    });
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "routed-distance golden differs at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden line count");
}

#[test]
fn golden_grid_covers_every_ordered_continent_pair() {
    let got = render();
    for a in Continent::ALL {
        for b in Continent::ALL {
            let tag = format!("{}>{} ", a.code(), b.code());
            assert!(got.lines().any(|l| l.starts_with(&tag)), "no line for {tag}");
        }
    }
    // Inter-continental pairs must exercise the cable graph.
    assert!(got.lines().any(|l| l.contains("sea=1")));
}

//! The paper's literal numbers, pinned: deployment counts, thresholds,
//! sample-size bound, named ASNs, platform populations.

use cloudy::analysis::confidence;
use cloudy::analysis::latency_groups::{HPL_MS, HRT_MS, MTP_MS};
use cloudy::cloud::{region, Backbone, Provider};
use cloudy::geo::Continent;
use cloudy::probes::{atlas, speedchecker};
use cloudy::topology::known;

#[test]
fn total_endpoints_are_195_in_28_countries() {
    assert_eq!(region::REGIONS.len(), 195);
    let mut countries = std::collections::HashSet::new();
    for (_, r) in region::all() {
        countries.insert(r.country());
    }
    // The paper says 28 countries; our city-anchored assignment lands close.
    assert!(
        (24..=32).contains(&countries.len()),
        "regions span {} countries",
        countries.len()
    );
}

#[test]
fn table1_backbone_column() {
    assert_eq!(Provider::AmazonEc2.backbone(), Backbone::Private);
    assert_eq!(Provider::Google.backbone(), Backbone::Private);
    assert_eq!(Provider::Microsoft.backbone(), Backbone::Private);
    assert_eq!(Provider::DigitalOcean.backbone(), Backbone::Semi);
    assert_eq!(Provider::Alibaba.backbone(), Backbone::Semi);
    assert_eq!(Provider::Vultr.backbone(), Backbone::Public);
    assert_eq!(Provider::Linode.backbone(), Backbone::Public);
    assert_eq!(Provider::AmazonLightsail.backbone(), Backbone::Private);
    assert_eq!(Provider::Oracle.backbone(), Backbone::Private);
    assert_eq!(Provider::Ibm.backbone(), Backbone::Semi);
}

#[test]
fn qoe_thresholds_match_section_2_1() {
    assert_eq!(MTP_MS, 20.0);
    assert_eq!(HPL_MS, 100.0);
    assert_eq!(HRT_MS, 250.0);
}

#[test]
fn sample_size_bound_matches_section_3_3() {
    // ">2400 measurements per country" at 95% CI and epsilon = 2%.
    assert_eq!(confidence::paper_minimum_samples(), 2401);
}

#[test]
fn case_study_asns_from_the_figures() {
    assert_eq!(known::VODAFONE_DE.0, 3209);
    assert_eq!(known::DTAG.0, 3320);
    assert_eq!(known::TELEFONICA_DE.0, 6805);
    assert_eq!(known::LIBERTY_DE.0, 6830);
    assert_eq!(known::EINSUNDEINS.0, 8881);
    assert_eq!(known::KDDI.0, 2516);
    assert_eq!(known::BIGLOBE.0, 2518);
    assert_eq!(known::NTT_OCN.0, 4713);
    assert_eq!(known::OPTAGE.0, 17511);
    assert_eq!(known::SOFTBANK.0, 17676);
    assert_eq!(known::UARNET.0, 3255);
    assert_eq!(known::KYIVSTAR.0, 15895);
    assert_eq!(known::BATELCO.0, 5416);
    assert_eq!(known::ZAIN_BH.0, 31452);
    assert_eq!(known::KALAAM.0, 39273);
    assert_eq!(known::STC_BH.0, 51375);
    assert_eq!(known::TELIA.0, 1299);
    assert_eq!(known::GTT.0, 3257);
    assert_eq!(known::NTT_GLOBAL.0, 2914);
    assert_eq!(known::TATA.0, 6453);
}

#[test]
fn platform_populations_match_figure_totals() {
    // Fig. 1b continent totals.
    assert_eq!(speedchecker::continent_total(Continent::Europe), 72_000);
    assert_eq!(speedchecker::continent_total(Continent::Asia), 31_000);
    assert_eq!(speedchecker::continent_total(Continent::NorthAmerica), 5_400);
    assert_eq!(speedchecker::continent_total(Continent::Africa), 4_000);
    assert_eq!(speedchecker::continent_total(Continent::SouthAmerica), 2_800);
    assert_eq!(speedchecker::continent_total(Continent::Oceania), 351);
    let sc_total: usize = Continent::ALL.iter().map(|c| speedchecker::continent_total(*c)).sum();
    assert!((115_000..=116_000).contains(&sc_total), "SC total {sc_total}");
    // Fig. 2 continent totals.
    assert_eq!(atlas::continent_total(Continent::Europe), 5_574);
    assert_eq!(atlas::continent_total(Continent::Asia), 1_083);
    assert_eq!(atlas::continent_total(Continent::NorthAmerica), 866);
    assert_eq!(atlas::continent_total(Continent::Africa), 261);
    assert_eq!(atlas::continent_total(Continent::SouthAmerica), 216);
    assert_eq!(atlas::continent_total(Continent::Oceania), 289);
}

#[test]
fn africa_has_exactly_three_dcs_all_south_african() {
    let af = region::in_continent(Continent::Africa);
    assert_eq!(af.len(), 3);
    for id in af {
        assert_eq!(region::by_id(*id).unwrap().country().as_str(), "ZA");
    }
}

//! Table 1 and Figures 1–2: the measurement setup itself.

use super::Render;
use crate::Study;
use cloudy_analysis::report::Table;
use cloudy_cloud::{region, Provider};
use cloudy_geo::{Continent, CountryCode};
use std::collections::{BTreeMap, HashMap};

/// Table 1: per-provider, per-continent datacenter counts + backbone class.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// (provider, [EU, NA, SA, AS, AF, OC], backbone label)
    pub rows: Vec<(Provider, [usize; 6], &'static str)>,
    pub totals: [usize; 6],
}

/// Table 1's column order (EU NA SA AS AF OC).
pub const TABLE1_CONTINENTS: [Continent; 6] = [
    Continent::Europe,
    Continent::NorthAmerica,
    Continent::SouthAmerica,
    Continent::Asia,
    Continent::Africa,
    Continent::Oceania,
];

pub fn table1() -> Table1 {
    let ix = |c: Continent| TABLE1_CONTINENTS.iter().position(|x| *x == c).expect("in order"); // audit:allow(expect)
    let mut rows = Vec::new();
    let mut totals = [0usize; 6];
    for p in Provider::ALL {
        let mut counts = [0usize; 6];
        for (_, r) in region::of_provider(p) {
            counts[ix(r.continent())] += 1;
        }
        for i in 0..6 {
            totals[i] += counts[i];
        }
        rows.push((p, counts, p.backbone().label()));
    }
    Table1 { rows, totals }
}

impl Render for Table1 {
    fn render(&self) -> String {
        let mut t = Table::new(vec!["Provider", "EU", "NA", "SA", "AS", "AF", "OC", "Backbone"]);
        for (p, c, b) in &self.rows {
            t.add_row(vec![
                format!("{} ({})", p.name(), p.abbrev()),
                c[0].to_string(),
                c[1].to_string(),
                c[2].to_string(),
                c[3].to_string(),
                c[4].to_string(),
                c[5].to_string(),
                b.to_string(),
            ]);
        }
        t.add_row(vec![
            "Total".to_string(),
            self.totals[0].to_string(),
            self.totals[1].to_string(),
            self.totals[2].to_string(),
            self.totals[3].to_string(),
            self.totals[4].to_string(),
            self.totals[5].to_string(),
            String::new(),
        ]);
        format!("Table 1: Global density of cloud provider endpoints\n{}", t.render())
    }
}

/// Fig. 1: datacenter density per country + probe distribution (SC).
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Countries hosting datacenters with their counts.
    pub dc_per_country: Vec<(CountryCode, usize)>,
    /// Probe counts per continent (from the study's measurement records —
    /// i.e. probes actually observed, like the paper's "used in our
    /// experiments").
    pub probes_per_continent: Vec<(Continent, usize)>,
    /// Top probe-hosting countries.
    pub top_countries: Vec<(CountryCode, usize)>,
}

pub fn fig1(study: &Study) -> Fig1 {
    let mut dc: HashMap<CountryCode, usize> = HashMap::new();
    for (_, r) in region::all() {
        *dc.entry(r.country()).or_default() += 1;
    }
    let mut dc_per_country: Vec<_> = dc.into_iter().collect(); // audit:allow(map-iter)
    dc_per_country.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let probes = probe_counts(study, cloudy_probes::Platform::Speedchecker);
    Fig1 {
        dc_per_country,
        probes_per_continent: probes.0,
        top_countries: probes.1,
    }
}

/// Distinct-probe counts per continent (all) and per country (top 10).
type ProbeCounts = (Vec<(Continent, usize)>, Vec<(CountryCode, usize)>);

fn probe_counts(study: &Study, platform: cloudy_probes::Platform) -> ProbeCounts {
    let ds = match platform {
        cloudy_probes::Platform::Speedchecker => &study.sc,
        cloudy_probes::Platform::RipeAtlas => &study.atlas,
    };
    let mut per_cont: HashMap<Continent, std::collections::HashSet<cloudy_probes::ProbeId>> =
        HashMap::new();
    let mut per_cc: HashMap<CountryCode, std::collections::HashSet<cloudy_probes::ProbeId>> =
        HashMap::new();
    for p in &ds.pings {
        per_cont.entry(p.continent).or_default().insert(p.probe);
        per_cc.entry(p.country).or_default().insert(p.probe);
    }
    let mut conts: Vec<(Continent, usize)> =
        per_cont.into_iter().map(|(c, s)| (c, s.len())).collect(); // audit:allow(map-iter)
    conts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut ccs: Vec<(CountryCode, usize)> =
        per_cc.into_iter().map(|(c, s)| (c, s.len())).collect(); // audit:allow(map-iter)
    ccs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ccs.truncate(10);
    (conts, ccs)
}

impl Render for Fig1 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 1a: datacenters per country (top 15)\n");
        let mut t = Table::new(vec!["Country", "DCs"]);
        for (cc, n) in self.dc_per_country.iter().take(15) {
            t.add_row(vec![cc.to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        out.push_str("\nFig 1b: Speedchecker probes observed per continent\n");
        let mut t = Table::new(vec!["Continent", "Probes"]);
        for (c, n) in &self.probes_per_continent {
            t.add_row(vec![c.code().to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        out.push_str("\nDensest probe countries\n");
        let mut t = Table::new(vec!["Country", "Probes"]);
        for (cc, n) in &self.top_countries {
            t.add_row(vec![cc.to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Fig. 2: the Atlas population.
#[derive(Debug, Clone)]
pub struct Fig2 {
    pub probes_per_continent: Vec<(Continent, usize)>,
    pub top_countries: Vec<(CountryCode, usize)>,
}

pub fn fig2(study: &Study) -> Fig2 {
    let (conts, tops) = probe_counts(study, cloudy_probes::Platform::RipeAtlas);
    Fig2 { probes_per_continent: conts, top_countries: tops }
}

impl Render for Fig2 {
    fn render(&self) -> String {
        let mut out = String::from("Fig 2: RIPE Atlas probes observed per continent\n");
        let mut t = Table::new(vec!["Continent", "Probes"]);
        for (c, n) in &self.probes_per_continent {
            t.add_row(vec![c.code().to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        out.push_str("\nDensest probe countries\n");
        let mut t = Table::new(vec!["Country", "Probes"]);
        for (cc, n) in &self.top_countries {
            t.add_row(vec![cc.to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        out
    }
}

/// Fig. 14 (Appendix A.1): Speedchecker probe distribution grouped by
/// geographical "closeness".
///
/// The appendix illustrates how tightly a country's probes cluster — the
/// paper's example being Africa's north/south split that drives up latencies
/// to in-continent datacenters. We quantify closeness per country as the
/// mean great-circle distance between observed probe locations (city-level),
/// bucketed for the choropleth.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// (country, probes observed, mean inter-probe distance km).
    pub rows: Vec<(CountryCode, usize, f64)>,
}

impl Fig14 {
    pub fn row(&self, cc: &str) -> Option<&(CountryCode, usize, f64)> {
        self.rows.iter().find(|(c, _, _)| c.as_str() == cc)
    }

    /// Closeness bucket label for a mean spread.
    pub fn bucket(spread_km: f64) -> &'static str {
        match spread_km {
            s if s < 100.0 => "very dense (<100 km)",
            s if s < 400.0 => "dense (100-400 km)",
            s if s < 1000.0 => "spread (400-1000 km)",
            _ => "scattered (>1000 km)",
        }
    }
}

pub fn fig14(study: &Study) -> Fig14 {
    use cloudy_geo::city;
    // Per country: distinct (probe, city) placements, in probe-id order so
    // the spread sums the same terms in the same order on every run.
    let mut per_cc: HashMap<CountryCode, BTreeMap<cloudy_probes::ProbeId, &str>> =
        HashMap::new();
    for p in &study.sc.pings {
        per_cc.entry(p.country).or_default().entry(p.probe).or_insert(p.city.as_str());
    }
    let mut rows = Vec::new();
    for (cc, probes) in per_cc { // audit:allow(map-iter)
        if probes.len() < 5 {
            continue;
        }
        let locs: Vec<cloudy_geo::GeoPoint> = probes
            .values()
            .filter_map(|name| city::by_name(name).map(|(_, c)| c.location()))
            .collect();
        if locs.len() < 5 {
            continue;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                sum += locs[i].haversine_km(&locs[j]);
                n += 1;
            }
        }
        rows.push((cc, probes.len(), if n == 0 { 0.0 } else { sum / n as f64 }));
    }
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    Fig14 { rows }
}

impl Render for Fig14 {
    fn render(&self) -> String {
        let mut t = Table::new(vec!["Country", "Probes", "Mean spread [km]", "Closeness"]);
        for (cc, n, spread) in &self.rows {
            t.add_row(vec![
                cc.to_string(),
                n.to_string(),
                format!("{spread:.0}"),
                Fig14::bucket(*spread).to_string(),
            ]);
        }
        format!(
            "Fig 14 (A.1): Speedchecker probe closeness per country (most scattered first)
{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_exactly() {
        let t = table1();
        assert_eq!(t.totals, [52, 62, 4, 62, 3, 12]);
        let amzn = t.rows.iter().find(|(p, _, _)| *p == Provider::AmazonEc2).unwrap();
        assert_eq!(amzn.1, [6, 6, 1, 6, 1, 1]);
        assert_eq!(amzn.2, "Private");
        let vltr = t.rows.iter().find(|(p, _, _)| *p == Provider::Vultr).unwrap();
        assert_eq!(vltr.2, "Public");
        let rendered = t.render();
        assert!(rendered.contains("Amazon EC2"));
        assert!(rendered.contains("Total"));
    }
}

//! Seeded inputs: the corpora and the request stream. Everything the
//! program receives is derived from the workload seed here, so the same
//! seed gives byte-identical documents and query texts.

use std::collections::BTreeMap;

use xmlgen::auction::{AuctionConfig, REGIONS};
use xmlgen::dblp::{DblpConfig, VENUES};
use xmlpar::{Document, NodeId};

/// SplitMix64: small, fast, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_b3c4_d2e1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Skewed draw in `0..n`: index `i` is picked with probability that
    /// falls off as a power of its rank, so a few values are hot and most
    /// are cold (a request stream where some requests repeat exactly).
    pub fn skewed(&mut self, n: u64) -> u64 {
        ((self.unit().powi(3) * n as f64) as u64).min(n - 1)
    }

    pub fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// Which base document a request reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    Auction,
    Dblp,
}

impl Corpus {
    pub const ALL: [Corpus; 2] = [Corpus::Auction, Corpus::Dblp];

    pub fn idx(self) -> usize {
        self as usize
    }

    pub fn doc_name(self) -> &'static str {
        match self {
            Corpus::Auction => "auction",
            Corpus::Dblp => "dblp",
        }
    }
}

/// Corpus sizes for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub auction_scale: f64,
    pub dblp_entries: usize,
}

impl Sizes {
    /// `mixed_rw`: ~900 auction rows, ~1.3k DBLP rows.
    pub const SMALL: Sizes = Sizes {
        auction_scale: 0.1,
        dblp_entries: 100,
    };
    /// `lookups`: ~8.5k auction rows plus the default 500-entry DBLP.
    pub const LARGE: Sizes = Sizes {
        auction_scale: 1.0,
        dblp_entries: 500,
    };
}

/// The two base documents of a workload, serialized, and the value
/// distributions their predicate literals are drawn from.
pub struct Corpora {
    pub auction: String,
    pub dblp: String,
    pub profile: Profile,
}

impl Corpora {
    pub fn generate(seed: u64, sizes: Sizes) -> Corpora {
        let mut rng = Rng::new(seed ^ 0xc0ffee);
        let auction = xmlgen::auction::generate(&AuctionConfig {
            scale: sizes.auction_scale,
            seed: rng.next_u64(),
        });
        let articles = sizes.dblp_entries * 3 / 5;
        let dblp = xmlgen::dblp::generate(&DblpConfig {
            articles,
            inproceedings: sizes.dblp_entries - articles,
            seed: rng.next_u64(),
        });
        Corpora {
            profile: Profile::of(&auction, &dblp),
            auction: xmlpar::serialize::to_string(&auction),
            dblp: xmlpar::serialize::to_string(&dblp),
        }
    }

    pub fn xml(&self, corpus: Corpus) -> &str {
        match corpus {
            Corpus::Auction => &self.auction,
            Corpus::Dblp => &self.dblp,
        }
    }
}

/// Value distributions of the generated documents, as sorted
/// `(value, weight)` pairs: the weight is the number of result items a
/// node with that value contributes (bidder increases per auction,
/// authors per paper, one otherwise). Range literals are picked as
/// weighted quantiles of these, so a request returns a seeded share of the
/// items whatever the seed's corpus looks like, and request costs do not
/// swing with the luck of a small corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    people: u64,
    items: u64,
    open_auctions: u64,
    prices: Vec<(u64, u64)>,
    unfeatured_prices: Vec<(u64, u64)>,
    /// Initial price, weighted by bidders.
    initials: Vec<(u64, u64)>,
    ages: Vec<(u64, u64)>,
    article_years: Vec<(u64, u64)>,
    /// Year, weighted by authors.
    inproceedings_years: Vec<(u64, u64)>,
    /// Articles per journal.
    journals: BTreeMap<String, u64>,
    /// Authors per venue.
    venues: BTreeMap<String, u64>,
}

impl Profile {
    fn of(auction: &Document, dblp: &Document) -> Profile {
        let mut p = Profile::default();
        let number = |doc: &Document, el: NodeId, child: &str| -> Option<u64> {
            doc.child_elements(el, child)
                .next()
                .and_then(|c| doc.text_of(c).trim().parse().ok())
        };
        let count = |doc: &Document, el: NodeId, child: &str| -> u64 {
            doc.child_elements(el, child).count() as u64
        };
        for el in auction.iter() {
            let Some(name) = auction.name(el) else {
                continue;
            };
            match name.local.as_str() {
                "person" => p.people += 1,
                "item" => {
                    p.items += 1;
                    if let Some(price) = number(auction, el, "price") {
                        p.prices.push((price, 1));
                        if auction.attribute(el, "featured") == Some("no") {
                            p.unfeatured_prices.push((price, 1));
                        }
                    }
                }
                "open_auction" => {
                    p.open_auctions += 1;
                    if let Some(initial) = number(auction, el, "initial") {
                        p.initials.push((initial, count(auction, el, "bidder")));
                    }
                }
                "profile" => p.ages.extend(number(auction, el, "age").map(|a| (a, 1))),
                _ => {}
            }
        }
        let text = |doc: &Document, el: NodeId, child: &str| -> String {
            doc.child_elements(el, child)
                .next()
                .map(|c| doc.text_of(c))
                .unwrap_or_default()
        };
        for el in dblp.iter() {
            let Some(year) = number(dblp, el, "year") else {
                continue;
            };
            match dblp.name(el).map(|n| n.local.as_str()) {
                Some("article") => {
                    p.article_years.push((year, 1));
                    *p.journals.entry(text(dblp, el, "journal")).or_default() += 1;
                }
                Some("inproceedings") => {
                    let authors = count(dblp, el, "author");
                    p.inproceedings_years.push((year, authors));
                    *p.venues.entry(text(dblp, el, "booktitle")).or_default() += authors;
                }
                _ => {}
            }
        }
        for v in [
            &mut p.prices,
            &mut p.unfeatured_prices,
            &mut p.initials,
            &mut p.ages,
            &mut p.article_years,
            &mut p.inproceedings_years,
        ] {
            v.sort_unstable();
        }
        p
    }
}

/// A literal `x` such that the nodes with `value > x` carry about `share`
/// of the total weight: the cut between two distinct values that comes
/// closest to it.
fn above(values: &[(u64, u64)], share: f64) -> u64 {
    let target = share * values.iter().map(|v| v.1).sum::<u64>() as f64;
    let mut best = (
        f64::INFINITY,
        values.last().map_or(0, |v| v.0.saturating_sub(1)),
    );
    let mut taken = 0u64;
    for (i, &(value, weight)) in values.iter().enumerate().rev() {
        taken += weight;
        let boundary = i == 0 || values[i - 1].0 != value;
        if boundary && (taken as f64 - target).abs() < best.0 {
            best = ((taken as f64 - target).abs(), value.saturating_sub(1));
        }
    }
    best.1
}

/// The category whose weight comes closest to `share` of the mean
/// category weight.
fn typical(categories: &BTreeMap<String, u64>, share: f64) -> &str {
    let mean = categories.values().sum::<u64>() as f64 / categories.len().max(1) as f64;
    categories
        .iter()
        .min_by(|a, b| {
            let da = (*a.1 as f64 - share * mean).abs();
            let db = (*b.1 as f64 - share * mean).abs();
            da.total_cmp(&db)
        })
        .map_or("", |(name, _)| name.as_str())
}

/// The point `u` (in `[0, 1)`) of the share range `lo..hi`.
fn share(u: f64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * u
}

/// A small seeded auction document (scale 0.01, ~1.9 KB) for the write
/// stream of `mixed_rw`.
pub fn churn_doc(seed: u64, n: u64) -> String {
    let mut rng = Rng::new(seed ^ 0xc4u64.wrapping_mul(n + 1));
    xmlgen::auction::generate_xml(&AuctionConfig {
        scale: 0.01,
        seed: rng.next_u64(),
    })
}

/// The person subtree `mixed_rw` inserts under `/site/people`.
pub fn person_fragment(n: u64) -> String {
    format!(
        "<person id=\"bench-{n}\"><name>Bench Person {n}</name>\
         <emailaddress>mailto:bench{n}@example.org</emailaddress>\
         <profile><age>{}</age></profile></person>",
        20 + n % 50
    )
}

/// One read request: a query text over one base document, and the order
/// in which it visits the six schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub corpus: Corpus,
    pub template: &'static str,
    pub text: String,
    /// A seeded permutation of the scheme indexes. Beside the `mixed_rw`
    /// writer, which also cycles through the schemes, a fixed order would
    /// let the two loops lock into step and load one scheme's reads with
    /// every write stall in some runs and none in others.
    pub order: [usize; 6],
}

/// Templates whose results are published XML fragments: auction Q1,
/// Q3–Q9, Q11, Q12 and DBLP D1–D4, each with seeded predicate literals.
pub const FRAGMENT_TEMPLATES: &[&str] = &[
    "Q1", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q11", "Q12", "D1", "D2", "D3", "D4",
];

/// Templates whose results are values (`text()`, `@attr`).
pub const LOOKUP_TEMPLATES: &[&str] = &["L1", "L2", "L3", "L4", "L5", "L6", "L7"];

/// Instantiate `template` with literals drawn from `rng` and `profile`:
/// range literals select the share of the items that `u` (in `[0, 1)`)
/// points to within the template's range, id literals name existing
/// nodes.
pub fn instantiate(template: &'static str, rng: &mut Rng, u: f64, profile: &Profile) -> Req {
    let p = profile;
    use Corpus::{Auction, Dblp};
    let (corpus, text) = match template {
        "Q1" => (
            Auction,
            format!(
                "/site/regions/region[@name = '{}']/item/name",
                rng.pick(REGIONS)
            ),
        ),
        "Q3" => (
            Auction,
            format!(
                "/site/open_auctions/open_auction[initial > {}]/bidder/increase",
                above(&p.initials, share(u, 0.6, 1.0))
            ),
        ),
        "Q4" => (
            Auction,
            format!(
                "//item[price > {}]/name",
                above(&p.prices, share(u, 0.45, 0.8))
            ),
        ),
        "Q5" => (
            Auction,
            format!(
                "//open_auction[initial > {}]//increase",
                above(&p.initials, share(u, 0.6, 1.0))
            ),
        ),
        "Q6" => (
            Auction,
            format!(
                "/site/people/person[profile/age > {}]//age",
                above(&p.ages, share(u, 0.6, 1.0))
            ),
        ),
        "Q7" => (
            Auction,
            format!(
                "/site/people/person[profile/age > {}]/name",
                above(&p.ages, share(u, 0.6, 1.0))
            ),
        ),
        "Q8" => (
            Auction,
            format!(
                "/site/regions/region/item[price > {}]/name",
                above(&p.prices, share(u, 0.45, 0.8))
            ),
        ),
        "Q9" => (
            Auction,
            format!(
                "//item[@featured = 'no' and price > {}]/name",
                above(&p.unfeatured_prices, share(u, 0.45, 0.8))
            ),
        ),
        "Q11" => (
            Auction,
            format!(
                "for $p in /site/people/person where $p/profile/age > {} \
                 order by $p/name return $p/name",
                above(&p.ages, share(u, 0.6, 1.0))
            ),
        ),
        "Q12" => (
            Auction,
            format!(
                "for $a in /site/open_auctions/open_auction, $p in /site/people/person \
                 where $a/seller/@person = $p/@id and $p/profile/age > {} \
                 return <sale>{{$p/name, $a/initial}}</sale>",
                above(&p.ages, share(u, 0.6, 1.0))
            ),
        ),
        "D1" => (
            Dblp,
            format!(
                "/dblp/article[journal = '{}']/title",
                typical(&p.journals, share(u, 0.8, 1.2))
            ),
        ),
        "D2" => (
            Dblp,
            format!(
                "/dblp/article[year > {}]/title",
                above(&p.article_years, share(u, 0.3, 0.5))
            ),
        ),
        "D3" => (
            Dblp,
            format!(
                "/dblp/inproceedings[booktitle = '{}']/author",
                typical(&p.venues, share(u, 0.8, 1.2))
            ),
        ),
        "D4" => (
            Dblp,
            format!(
                "//inproceedings[year > {}]/author",
                above(&p.inproceedings_years, share(u, 0.3, 0.5))
            ),
        ),
        "L1" => (
            Auction,
            format!(
                "/site/people/person[@id = 'person{}']/name/text()",
                rng.skewed(p.people)
            ),
        ),
        "L2" => (
            Auction,
            format!(
                "/site/regions/region/item[@id = 'item{}']/price/text()",
                rng.skewed(p.items)
            ),
        ),
        "L3" => (
            Auction,
            format!(
                "/site/regions/region/item[price > {}]/name/text()",
                above(&p.prices, 0.01 * (1 + rng.skewed(10)) as f64)
            ),
        ),
        "L4" => (
            Auction,
            format!(
                "/site/people/person[profile/age > {}]/@id",
                above(&p.ages, 0.01 * (1 + rng.skewed(10)) as f64)
            ),
        ),
        "L5" => (
            Auction,
            format!(
                "/site/regions/region[@name = '{}']/item[@featured = 'yes']/@id",
                REGIONS[rng.skewed(REGIONS.len() as u64) as usize]
            ),
        ),
        "L6" => (
            Auction,
            format!(
                "/site/open_auctions/open_auction[@id = 'open{}']/bidder/increase/text()",
                rng.skewed(p.open_auctions)
            ),
        ),
        "L7" => (
            Dblp,
            if rng.next_u64().is_multiple_of(2) {
                format!(
                    "/dblp/article[year = '{}']/title/text()",
                    2003 - rng.skewed(19)
                )
            } else {
                format!(
                    "/dblp/inproceedings[booktitle = '{}' and year = '{}']/title/text()",
                    VENUES[rng.skewed(VENUES.len() as u64) as usize],
                    2003 - rng.skewed(19)
                )
            },
        ),
        other => unreachable!("unknown template {other}"),
    };
    let mut order = [0, 1, 2, 3, 4, 5];
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    Req {
        corpus,
        template,
        text,
        order,
    }
}

/// An endless, seeded request stream cycling through `templates` in
/// order, so every run sees the same template mix.
pub struct Stream {
    rng: Rng,
    templates: &'static [&'static str],
    profile: Profile,
    next: usize,
    /// Golden-ratio sequence from a seeded start: the share points of
    /// one run cover each template's range evenly whatever the seed, so
    /// the mix of result sizes (and with it the cost mix) repeats from run
    /// to run.
    phase: f64,
}

impl Stream {
    pub fn new(seed: u64, templates: &'static [&'static str], profile: &Profile) -> Stream {
        let mut rng = Rng::new(seed ^ 0x57_2e_a3);
        let phase = rng.unit();
        Stream {
            rng,
            templates,
            profile: profile.clone(),
            next: 0,
            phase,
        }
    }
}

impl Iterator for Stream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let template = self.templates[self.next % self.templates.len()];
        self.next += 1;
        self.phase = (self.phase + 0.618_033_988_749_895) % 1.0;
        Some(instantiate(
            template,
            &mut self.rng,
            self.phase,
            &self.profile,
        ))
    }
}

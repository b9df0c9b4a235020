//! Workload definitions and the seeded statement streams.
//!
//! The data is always TPC-D generated with seed 42 — the same data the
//! service's own `\load tpcd` produces — so reference replies stay valid
//! across publishes. The benchmark seed drives only the statement streams:
//! which shape each read is, which literal variant it carries, and where
//! the writer's publishes fall.

use decorr_tpcd::queries;

/// The TPC-D generator seed of every workload's data (and of `\load`).
pub const DATA_SEED: u64 = 42;

/// Statements between two publishes of the writing client.
pub const PUBLISH_EVERY: u64 = 50;

/// Zipf exponent of the literal-variant draw within a shape.
pub const ZIPF_S: f64 = 1.0;

/// One of the three workloads.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub scale: f64,
    /// Durable catalog in a temporary data directory (no secondary
    /// indexes) instead of an ephemeral indexed one.
    pub durable: bool,
    /// Buffer-pool budget of the durable store, in bytes.
    pub pool_bytes: usize,
    /// Per-query memory quota, in rows (`Quotas::per_query_mem_rows`).
    pub quota_rows: usize,
    /// What the writing client publishes every [`PUBLISH_EVERY`]th
    /// statement; empty when the workload only reads.
    pub publishes: &'static [Publish],
    /// Cards of each of [`SHAPES`] in one shuffled round of reads.
    pub shape_cards: [usize; 7],
}

/// A publishing write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Publish {
    Analyze,
    Load,
}

impl Publish {
    pub fn name(self) -> &'static str {
        match self {
            Publish::Analyze => "analyze",
            Publish::Load => "load",
        }
    }
}

pub const WORKLOADS: [Workload; 3] = [
    // Steady-state serving: every plan is a cache hit after warm-up.
    Workload {
        name: "warm-mix",
        scale: 0.1,
        durable: false,
        pool_bytes: 0,
        quota_rows: 1 << 20,
        publishes: &[],
        shape_cards: [1; 7],
    },
    // Writes beside reads: statistics, the race and the rewrite run again
    // after every publish.
    Workload {
        name: "epoch-churn",
        scale: 0.1,
        durable: false,
        pool_bytes: 0,
        quota_rows: 1 << 20,
        publishes: &[Publish::Analyze, Publish::Load],
        shape_cards: [1; 7],
    },
    // Storage and over-budget execution: a pool smaller than the scanned
    // tables, a quota below partsupp's and lineitem's row counts, and
    // ANALYZE as a WAL commit. The degraded fig8 plan costs ~100 times the
    // other shapes and `wide` waits ~44 ms on the wire, so a round holds
    // one fig8, six wide and twelve of every other shape: at equal weight
    // fig8 would take nine tenths of the run, and the sub-millisecond
    // shapes need the samples for a steady median.
    Workload {
        name: "durable-budget",
        scale: 0.02,
        durable: true,
        pool_bytes: 512 << 10,
        quota_rows: 1_000,
        publishes: &[Publish::Analyze],
        shape_cards: [12, 12, 1, 12, 12, 6, 12],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The read shapes, in reporting order.
pub const SHAPES: [&str; 7] = ["fig5", "fig6", "fig8", "fig9", "point", "wide", "join"];

// Literal variants per shape, most popular first (Zipf rank order). The
// variants of a shape select equally many rows at both scales, so a
// shape's latency does not hinge on which variants a seed happens to draw:
// nations and regions hold equally many suppliers (round-robin), and
// every fig8 brand/container pair matches 6 parts at scale 0.02 and 19 or
// 20 at 0.1. MIDDLE EAST is left out: its nations hold no supplier below
// 25 suppliers (scale 0.025).
const FIG5_VARIANTS: [(&str, i64); 6] = [
    ("FRANCE", 15),
    ("INDIA", 15),
    ("JAPAN", 15),
    ("CANADA", 15),
    ("KENYA", 15),
    ("BRAZIL", 15),
];
const FIG6_VARIANTS: [(&str, &str, &str); 6] = [
    ("AMERICA", "EUROPE", "BRASS"),
    ("ASIA", "AFRICA", "BRASS"),
    ("EUROPE", "ASIA", "BRASS"),
    ("AFRICA", "AMERICA", "BRASS"),
    ("EUROPE", "AFRICA", "BRASS"),
    ("AMERICA", "ASIA", "BRASS"),
];
const FIG8_VARIANTS: [(&str, &str); 4] = [
    ("Brand#23", "6 PACK"),
    ("Brand#41", "LG CASE"),
    ("Brand#31", "LG CASE"),
    ("Brand#12", "6 PACK"),
];
const FIG9_VARIANTS: [(&str, &str, &str); 6] = [
    ("BUILDING", "FURNITURE", "EUROPE"),
    ("AUTOMOBILE", "MACHINERY", "ASIA"),
    ("HOUSEHOLD", "BUILDING", "AMERICA"),
    ("FURNITURE", "AUTOMOBILE", "AFRICA"),
    ("MACHINERY", "HOUSEHOLD", "EUROPE"),
    ("BUILDING", "MACHINERY", "ASIA"),
];
const POINT_VARIANTS: [&str; 4] = ["EUROPE", "ASIA", "AMERICA", "AFRICA"];

/// Number of literal variants of `shape`.
pub fn variant_count(shape: usize) -> usize {
    match SHAPES[shape] {
        "fig5" => FIG5_VARIANTS.len(),
        "fig6" => FIG6_VARIANTS.len(),
        "fig8" => FIG8_VARIANTS.len(),
        "fig9" => FIG9_VARIANTS.len(),
        "point" => POINT_VARIANTS.len(),
        _ => 1,
    }
}

/// The SQL text of `shape` with literal variant `variant`. The fig shapes
/// are the paper's queries (`decorr_tpcd::queries`) with their literals
/// substituted, so variant 0 of each is the paper's text.
pub fn sql(shape: usize, variant: usize) -> String {
    match SHAPES[shape] {
        "fig5" => {
            let (nation, size) = FIG5_VARIANTS[variant];
            queries::Q1A
                .replace("'FRANCE'", &format!("'{nation}'"))
                .replace("p.p_size = 15", &format!("p.p_size = {size}"))
        }
        "fig6" => {
            let (r1, r2, ty) = FIG6_VARIANTS[variant];
            queries::Q1B
                .replace("('AMERICA', 'EUROPE')", &format!("('{r1}', '{r2}')"))
                .replace("'BRASS'", &format!("'{ty}'"))
        }
        "fig8" => {
            let (brand, container) = FIG8_VARIANTS[variant];
            queries::Q2
                .replace("'Brand#23'", &format!("'{brand}'"))
                .replace("'6 PACK'", &format!("'{container}'"))
        }
        "fig9" => {
            let (seg1, seg2, region) = FIG9_VARIANTS[variant];
            queries::Q3
                .replace("'BUILDING'", &format!("'{seg1}'"))
                .replace("'FURNITURE'", &format!("'{seg2}'"))
                .replace("'EUROPE'", &format!("'{region}'"))
        }
        "point" => format!(
            "Select s.s_name, s.s_phone From Suppliers s Where s.s_region = '{}'",
            POINT_VARIANTS[variant]
        ),
        // One row per part: the reply is ~55 bytes a row, over 16 KiB from
        // 300 parts up (scale 0.015).
        "wide" => "Select p.p_name, p.p_type, p.p_brand, p.p_container, count(*) \
                   From Parts p Group By p.p_name, p.p_type, p.p_brand, p.p_container"
            .to_string(),
        // The storage benchmark's spill query.
        "join" => "Select sum(ps.ps_supplycost * p.p_size) From Parts p, Partsupp ps \
                   Where p.p_partkey = ps.ps_partkey"
            .to_string(),
        other => unreachable!("unknown shape {other}"),
    }
}

/// One statement of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    Read { shape: usize, variant: usize },
    Publish(Publish),
}

impl Item {
    /// The line sent to the server.
    pub fn line(self, scale: f64) -> String {
        match self {
            Item::Read { shape, variant } => sql(shape, variant),
            Item::Publish(Publish::Analyze) => "ANALYZE".to_string(),
            Item::Publish(Publish::Load) => format!("\\load tpcd {scale}"),
        }
    }
}

/// SplitMix64: a tiny, portable, seedable generator, so a stream depends
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf weights `1 / (k + 1)^s` for ranks `0..n`, normalised to sum 1.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Draw an index from `weights` (which sum to 1) with uniform `u` in
/// `[0, 1)`.
pub fn draw(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (k, w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return k;
        }
    }
    weights.len() - 1
}

/// `cards[s]` copies of each index `s`, in a seeded random order
/// (Fisher–Yates).
pub fn shuffled_round(cards: &[usize], rng: &mut SplitMix64) -> Vec<usize> {
    let mut round: Vec<usize> = cards
        .iter()
        .enumerate()
        .flat_map(|(s, &n)| vec![s; n])
        .collect();
    for i in (1..round.len()).rev() {
        let j = (rng.next_f64() * (i + 1) as f64) as usize;
        round.swap(i, j.min(i));
    }
    round
}

/// One client's statement stream. Reads take their shapes from shuffled
/// rounds holding [`Workload::shape_cards`] of each, so every seed runs the
/// same mix, and their variants by Zipf rank; the writing client
/// (`writer`) replaces every [`PUBLISH_EVERY`]th statement with the
/// workload's next publish.
pub struct Stream {
    rng: SplitMix64,
    cards: [usize; 7],
    round: Vec<usize>,
    variants: Vec<Vec<f64>>,
    publishes: &'static [Publish],
    writer: bool,
    issued: u64,
}

impl Stream {
    pub fn new(w: &Workload, seed: u64, client: usize) -> Stream {
        // Distinct, well-mixed state per (seed, client).
        let mut root = SplitMix64::new(seed ^ 0xD1B5_4A32_D192_ED03);
        for _ in 0..=client {
            root.next_u64();
        }
        Stream {
            rng: SplitMix64::new(root.next_u64()),
            cards: w.shape_cards,
            round: Vec::new(),
            variants: (0..SHAPES.len())
                .map(|s| zipf_weights(variant_count(s), ZIPF_S))
                .collect(),
            publishes: w.publishes,
            writer: client == 0 && !w.publishes.is_empty(),
            issued: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        self.issued += 1;
        if self.writer && self.issued.is_multiple_of(PUBLISH_EVERY) {
            let k = (self.issued / PUBLISH_EVERY - 1) as usize;
            return Some(Item::Publish(self.publishes[k % self.publishes.len()]));
        }
        if self.round.is_empty() {
            self.round = shuffled_round(&self.cards, &mut self.rng);
        }
        let shape = self.round.pop().expect("a round holds at least one card");
        let variant = draw(&self.variants[shape], self.rng.next_f64());
        Some(Item::Read { shape, variant })
    }
}

/// Every distinct read statement, shape-major.
pub fn distinct_reads() -> Vec<(usize, usize)> {
    (0..SHAPES.len())
        .flat_map(|s| (0..variant_count(s)).map(move |v| (s, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: &Workload, seed: u64, client: usize, n: usize) -> Vec<Item> {
        Stream::new(w, seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            assert_eq!(take(w, 7, 0, 500), take(w, 7, 0, 500));
            assert_ne!(take(w, 7, 0, 500), take(w, 8, 0, 500));
            // The two clients of one run do not replay each other.
            assert_ne!(take(w, 7, 0, 500), take(w, 7, 1, 500));
        }
    }

    #[test]
    fn writer_publishes_every_50th_statement_alternating() {
        let churn = workload("epoch-churn").unwrap();
        let items = take(churn, 1, 0, 200);
        let publishes: Vec<(usize, Item)> = items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, Item::Publish(_)))
            .map(|(i, it)| (i, *it))
            .collect();
        assert_eq!(
            publishes,
            vec![
                (49, Item::Publish(Publish::Analyze)),
                (99, Item::Publish(Publish::Load)),
                (149, Item::Publish(Publish::Analyze)),
                (199, Item::Publish(Publish::Load)),
            ]
        );
        // The reader and every client of warm-mix never publish.
        assert!(take(churn, 1, 1, 200)
            .iter()
            .all(|i| matches!(i, Item::Read { .. })));
        let warm = workload("warm-mix").unwrap();
        assert!(take(warm, 1, 0, 200)
            .iter()
            .all(|i| matches!(i, Item::Read { .. })));
    }

    #[test]
    fn zipf_weights_are_normalised_and_decreasing() {
        let w = zipf_weights(6, 1.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        // Rank 0 is twice as likely as rank 1 at s = 1.
        assert!((w[0] / w[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn draws_follow_the_weights() {
        let w = zipf_weights(4, 1.0);
        // Boundaries of the cumulative distribution.
        assert_eq!(draw(&w, 0.0), 0);
        assert_eq!(draw(&w, w[0] - 1e-9), 0);
        assert_eq!(draw(&w, w[0] + 1e-9), 1);
        assert_eq!(draw(&w, 0.999_999_999), 3);
        // Empirical frequencies over a long seeded draw.
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[draw(&w, rng.next_f64())] += 1;
        }
        for k in 0..4 {
            let f = counts[k] as f64 / n as f64;
            assert!((f - w[k]).abs() < 0.01, "rank {k}: {f} vs {}", w[k]);
        }
    }

    #[test]
    fn every_round_holds_the_workloads_shape_mix() {
        for w in &WORKLOADS {
            let reads: Vec<usize> = take(w, 5, 1, 20 * w.shape_cards.iter().sum::<usize>())
                .into_iter()
                .map(|i| match i {
                    Item::Read { shape, .. } => shape,
                    Item::Publish(_) => unreachable!("client 1 only reads"),
                })
                .collect();
            for round in reads.chunks(w.shape_cards.iter().sum()) {
                let mut counts = [0; 7];
                round.iter().for_each(|&s| counts[s] += 1);
                assert_eq!(counts, w.shape_cards, "{}", w.name);
            }
        }
        // Rounds are shuffled differently.
        let mut rng = SplitMix64::new(9);
        let a = shuffled_round(&[1; 7], &mut rng);
        let b = shuffled_round(&[1; 7], &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn every_shape_and_variant_is_drawn() {
        let w = workload("warm-mix").unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for it in take(w, 11, 1, 5_000) {
            if let Item::Read { shape, variant } = it {
                seen.insert((shape, variant));
            }
        }
        assert_eq!(seen.len(), distinct_reads().len());
    }

    #[test]
    fn variant_zero_is_the_papers_text() {
        assert_eq!(sql(0, 0), queries::Q1A);
        assert_eq!(sql(1, 0), queries::Q1B);
        assert_eq!(sql(2, 0), queries::Q2);
        assert_eq!(sql(3, 0), queries::Q3);
        // Every variant differs from every other of its shape.
        for s in 0..SHAPES.len() {
            let texts: std::collections::BTreeSet<String> =
                (0..variant_count(s)).map(|v| sql(s, v)).collect();
            assert_eq!(texts.len(), variant_count(s));
        }
    }
}

//! Seeded workload inputs with their ground truth.
//!
//! The benchmark makes every input from its `--seed`; the program only ever
//! sees the resulting deck texts (or, for the one family the deck language
//! cannot express, the resulting model).  The ladder builders replicate the
//! `ds-circuits` generators exactly and keep their element values (pinned
//! by a test).  The seed varies what the numerics do not see: the deck text
//! (node names, titles, spacing), the order of a pool and, where the daemon
//! needs decks it has never seen, inert open circuits (zero conductances)
//! that change the canonical deck but stamp to the same matrices.
//!
//! Element values stay fixed for two reasons.  The dense eigen-solvers'
//! iteration counts react chaotically to them: a 0.2 % jitter of the
//! order-100 ladder moved single Weierstrass checks by up to 2x, so the
//! percentiles would depend on which decks a seed happened to draw.  And
//! jittered values meet a defect: the proposed test stops with "svd::svd
//! failed to converge after 60 iterations" on 2 in 2,400 small ladders with
//! every value jittered by 20 %, on 1 in 40,000 with only the load resistor
//! jittered, and on one of 40 order-10001 reduce decks jittered by 2 %.

use ds_passivity_suite::circuits::generators::{self, CircuitModel};
use ds_passivity_suite::circuits::{mna, Netlist, Port};
use ds_passivity_suite::descriptor::DescriptorSystem;
use ds_passivity_suite::harness::Method;
use ds_passivity_suite::netlist::{parse_deck, render_netlist};
use ds_passivity_suite::PassivityCheck;

/// SplitMix64: a tiny deterministic generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and one input stream (`stream` keeps the
    /// streams of one seed independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a case hands to the program.
#[derive(Debug, Clone)]
pub enum Source {
    /// SPICE deck text.
    Deck(String),
    /// An in-memory model, for inputs the deck language cannot express.
    Model(Box<CircuitModel>),
}

/// One workload input and its ground truth.
#[derive(Debug, Clone)]
pub struct Case {
    /// Generator family (`table1_ladder`, `nonpassive_ladder`, …).
    pub kind: &'static str,
    /// Ground truth: whether the network is passive.
    pub passive: bool,
    /// The input.
    pub source: Source,
}

impl Case {
    /// The pipeline request for this case.
    pub fn check(&self, method: Method) -> PassivityCheck {
        let check = match &self.source {
            Source::Deck(text) => PassivityCheck::deck_text(text.clone()),
            Source::Model(model) => PassivityCheck::model(model.as_ref().clone()),
        };
        check.method(method)
    }

    /// The deck text, for deck cases.
    pub fn text(&self) -> Option<&str> {
        match &self.source {
            Source::Deck(text) => Some(text),
            Source::Model(_) => None,
        }
    }
}

fn deck_case(kind: &'static str, netlist: &Netlist, passive: bool) -> Case {
    Case {
        kind,
        passive,
        source: Source::Deck(render_netlist(netlist, Some(passive))),
    }
}

/// The Table-1 impulsive RLC ladder of `generators::rlc_ladder_with_impulsive`
/// (state order `order`, even, ≥ 6), as a netlist.
pub fn table1_netlist(order: usize) -> Netlist {
    let sections = (order - 4) / 2;
    let num_nodes = sections + 3;
    let mut net = Netlist::new(num_nodes);
    net.port(Port::to_ground(1));
    net.inductor(1, 2, 0.8);
    net.resistor(2, 0, 50.0);
    let mut prev = 2usize;
    for k in 0..sections {
        let node = 3 + k;
        net.resistor(prev, node, 1.0 + 0.01 * k as f64);
        net.inductor(prev, node, 0.5 + 0.005 * k as f64);
        net.capacitor(node, 0, 1.0 + 0.02 * k as f64);
        net.resistor(node, 0, 200.0);
        prev = node;
    }
    net.resistor(prev, num_nodes, 1.0);
    net.capacitor(num_nodes, 0, 2.0);
    net.resistor(num_nodes, 0, 5.0);
    net
}

/// The negative-series-resistance ladder of `generators::nonpassive_ladder`.
pub fn nonpassive_netlist(order: usize) -> Netlist {
    let sections = (order - 4) / 2;
    let num_nodes = sections + 3;
    let mut net = Netlist::new(num_nodes);
    net.port(Port::to_ground(1));
    net.resistor(1, 2, -10.0);
    net.inductor(2, 3, 0.8);
    net.resistor(3, 0, 5.0);
    let mut prev = 3usize;
    for k in 0..sections {
        let node = 4 + k;
        net.resistor(prev, node, 1.0 + 0.01 * k as f64);
        net.inductor(prev, node, 0.5 + 0.005 * k as f64);
        net.capacitor(node, 0, 1.0 + 0.02 * k as f64);
        prev = node;
    }
    net.resistor(prev, 0, 5.0);
    net
}

/// `generators::negative_m1_model`: the Table-1 ladder with a negative
/// inductance in the port inductor's branch equation.  The deck parser
/// rejects `L ≤ 0`, so this family enters as a model.
pub fn negative_m1_model(order: usize) -> CircuitModel {
    let system = mna::stamp(&table1_netlist(order)).expect("ladder stamps");
    let (mut e, a, b, c, d) = system.into_parts();
    let row = (order + 2) / 2;
    e[(row, row)] = -e[(row, row)];
    CircuitModel {
        name: format!("negative_m1(order={order})"),
        system: DescriptorSystem::new(e, a, b, c, d).expect("flipped ladder is well-formed"),
        expected_passive: false,
        has_impulsive_modes: true,
    }
}

/// The table1-dense pool: `size` order-`order` cases (`size` a multiple of
/// 16), one in four non-passive: three in sixteen `nonpassive_ladder`
/// decks and one in sixteen `negative_m1` models, in seeded order, each
/// deck restyled by the seed.  With this mix neither the median nor the
/// 90th percentile of either method's cost falls on the edge between two
/// kinds of case (the non-passive ladders are the proposed test's costliest
/// checks, the negative-M₁ models its cheapest), so both stay put from seed
/// to seed.
pub fn table1_pool(seed: u64, order: usize, size: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, 1);
    let mut cases: Vec<Case> = (0..size)
        .map(|i| match i % 16 {
            0..=2 => deck_case("nonpassive_ladder", &nonpassive_netlist(order), false),
            3 => Case {
                kind: "negative_m1",
                passive: false,
                source: Source::Model(Box::new(negative_m1_model(order))),
            },
            _ => deck_case("table1_ladder", &table1_netlist(order), true),
        })
        .collect();
    rng.shuffle(&mut cases);
    for case in &mut cases {
        if let Source::Deck(text) = &mut case.source {
            *text = restyle(text, &mut rng);
        }
    }
    cases
}

/// The reduce-10k pool: `size` restyled decks of the coupled
/// `reduced_ladder_netlist(sections)` (state order `2·sections + 1`).
pub fn reduce_pool(seed: u64, sections: usize, size: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, 2);
    let net = generators::reduced_ladder_netlist(sections, true).expect("ladder builds");
    let text = render_netlist(&net, Some(true));
    (0..size)
        .map(|_| Case {
            kind: "reduced_ladder",
            passive: true,
            source: Source::Deck(restyle(&text, &mut rng)),
        })
        .collect()
}

/// Open circuits a small deck carries: they make it a deck the daemon has
/// not seen, without changing its matrices.
const OPENS: usize = 3;

/// A small deck for the serve workload: a Table-1 ladder of even order in
/// `min_order..=max_order` or (one time in four) its non-passive sibling,
/// plus [`OPENS`] zero conductances between seeded node pairs.
pub fn small_deck(rng: &mut Rng, min_order: usize, max_order: usize) -> Case {
    let order = min_order + 2 * rng.below((max_order - min_order) / 2 + 1);
    let passive = rng.below(4) != 0;
    let mut net = match passive {
        true => table1_netlist(order),
        false => nonpassive_netlist(order),
    };
    for _ in 0..OPENS {
        let a = 1 + rng.below(net.num_nodes);
        let b = 1 + (a + rng.below(net.num_nodes - 1)) % net.num_nodes;
        net.conductance(a, b, 0.0);
    }
    let kind = match passive {
        true => "table1_ladder",
        false => "nonpassive_ladder",
    };
    deck_case(kind, &net, passive)
}

/// Canonical content hash of a deck text (what the daemon's caches key on).
pub fn deck_hash(text: &str) -> u64 {
    parse_deck(text)
        .expect("benchmark decks parse")
        .content_hash()
}

/// The same deck written differently: renamed nodes, extra whitespace,
/// comments and lower-case directives.  Its canonical hash is unchanged.
pub fn reformat(text: &str) -> String {
    rewrite(text, "net_", "* reformatted repeat")
}

/// A seeded restyling of a deck: node names get a seeded prefix and the
/// deck a seeded title.  Nodes keep their order of first appearance, so the
/// deck stamps to the very same matrices.
pub fn restyle(text: &str, rng: &mut Rng) -> String {
    let tag = rng.next_u64() % 1_000_000;
    rewrite(text, &format!("s{tag}_"), &format!("* deck {tag}"))
}

fn rewrite(text: &str, prefix: &str, title: &str) -> String {
    let rename = |node: &str| {
        if node == "0" || node.eq_ignore_ascii_case("gnd") {
            node.to_string()
        } else {
            format!("{prefix}{node}")
        }
    };
    let mut out = format!("{title}\n");
    for line in text.lines() {
        let code = line.split(';').next().unwrap_or("").trim();
        if code.is_empty() || code.starts_with('*') {
            continue;
        }
        let fields: Vec<&str> = code.split_whitespace().collect();
        let head = fields[0].to_ascii_uppercase();
        let rewritten: Vec<String> = match head.chars().next() {
            Some('R' | 'L' | 'C' | 'G') if fields.len() == 4 => vec![
                fields[0].to_string(),
                rename(fields[1]),
                rename(fields[2]),
                fields[3].to_string(),
            ],
            Some('.') if head == ".PORT" => std::iter::once(".port".to_string())
                .chain(fields[1..].iter().map(|n| rename(n)))
                .collect(),
            Some('.') => fields.iter().map(|f| f.to_ascii_lowercase()).collect(),
            _ => fields.iter().map(|f| f.to_string()).collect(),
        };
        out.push_str("  ");
        out.push_str(&rewritten.join("\t "));
        out.push_str("   ; same element\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_stamp_to_the_generators_matrices() {
        let ours = mna::stamp(&table1_netlist(100)).unwrap();
        let theirs = generators::rlc_ladder_with_impulsive(100).unwrap().system;
        assert_eq!(ours, theirs);
        let ours = mna::stamp(&nonpassive_netlist(40)).unwrap();
        assert_eq!(ours, generators::nonpassive_ladder(40).unwrap().system);
        let ours = negative_m1_model(40).system;
        assert_eq!(ours, generators::negative_m1_model(40).unwrap().system);
    }

    #[test]
    fn small_decks_are_new_decks_with_the_ladders_matrices() {
        let mut rng = Rng::new(5, 5);
        let mut hashes = std::collections::HashSet::new();
        for _ in 0..64 {
            let case = small_deck(&mut rng, 16, 16);
            let text = case.text().unwrap();
            hashes.insert(deck_hash(text));
            let system = mna::stamp(&parse_deck(text).unwrap().netlist).unwrap();
            let base = match case.passive {
                true => generators::rlc_ladder_with_impulsive(16).unwrap().system,
                false => generators::nonpassive_ladder(16).unwrap().system,
            };
            assert_eq!(system, base);
        }
        assert!(hashes.len() > 60);
    }

    #[test]
    fn table1_pool_is_one_in_four_nonpassive_and_seeded() {
        let pool = table1_pool(7, 20, 16);
        assert_eq!(pool.iter().filter(|c| !c.passive).count(), 4);
        let again = table1_pool(7, 20, 16);
        let texts = |p: &[Case]| {
            p.iter()
                .map(|c| c.text().map(str::to_string))
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&pool), texts(&again));
        assert_ne!(texts(&pool), texts(&table1_pool(8, 20, 16)));
        // Restyled decks stamp to the generator's model.
        let text = pool
            .iter()
            .find(|c| c.passive)
            .and_then(Case::text)
            .unwrap();
        let deck = parse_deck(text).unwrap();
        let system = mna::stamp(&deck.netlist).unwrap();
        assert_eq!(
            system,
            generators::rlc_ladder_with_impulsive(20).unwrap().system
        );
    }

    #[test]
    fn reformatted_decks_keep_their_canonical_hash() {
        let mut rng = Rng::new(3, 3);
        for _ in 0..8 {
            let case = small_deck(&mut rng, 8, 30);
            let text = case.text().unwrap();
            assert_eq!(deck_hash(text), deck_hash(&reformat(text)));
            assert_ne!(text, reformat(text));
        }
        let corpus = "R1 in n1 1500m ; c\nL1 n1 0 1\nK1 L1 L1 0.5\n.port in\n.end\n";
        assert!(reformat(corpus).contains("K1\t L1\t L1"));
    }
}

//! The four workloads' inputs: seeded request generators, the
//! lab-under-attack exploit set, and the input digest.
//!
//! Every request is a pure function of `(seed, stream, index)`, so a
//! worker can generate its own share of a round without coordination and
//! any two runs with one seed serve byte-identical inputs.

use joza_core::QueryCheck;
use joza_lab::corpus::{Exploit, VulnPlugin};
use joza_lab::nti_evasion::mutate_for_nti;
use joza_lab::verify::request_for;
use joza_phpsim::builtins::{base64_decode, base64_encode};
use joza_webapp::request::HttpRequest;

/// The workloads, in the order the all-workloads mode runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Steady-state site reads on the production engine.
    WpRead,
    /// Fresh comment posts on the production engine.
    WpWrite,
    /// Every plugin route, 20% exploits in bursts, production engine.
    LabUnderAttack,
    /// Captured SQL batches replayed straight into the dynamic-only gate.
    GateDynamic,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::WpRead, Workload::WpWrite, Workload::LabUnderAttack, Workload::GateDynamic];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WpRead => "wp-read",
            Workload::WpWrite => "wp-write",
            Workload::LabUnderAttack => "lab-under-attack",
            Workload::GateDynamic => "gate-dynamic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests run through the web application (phpsim + db) on
    /// the production engine (query models, taint-free routes and dirty
    /// cells from the static passes). Gate-dynamic instead replays captured
    /// SQL into the paper's dynamic-only install.
    pub fn serves_app(self) -> bool {
        self != Workload::GateDynamic
    }
}

/// SplitMix64. The benchmark carries its own generator so that the inputs
/// a seed produces can never change with a dependency of the code under
/// measurement.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for item `index` of `stream` under `seed`.
    pub fn at(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed);
        let a = r.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2^-50 for the small
    /// `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const STREAM_VALUES: u64 = 1;
const STREAM_BURST: u64 = 2;
const STREAM_LAYOUT: u64 = 3;
const STREAM_SHUFFLE: u64 = 4;
const STREAM_TERM: u64 = 5;
const STREAM_POST: u64 = 6;
const STREAM_ROUTE: u64 = 7;
const STREAM_ATTACK: u64 = 8;

/// The seeded posts that are published (every tenth is a draft).
const PUBLISHED: [u64; 36] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 25, 26, 27, 28,
    29, 31, 32, 33, 34, 35, 36, 37, 38, 39,
];

/// Warm-up requests come from the same generators at indices offset by
/// this, so the timed stream is identical however long the warm-up runs.
pub const WARMUP_BASE: u64 = 1 << 48;

/// Lab-under-attack traffic comes in blocks of this many requests, each
/// holding one burst of [`BURST_LEN`] consecutive exploits (20%).
const BURST_BLOCK: u64 = 50;
const BURST_LEN: u64 = 10;

const SEARCH_TERMS: [&str; 8] =
    ["lorem", "ipsum", "post", "number", "entry", "content", "about", "zzz"];
const WORDS: [&str; 16] = [
    "great",
    "post",
    "really",
    "liked",
    "the",
    "part",
    "about",
    "joza",
    "thanks",
    "and",
    "would",
    "read",
    "more",
    "on",
    "taint",
    "inference",
];

/// What a correct response to a request looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// An exploit: the gate must block it.
    Blocked,
    /// A benign page whose body contains this text.
    Contains(String),
    /// A benign page whose body is exactly this text.
    Equals(&'static str),
    /// A benign page that renders without SQL or PHP errors.
    Clean,
}

impl Expect {
    pub fn is_attack(&self) -> bool {
        *self == Expect::Blocked
    }
}

/// One generated request and its expected outcome.
#[derive(Debug, Clone)]
pub struct Item {
    pub request: HttpRequest,
    pub expect: Expect,
}

/// One exploit payload of the attack set, before its fresh identifier is
/// spliced in.
#[derive(Debug, Clone)]
struct Attack {
    plugin: usize,
    payload: String,
}

/// The seeded input source of one workload.
#[derive(Debug)]
pub struct Inputs {
    workload: Workload,
    seed: u64,
    plugins: Vec<VulnPlugin>,
    attacks: Vec<Attack>,
}

impl Inputs {
    /// `plugins` are the lab's 50 plugins and 3 CMS cases; `nti_threshold`
    /// sizes the NTI-evasion variants against the engine's threshold.
    ///
    /// The attack set is every payload of every shipped exploit plus its
    /// NTI-evasion mutation. The production engine blocks all of them, so
    /// none is left out and an attack that gets through is a failure.
    pub fn new(
        workload: Workload,
        seed: u64,
        plugins: Vec<VulnPlugin>,
        nti_threshold: f64,
    ) -> Self {
        let attacks = plugins
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                [payloads(&p.exploit), payloads(&mutate_for_nti(p, nti_threshold))]
                    .concat()
                    .into_iter()
                    .map(move |payload| Attack { plugin: i, payload })
            })
            .collect();
        Inputs { workload, seed, plugins, attacks }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Number of exploit payloads requests are dealt from.
    pub fn attack_variants(&self) -> usize {
        self.attacks.len()
    }

    /// Request `index` of an app workload's stream (timed indices start at
    /// 0, warm-up indices at [`WARMUP_BASE`]).
    ///
    /// The mix is stratified: every block of requests holds exactly the
    /// workload's shares, and routes, posts and exploits are dealt from
    /// seeded permutations, so seeds change order and values but not the
    /// cost of the mix.
    pub fn item(&self, index: u64) -> Item {
        let mut rng = Rng::at(self.seed, STREAM_VALUES, index);
        match self.workload {
            // Per block of 10: one front page, two searches, seven posts.
            Workload::WpRead => {
                let (block, slot) = (
                    index / 10,
                    self.permutation(STREAM_LAYOUT, index / 10, 10)[(index % 10) as usize],
                );
                match slot {
                    0 => index_item(),
                    1 | 2 => search_item(self.deal(
                        STREAM_TERM,
                        block * 2 + u64::from(slot) - 1,
                        SEARCH_TERMS.len(),
                    )),
                    _ => self.post_item(
                        self.deal(STREAM_POST, block * 7 + u64::from(slot) - 3, 40),
                        index,
                    ),
                }
            }
            Workload::WpWrite => {
                let len = 50 + rng.below(1951) as usize;
                self.comment_item(
                    &mut rng,
                    index,
                    PUBLISHED[self.deal(STREAM_POST, index, PUBLISHED.len())],
                    len,
                )
            }
            Workload::LabUnderAttack => {
                let block = index / BURST_BLOCK;
                let start =
                    Rng::at(self.seed, STREAM_BURST, block).below(BURST_BLOCK - BURST_LEN + 1);
                let offset = index % BURST_BLOCK;
                if (start..start + BURST_LEN).contains(&offset) {
                    self.attack_item(block * BURST_LEN + offset - start, index)
                } else {
                    let benign = block * (BURST_BLOCK - BURST_LEN) + offset
                        - if offset > start { BURST_LEN } else { 0 };
                    self.plugin_item(&mut rng, self.deal(STREAM_ROUTE, benign, self.plugins.len()))
                }
            }
            Workload::GateDynamic => panic!("gate-dynamic replays its pool; it has no app stream"),
        }
    }

    /// The gate-dynamic capture pool: exactly 10% exploits, 30% comment
    /// posts with bodies spread evenly over 1-4 KB, and 60% benign
    /// requests dealt evenly over every route.
    pub fn pool(&self, size: usize) -> Vec<Item> {
        let (attacks, posts) = (size / 10, size * 3 / 10);
        let layout = self.permutation(STREAM_LAYOUT, 0, size);
        (0..size as u64)
            .map(|j| {
                let mut rng = Rng::at(self.seed, STREAM_VALUES, j);
                let v = layout[j as usize] as usize;
                if v < attacks {
                    return self.attack_item(v as u64, j);
                }
                if v < attacks + posts {
                    let len = 1024 + (v - attacks) * 3072 / posts.max(1);
                    let post = PUBLISHED[self.deal(STREAM_POST, j, PUBLISHED.len())];
                    return self.comment_item(&mut rng, j, post, len);
                }
                let routes = self.plugins.len() + 4;
                match self.deal(STREAM_ROUTE, (v - attacks - posts) as u64, routes) {
                    0 => index_item(),
                    1 => search_item(rng.below(SEARCH_TERMS.len() as u64) as usize),
                    2 => self.post_item(rng.below(40) as usize, j),
                    3 => {
                        let len = 50 + rng.below(151) as usize;
                        let post = PUBLISHED[rng.below(PUBLISHED.len() as u64) as usize];
                        self.comment_item(&mut rng, j, post, len)
                    }
                    r => self.plugin_item(&mut rng, r - 4),
                }
            })
            .collect()
    }

    /// The order pool pass `pass` replays the `len` pool entries in.
    pub fn pass_order(&self, pass: u64, len: usize) -> Vec<u32> {
        self.permutation(STREAM_SHUFFLE, pass, len)
    }

    /// A seeded permutation of `0..len`, one per `(stream, cycle)`.
    fn permutation(&self, stream: u64, cycle: u64, len: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..len as u32).collect();
        let mut rng = Rng::at(self.seed, stream, cycle);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    }

    /// Deals the `ordinal`-th card from seeded shuffles of `0..n`: every
    /// run of `n` consecutive ordinals covers each value exactly once.
    fn deal(&self, stream: u64, ordinal: u64, n: usize) -> usize {
        self.permutation(stream, ordinal / n as u64, n)[(ordinal % n as u64) as usize] as usize
    }

    /// Post `post_index + 1`'s page, with a unique `utm` parameter.
    fn post_item(&self, post_index: usize, index: u64) -> Item {
        let post = post_index + 1;
        Item {
            request: HttpRequest::get("single-post")
                .param("p", &post.to_string())
                .query_param("utm", &format!("s{:x}-{index:x}", self.seed)),
            expect: Expect::Contains(format!("<h1>Post number {post}</h1>")),
        }
    }

    /// A comment on `post` with a unique body of `len` characters.
    fn comment_item(&self, rng: &mut Rng, index: u64, post: u64, len: usize) -> Item {
        let mut body = format!("[{:x}.{index:x}]", self.seed);
        while body.len() < len {
            body.push(' ');
            body.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
            if rng.below(12) == 0 {
                body.push(if rng.below(2) == 0 { '.' } else { '!' });
            }
        }
        body.truncate(len);
        Item {
            request: HttpRequest::post("post-comment")
                .param("comment_post_ID", &post.to_string())
                .param("author", &format!("visitor{}", rng.below(1000)))
                .param("comment", &body),
            expect: Expect::Equals("comment saved"),
        }
    }

    /// Plugin `plugin`'s benign request, its value varied over the
    /// plugin's seeded rows.
    fn plugin_item(&self, rng: &mut Rng, plugin: usize) -> Item {
        let p = &self.plugins[plugin];
        let k = 1 + rng.below(5);
        Item { request: request_for(p, &benign_variant(p, k)), expect: Expect::Clean }
    }

    /// The `ordinal`-th exploit dealt from the attack set, carrying a
    /// fresh identifier derived from the request index.
    fn attack_item(&self, ordinal: u64, index: u64) -> Item {
        let attack = &self.attacks[self.deal(STREAM_ATTACK, ordinal, self.attacks.len())];
        let plugin = &self.plugins[attack.plugin];
        let alias = format!("c{:x}x{index:x}", self.seed);
        let payload = if plugin.decodes_base64() {
            let raw = base64_decode(&attack.payload).unwrap_or_else(|| attack.payload.clone());
            base64_encode(with_alias(&raw, &alias).as_bytes())
        } else {
            with_alias(&attack.payload, &alias)
        };
        Item { request: request_for(plugin, &payload), expect: Expect::Blocked }
    }
}

fn index_item() -> Item {
    Item { request: HttpRequest::get("index"), expect: Expect::Contains("<h2>Post number".into()) }
}

fn search_item(term: usize) -> Item {
    Item {
        request: HttpRequest::get("search").param("s", SEARCH_TERMS[term]),
        expect: Expect::Contains(" results</h1>".into()),
    }
}

/// Every injected payload of an exploit (both halves of a differential).
fn payloads(exploit: &Exploit) -> Vec<String> {
    match exploit {
        Exploit::Leak { payload, .. } => vec![payload.clone()],
        Exploit::BooleanDiff { true_payload, false_payload } => {
            vec![true_payload.clone(), false_payload.clone()]
        }
        Exploit::TimingDiff { slow_payload, fast_payload, .. } => {
            vec![slow_payload.clone(), fast_payload.clone()]
        }
    }
}

/// Splices a fresh column alias into a payload, as sqlmap's enumeration
/// does: on the first selected column when the payload selects, else in a
/// scalar subquery. Trailing padding (the whitespace-trimming NTI evasion)
/// stays trailing.
fn with_alias(payload: &str, alias: &str) -> String {
    let core = payload.trim_end_matches(' ');
    let pad = &payload[core.len()..];
    let core = match core.find(" FROM ") {
        Some(i) => format!("{} AS {alias}{}", &core[..i], &core[i..]),
        None => format!("{core} AND (SELECT 1 AS {alias})=1"),
    };
    format!("{core}{pad}")
}

/// The plugin's benign value moved to seeded row `k` (1..=5).
fn benign_variant(p: &VulnPlugin, k: u64) -> String {
    if p.decodes_base64() {
        base64_encode(k.to_string().as_bytes())
    } else if p.benign_value.parse::<i64>().is_ok() {
        k.to_string()
    } else {
        let stem = p.benign_value.strip_suffix("-1").unwrap_or(&p.benign_value);
        format!("{stem}-{k}")
    }
}

/// 64-bit FNV-1a, fed field by field with a separator byte so that
/// adjacent fields cannot run together.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn field(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0x1F]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn request(&mut self, r: &HttpRequest) {
        self.field(if r.is_write() { b"POST" } else { b"GET" });
        self.field(r.path.as_bytes());
        for (k, v) in r.get.iter().chain(&r.post).chain(&r.cookies).chain(&r.headers) {
            self.field(k.as_bytes());
            self.field(v.as_bytes());
        }
    }

    pub fn checks(&mut self, checks: &[QueryCheck]) {
        for c in checks {
            self.field(c.query.as_bytes());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(workload: Workload, seed: u64) -> Inputs {
        let lab = joza_lab::build_lab();
        Inputs::new(workload, seed, lab.plugins.into_iter().chain(lab.cms_cases).collect(), 0.2)
    }

    fn stream_digest(inputs: &Inputs, n: u64) -> u64 {
        let mut d = Digest::default();
        for i in 0..n {
            d.request(&inputs.item(i).request);
        }
        d.value()
    }

    #[test]
    fn same_seed_same_digest() {
        for w in [Workload::WpRead, Workload::WpWrite, Workload::LabUnderAttack] {
            let a = stream_digest(&inputs(w, 7), 500);
            assert_eq!(a, stream_digest(&inputs(w, 7), 500), "{}", w.name());
            assert_ne!(a, stream_digest(&inputs(w, 8), 500), "{}", w.name());
        }
        let gate = inputs(Workload::GateDynamic, 7);
        assert_eq!(gate.pass_order(3, 100), inputs(Workload::GateDynamic, 7).pass_order(3, 100));
        assert_ne!(gate.pass_order(3, 100), gate.pass_order(4, 100));
    }

    #[test]
    fn attack_share_is_a_fifth_in_bursts() {
        let inputs = inputs(Workload::LabUnderAttack, 3);
        let attacks: Vec<bool> = (0..1000).map(|i| inputs.item(i).expect.is_attack()).collect();
        assert_eq!(attacks.iter().filter(|a| **a).count(), 200);
        let runs = attacks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(runs <= 40, "attacks must come in bursts, saw {runs} transitions");
    }

    #[test]
    fn aliases_keep_payload_shape() {
        assert_eq!(
            with_alias("-1 UNION SELECT user_pass FROM wp_users-- -", "c1"),
            "-1 UNION SELECT user_pass AS c1 FROM wp_users-- -"
        );
        assert_eq!(with_alias("1 OR 1=1  ", "c2"), "1 OR 1=1 AND (SELECT 1 AS c2)=1  ");
    }
}

//! The three workloads' scripts: which read is the i-th, which delta
//! the j-th publish carries. Both are pure functions of `--seed` and
//! the index, so every round replays the same script and the parent's
//! oracle can regenerate any operation.

use std::collections::BTreeSet;

use dash_core::{Fragment, IndexDelta, SearchRequest};

use crate::corpus::{self, Corpus};
use crate::rng::{derive, fnv64, fold, Rng, Zipf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotFit,
    MissLight,
    RwHeavy,
}

/// Requests in the `hot-fit` pool: fewer than the 512 entries of the
/// response cache, so after the prefill every answer is a hit.
pub const POOL: usize = 256;
/// Reads between two publishes on `rw-heavy`.
pub const CYCLE_READS: u64 = 32;
/// Fragments one publish upserts (quantities `1..=4` of one group).
pub const UPSERTS: usize = 4;
/// Publishes after a read-only window, and at the end of every trace.
pub const TAIL_PUBLISHES: u64 = 8;
/// Ranks below this are "hot" (long posting lists, present in nearly
/// every group); `rw-heavy` reads draw from them.
const HOT_RANKS: usize = 64;
/// Ranks from this on are "cold" (short posting lists).
const COLD_FROM: usize = 1_000;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotFit, Workload::MissLight, Workload::RwHeavy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotFit => "hot-fit",
            Workload::MissLight => "miss-light",
            Workload::RwHeavy => "rw-heavy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Slice length of the window. `rw-heavy` completes few reads a
    /// second, and p90 wants ten samples beyond it in every slice.
    pub fn slice_ns(self) -> u64 {
        match self {
            Workload::HotFit | Workload::MissLight => 1_000_000_000,
            Workload::RwHeavy => 2_000_000_000,
        }
    }

    /// Operations of the script a traced run pushes through the layers
    /// (reads; `rw-heavy` adds a publish after every 32), fixed by the
    /// workload and `--seconds` so counts repeat exactly.
    pub fn trace_reads(self, seconds: u64) -> u64 {
        match self {
            Workload::HotFit | Workload::MissLight => 128 * seconds,
            Workload::RwHeavy => CYCLE_READS * (seconds / 2).max(1),
        }
    }
}

/// One `GET /search`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Read {
    /// Vocabulary ranks of the keywords, in request order.
    pub ranks: Vec<usize>,
    pub k: usize,
    pub s: u64,
}

impl Read {
    pub fn request(&self) -> SearchRequest {
        let words: Vec<String> = self.ranks.iter().map(|&r| corpus::word(r)).collect();
        let words: Vec<&str> = words.iter().map(String::as_str).collect();
        SearchRequest::new(&words).k(self.k).min_size(self.s)
    }

    /// The request as the bytes a client sends.
    pub fn http(&self) -> Vec<u8> {
        let mut target = String::from("GET /search?");
        for &rank in &self.ranks {
            target.push_str(&format!("kw={}&", corpus::word(rank)));
        }
        target.push_str(&format!(
            "k={}&s={} HTTP/1.1\r\nHost: dash\r\n\r\n",
            self.k, self.s
        ));
        target.into_bytes()
    }
}

/// One `POST /update`: quantities `1..=4` of `group` upserted with the
/// first keyword's term frequency raised by the publish's number.
#[derive(Debug, Clone, PartialEq)]
pub struct Publish {
    pub group: usize,
    pub adds: Vec<Fragment>,
}

impl Publish {
    pub fn delta(&self) -> IndexDelta {
        IndexDelta::new(
            self.adds.iter().map(|f| f.id.clone()).collect(),
            self.adds.clone(),
        )
    }

    /// The rank of the rarest keyword among the upserted fragments.
    /// A read for it with `s` 1 and a large `k` lists every fragment
    /// that holds it, each with its size — and the publish changed the
    /// size of the upserted one.
    pub fn rarest_rank(&self) -> usize {
        self.adds
            .iter()
            .flat_map(|f| f.keyword_occurrences.keys())
            .max()
            .and_then(|word| word[2..].parse().ok())
            .expect("fragments hold keywords named kw<rank>")
    }
}

/// A `POST /update` carrying `payload`, as the bytes a client sends.
pub fn post_update(payload: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "POST /update HTTP/1.1\r\nHost: dash\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    request.extend(payload);
    request
}

/// The ack body of the `epoch`-th publish since the server started.
pub fn expected_ack(epoch: u64) -> String {
    format!("{{\"removed\":{UPSERTS},\"added\":{UPSERTS},\"epoch\":{epoch}}}")
}

/// An ordered pair `(a, b)`, `a != b`, of ranks `from..from + span`,
/// the `i`-th of a walk that visits every pair once before repeating.
#[derive(Debug, Clone)]
struct PairWalk {
    from: usize,
    span: u64,
    offset: u64,
    stride: u64,
}

impl PairWalk {
    fn new(seed: u64, from: usize, span: usize) -> PairWalk {
        let span = span as u64;
        let pairs = span * (span - 1);
        let mut rng = Rng::new(seed);
        let mut stride = pairs / 4 + rng.below(pairs / 2);
        while gcd(stride, pairs) != 1 {
            stride += 1;
        }
        PairWalk {
            from,
            span,
            offset: rng.below(pairs),
            stride,
        }
    }

    fn pair(&self, i: u64) -> [usize; 2] {
        let pairs = self.span * (self.span - 1);
        let at = ((self.offset as u128 + i as u128 * self.stride as u128) % pairs as u128) as u64;
        let a = at / (self.span - 1);
        let b = at % (self.span - 1);
        let b = b + u64::from(b >= a);
        [self.from + a as usize, self.from + b as usize]
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Where a script's reads come from.
#[derive(Debug, Clone)]
enum Reads {
    /// `hot-fit`: Zipf 1.0 draws from a pool of distinct requests.
    Pool {
        pool: Vec<Read>,
        draw: Zipf,
        seed: u64,
    },
    /// The miss workloads: a walk over distinct keyword pairs.
    Walk { walk: PairWalk, s: u64 },
}

#[derive(Debug, Clone)]
pub struct Script {
    pub workload: Workload,
    reads: Reads,
    delta_seed: u64,
}

impl Script {
    pub fn new(workload: Workload, seed: u64) -> Script {
        let walk_seed = derive(seed, "reads");
        let reads = match workload {
            Workload::HotFit => Reads::Pool {
                pool: pool(derive(seed, "pool")),
                draw: Zipf::new(POOL, 1.0),
                seed: derive(seed, "draws"),
            },
            Workload::MissLight => Reads::Walk {
                walk: PairWalk::new(walk_seed, COLD_FROM, corpus::VOCAB - COLD_FROM),
                s: 20,
            },
            Workload::RwHeavy => Reads::Walk {
                walk: PairWalk::new(walk_seed, 0, HOT_RANKS),
                s: 100,
            },
        };
        Script {
            workload,
            reads,
            delta_seed: derive(seed, "deltas"),
        }
    }

    /// `hot-fit`: the distinct requests the window draws from (empty
    /// on the other workloads).
    pub fn pool(&self) -> &[Read] {
        match &self.reads {
            Reads::Pool { pool, .. } => pool,
            Reads::Walk { .. } => &[],
        }
    }

    /// `hot-fit`: the pool entry the `i`-th read asks for.
    pub fn pool_index(&self, i: u64) -> usize {
        match &self.reads {
            Reads::Pool { draw, seed, .. } => {
                draw.sample(&mut Rng::new(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            }
            Reads::Walk { .. } => panic!("only hot-fit draws from a pool"),
        }
    }

    /// The `i`-th read of the script.
    pub fn read(&self, i: u64) -> Read {
        match &self.reads {
            Reads::Pool { pool, .. } => pool[self.pool_index(i)].clone(),
            Reads::Walk { walk, s } => Read {
                ranks: walk.pair(i).to_vec(),
                k: 10,
                s: *s,
            },
        }
    }

    /// The `j`-th publish of the script.
    pub fn publish(&self, j: u64, corpus: &Corpus) -> Publish {
        let mut rng = Rng::new(self.delta_seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let group = rng.below(corpus::GROUPS as u64) as usize;
        let adds = (1..=UPSERTS)
            .map(|quantity| {
                let base = corpus.fragment(group, quantity);
                let mut occurrences = base.keyword_occurrences;
                *occurrences
                    .values_mut()
                    .next()
                    .expect("fragments hold at least one keyword") += j + 1;
                Fragment::new(base.id, occurrences, base.record_count)
            })
            .collect();
        Publish { group, adds }
    }

    /// Reads whose answers are compared with a rebuilt oracle after
    /// `published` publishes: eight hot pairs, eight cold pairs, and
    /// for each of the last eight publishes every fragment holding the
    /// rarest keyword it touched.
    pub fn check_set(&self, published: u64, corpus: &Corpus) -> Vec<Read> {
        let hot = PairWalk::new(self.delta_seed, 0, HOT_RANKS);
        let cold = PairWalk::new(self.delta_seed, COLD_FROM, corpus::VOCAB - COLD_FROM);
        let mut reads: Vec<Read> = (0..8)
            .map(|i| Read {
                ranks: hot.pair(i).to_vec(),
                k: 10,
                s: 100,
            })
            .chain((0..8).map(|i| Read {
                ranks: cold.pair(i).to_vec(),
                k: 10,
                s: 20,
            }))
            .collect();
        for j in published.saturating_sub(8)..published {
            reads.push(Read {
                ranks: vec![self.publish(j, corpus).rarest_rank()],
                k: 1_000,
                s: 1,
            });
        }
        reads
    }

    /// 64-bit fingerprint of the script's first 4096 reads and first
    /// 64 publishes.
    pub fn fingerprint(&self, corpus: &Corpus) -> u64 {
        let mut hash = fnv64(self.workload.name().as_bytes());
        for i in 0..4096 {
            let read = self.read(i);
            for rank in read.ranks {
                hash = fold(hash, rank as u64);
            }
            hash = fold(fold(hash, read.k as u64), read.s);
        }
        for j in 0..64 {
            hash = fold(hash, corpus::fingerprint(&self.publish(j, corpus).adds));
        }
        hash
    }
}

/// `POOL` distinct requests: one or two cold keywords, `k` 10, `s` one
/// of 1, 20, 100.
fn pool(seed: u64) -> Vec<Read> {
    let mut rng = Rng::new(seed);
    let cold = (corpus::VOCAB - COLD_FROM) as u64;
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let words = 1 + rng.below(2) as usize;
        let read = Read {
            ranks: (0..words)
                .map(|_| COLD_FROM + rng.below(cold) as usize)
                .collect(),
            k: 10,
            s: [1, 20, 100][rng.below(3) as usize],
        };
        if seen.insert(read.clone()) {
            pool.push(read);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_walks_visit_every_ordered_pair_once() {
        let walk = PairWalk::new(9, 10, 8);
        let pairs: BTreeSet<[usize; 2]> = (0..56).map(|i| walk.pair(i)).collect();
        assert_eq!(pairs.len(), 56);
        assert!(pairs
            .iter()
            .all(|[a, b]| a != b && (10..18).contains(a) && (10..18).contains(b)));
        assert_eq!(walk.pair(56), walk.pair(0));
    }

    #[test]
    fn reads_follow_each_workloads_shape() {
        let hot = Script::new(Workload::HotFit, 1);
        assert_eq!(hot.pool().len(), POOL);
        assert_eq!(hot.pool().iter().collect::<BTreeSet<_>>().len(), POOL);
        assert!(hot.pool().iter().all(|r| r.ranks.iter().all(|&k| k >= 1000)
            && (1..=2).contains(&r.ranks.len())
            && r.k == 10
            && [1, 20, 100].contains(&r.s)));
        let drawn: BTreeSet<usize> = (0..20_000).map(|i| hot.pool_index(i)).collect();
        assert_eq!(drawn.len(), POOL, "a long window touches the whole pool");

        let light = Script::new(Workload::MissLight, 1);
        let reads: BTreeSet<Read> = (0..50_000).map(|i| light.read(i)).collect();
        assert_eq!(reads.len(), 50_000, "every miss-light read is distinct");
        assert!(reads.iter().all(|r| r.ranks.iter().all(|&k| k >= 1000)));

        let heavy = Script::new(Workload::RwHeavy, 1);
        let reads: BTreeSet<Read> = (0..4032).map(|i| heavy.read(i)).collect();
        assert_eq!(reads.len(), 4032);
        assert!(reads.iter().all(|r| r.ranks.iter().all(|&k| k < 64)));
    }

    #[test]
    fn requests_render_as_the_servers_own_client_would() {
        let read = Read {
            ranks: vec![1234, 7],
            k: 10,
            s: 20,
        };
        assert_eq!(
            read.http(),
            b"GET /search?kw=kw001234&kw=kw000007&k=10&s=20 HTTP/1.1\r\nHost: dash\r\n\r\n"
        );
        let request = read.request();
        assert_eq!(request.keywords, vec!["kw001234", "kw000007"]);
        assert_eq!((request.k, request.min_size), (10, 20));
    }

    #[test]
    fn publishes_upsert_four_fragments_with_a_growing_bump() {
        let corpus = Corpus::new(1);
        let script = Script::new(Workload::RwHeavy, 1);
        let first = script.publish(0, &corpus);
        assert_eq!(first, script.publish(0, &corpus));
        assert_eq!(first.adds.len(), UPSERTS);
        let base = corpus.fragment(first.group, 1);
        assert_eq!(first.adds[0].id, base.id);
        assert_eq!(first.adds[0].total_keywords, base.total_keywords + 1);
        let tenth = script.publish(9, &corpus);
        let base = corpus.fragment(tenth.group, 3);
        assert_eq!(tenth.adds[2].total_keywords, base.total_keywords + 10);
        let delta = tenth.delta();
        assert_eq!(delta.removes.len(), UPSERTS);
        assert_eq!(delta.adds, tenth.adds);
        assert_eq!(script.check_set(3, &corpus).len(), 16 + 3);
        assert_eq!(script.check_set(20, &corpus).len(), 16 + 8);
    }

    #[test]
    fn seed_one_is_pinned() {
        let corpus = Corpus::new(1);
        for (workload, pinned) in Workload::ALL.into_iter().zip([
            0x2383_e90b_28b5_238a_u64,
            0x4487_97f7_cc87_0254,
            0x7eb0_80a4_399e_2646,
        ]) {
            assert_eq!(
                Script::new(workload, 1).fingerprint(&corpus),
                pinned,
                "{}",
                workload.name()
            );
        }
    }
}

//! Everything the program is sent, as a pure function of the seed: the
//! query pool and its Zipf popularity, the per-connection request
//! streams, the delta documents and the write schedule.

use crate::layers::VOCABULARY;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream derived from `seed` and a stream label.
    pub fn derived(seed: u64, label: u64) -> Rng {
        let mut r = Rng::new(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) popularity over `n` ranks; rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 1.1;
/// Distinct queries in a pool.
pub const POOL: usize = 32;

/// `POOL` distinct two-surname author queries, in popularity-rank order
/// (index 0 is the hottest).
///
/// Candidates are the surname pairs whose product of paper counts lies
/// in the middle 40% of all pairs. An answer's size tracks that product
/// closely, and an all-results query's cost grows with the square of its
/// answer (every page re-runs the query), so without the band a seed
/// that happens to make one huge answer hot would set the whole run's
/// median.
pub fn query_pool(seed: u64, surname_papers: &[usize]) -> Vec<[String; 2]> {
    let n = surname_papers.len();
    let product = |(a, b): (usize, usize)| surname_papers[a] * surname_papers[b];
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect();
    let mut products: Vec<usize> = pairs.iter().map(|&p| product(p)).collect();
    products.sort_unstable();
    let (lo, hi) = (
        products[products.len() * 3 / 10],
        products[products.len() * 7 / 10],
    );
    let mut band: Vec<(usize, usize)> = pairs
        .into_iter()
        .filter(|&p| (lo..=hi).contains(&product(p)))
        .collect();
    // A seeded partial Fisher-Yates shuffle picks the pool and its ranks.
    let mut rng = Rng::derived(seed, 1);
    (0..POOL.min(band.len()))
        .map(|i| {
            let j = i + rng.below(band.len() - i);
            band.swap(i, j);
            let (a, b) = band[i];
            [format!("surname{a}"), format!("surname{b}")]
        })
        .collect()
}

/// The request stream of one connection: pool indices drawn by
/// popularity.
pub struct QueryStream {
    rng: Rng,
    zipf: Zipf,
}

impl QueryStream {
    pub fn new(seed: u64, connection: usize) -> QueryStream {
        QueryStream {
            rng: Rng::derived(seed, 100 + connection as u64),
            zipf: Zipf::new(POOL, ZIPF_S),
        }
    }

    pub fn next_query(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// Papers per delta document. Fixed, because the write path's cost
/// depends on the document's shape: a seed varies only the content.
const DELTA_PAPERS: usize = 2;

/// One delta document: a new conference issue whose papers are written
/// by one fresh author. It shares no node with the base data, so no base
/// query's answer changes while it is live.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    pub xml: String,
    /// The fresh author's surname: a keyword only this document holds.
    pub author: String,
    /// A title word of its first paper (drawn from the base vocabulary).
    pub title_word: String,
}

pub fn delta_doc(seed: u64, slot: usize) -> DeltaDoc {
    let mut rng = Rng::derived(seed, 1_000_000 + slot as u64);
    let author = format!("deltauthor{slot}");
    let mut papers = String::new();
    let mut first_word = String::new();
    for p in 0..DELTA_PAPERS {
        let words: Vec<String> = (0..6)
            .map(|_| format!("w{}", rng.below(VOCABULARY)))
            .collect();
        if p == 0 {
            first_word = words[0].clone();
        }
        papers.push_str(&format!(
            "<paper idrefs=\"da{slot}\"><title>{}</title><pages>{}-{}</pages>\
             <url>db/conf/delta/d{slot}p{p}.html</url></paper>",
            words.join(" "),
            p * 12 + 1,
            p * 12 + 12
        ));
    }
    let xml = format!(
        "<conference><cname>DELTA{slot}</cname><year><yval>2004</yval>{papers}</year></conference>\
         <author id=\"da{slot}\"><aname>Ada {author}</aname></author>"
    );
    DeltaDoc {
        xml,
        author,
        title_word: first_word,
    }
}

/// One scheduled mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert delta document `slot`.
    Insert { slot: usize },
    /// Delete the live document at index `pick % live` of the writer's
    /// live list.
    Delete { pick: u64 },
}

/// `n` mutations, inserts and deletes 2:1 (insert, insert, delete, ...),
/// so a live document always exists when a delete is due.
pub fn write_plan(seed: u64, n: usize) -> Vec<WriteOp> {
    let mut rng = Rng::derived(seed, 2);
    let mut slot = 0;
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                WriteOp::Delete {
                    pick: rng.next_u64(),
                }
            } else {
                slot += 1;
                WriteOp::Insert { slot: slot - 1 }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn papers() -> Vec<usize> {
        (0..125).map(|i| 10 + (i * 7) % 13).collect()
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(query_pool(7, &papers()), query_pool(7, &papers()));
        assert_ne!(query_pool(7, &papers()), query_pool(8, &papers()));
        assert_eq!(delta_doc(7, 3).xml, delta_doc(7, 3).xml);
        assert_eq!(write_plan(7, 30), write_plan(7, 30));
        let a: Vec<usize> = {
            let mut s = QueryStream::new(7, 0);
            (0..50).map(|_| s.next_query()).collect()
        };
        let b: Vec<usize> = {
            let mut s = QueryStream::new(7, 0);
            (0..50).map(|_| s.next_query()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn pool_pairs_are_distinct_and_in_the_band() {
        let papers = papers();
        let pool = query_pool(1, &papers);
        assert_eq!(pool.len(), POOL);
        let count = |kw: &str| papers[kw["surname".len()..].parse::<usize>().unwrap()];
        let products: Vec<usize> = pool.iter().map(|p| count(&p[0]) * count(&p[1])).collect();
        let (min, max) = (
            products.iter().min().unwrap(),
            products.iter().max().unwrap(),
        );
        // The middle 40% of this synthetic distribution spans 200..=294.
        assert!(*min >= 200 && *max <= 294, "{min}..{max}");
        for (i, p) in pool.iter().enumerate() {
            assert_ne!(p[0], p[1]);
            assert!(!pool[..i].contains(p));
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(POOL, ZIPF_S);
        let mut rng = Rng::new(3);
        let mut hits = [0usize; POOL];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[POOL - 1]);
    }

    #[test]
    fn write_plan_is_two_inserts_per_delete() {
        let plan = write_plan(5, 300);
        let inserts = plan
            .iter()
            .filter(|op| matches!(op, WriteOp::Insert { .. }))
            .count();
        assert_eq!(inserts, 200);
        assert!(matches!(plan[0], WriteOp::Insert { slot: 0 }));
    }
}

//! Seeded generators: the only source of randomness in the harness, so
//! one `--seed` always yields the same inputs and request order.

/// SplitMix64 — small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding a draw in
    /// one place never shifts the values drawn elsewhere.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
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

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n`: rank k is drawn with weight 1/(k+1)^s.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
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
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One entry of a serving client's request list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// A template by popularity rank: repeats become cache hits.
    Template(usize),
    /// A window no earlier request used, numbered per run: a miss that
    /// renders, stores, and presses on the cache budget.
    Fresh(usize),
}

/// The request list of serving client `client`: Zipf(1.0) over
/// `templates` ranks with `fresh_share` of the slots replaced by
/// never-seen windows. Fresh numbers are unique across clients.
pub fn request_list(
    seed: u64,
    client: usize,
    clients: usize,
    len: usize,
    templates: usize,
    fresh_share: f64,
) -> Vec<Pick> {
    let mut rng = Rng::fork(seed, 0x5E57 + client as u64);
    let zipf = Zipf::new(templates, 1.0);
    let mut fresh = 0;
    (0..len)
        .map(|_| {
            if rng.unit() < fresh_share {
                fresh += 1;
                Pick::Fresh((fresh - 1) * clients + client)
            } else {
                Pick::Template(zipf.sample(&mut rng))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_different_seed_different_list() {
        let a = request_list(7, 0, 2, 400, 64, 0.1);
        assert_eq!(a, request_list(7, 0, 2, 400, 64, 0.1));
        assert_ne!(a, request_list(8, 0, 2, 400, 64, 0.1));
        assert_ne!(a, request_list(7, 1, 2, 400, 64, 0.1));
    }

    #[test]
    fn fresh_windows_are_unique_across_clients_and_near_their_share() {
        let lists: Vec<_> = (0..2)
            .map(|c| request_list(3, c, 2, 2000, 64, 0.1))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut fresh = 0;
        for p in lists.iter().flatten() {
            if let Pick::Fresh(k) = p {
                assert!(seen.insert(*k), "fresh window {k} repeated");
                fresh += 1;
            }
        }
        let share = fresh as f64 / 4000.0;
        assert!((0.07..0.13).contains(&share), "fresh share {share}");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64, 1.0);
        let mut rng = Rng::fork(1, 0);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7] && counts[7] > counts[63]);
        // Rank 0 carries 1/H(64) ≈ 21 % of the mass.
        let top = f64::from(counts[0]) / 20_000.0;
        assert!((0.18..0.24).contains(&top), "top share {top}");
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut rng = Rng::fork(9, 0);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}

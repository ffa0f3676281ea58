//! Seeded input generation. The harness owns its generator so that the
//! inputs of a workload are a function of `--seed` alone and do not move
//! when the program under test (or its vendored `rand`) changes: the
//! program only ever receives the generated prompts and requests.

use lm_models::ModelConfig;
use lm_serve::Request;

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, full-period, and good
/// enough to drive arrival gaps and token ids.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

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

    /// Uniform integer in `[lo, hi)`; `hi > lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per
    /// second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// `n` inter-arrival gaps with the histogram of a Poisson process at
    /// `rate` per second — the `n` mid-quantiles of the exponential
    /// distribution, scaled to a mean of exactly `1 / rate` — in seeded
    /// order. Like [`Cycle`] for lengths: a seed decides which arrivals
    /// crowd together, not how many do or how long the schedule runs.
    fn exp_gaps(&mut self, n: usize, rate: f64) -> Vec<f64> {
        let quantile = |k: u64| -(1.0 - (k as f64 + 0.5) / n as f64).ln();
        let sum: f64 = (0..n as u64).map(quantile).sum();
        let scale = n as f64 / (sum * rate);
        let order = self.shuffled(0, n as u64);
        order.into_iter().map(|k| quantile(k) * scale).collect()
    }

    fn tokens(&mut self, n: usize, vocab: u64) -> Vec<u32> {
        (0..n).map(|_| self.range(1, vocab) as u32).collect()
    }

    /// A uniformly shuffled copy of `lo..hi` (Fisher-Yates).
    fn shuffled(&mut self, lo: u64, hi: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (lo..hi).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i as u64 + 1) as usize);
        }
        v
    }
}

/// Lengths drawn without replacement: every value of `lo..hi` once, in
/// seeded order, then again. Over whole cycles the total is the same for
/// every seed, so seeds vary the order and content of the work but not
/// its amount.
struct Cycle {
    range: [u64; 2],
    left: Vec<u64>,
}

impl Cycle {
    fn new(range: [u64; 2]) -> Self {
        Cycle {
            range,
            left: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = rng.shuffled(self.range[0], self.range[1]);
        }
        self.left
            .pop()
            .expect("a length range holds at least one value") as usize
    }
}

/// `n` prompts of `len` tokens each for an offline batch.
pub fn prompts(seed: u64, n: usize, len: usize, vocab: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed ^ 0x0FF1_1E5E_ED00_0001);
    (0..n).map(|_| rng.tokens(len, vocab)).collect()
}

/// A wall-clock due time, in seconds from the start of a real-time run,
/// on the scheduler's virtual clock. `time_scale` is virtual
/// microseconds per wall microsecond ([`lm_serve::AsyncConfig`]).
pub fn wall_s_to_virtual_us(wall_s: f64, time_scale: f64) -> u64 {
    (wall_s * 1e6 * time_scale).round() as u64
}

/// The inverse: a virtual-clock reading as wall seconds from run start.
pub fn virtual_us_to_wall_s(virtual_us: u64, time_scale: f64) -> f64 {
    virtual_us as f64 / time_scale / 1e6
}

/// Shape of the chat-style serve traffic.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ChatShape {
    pub prefix_len: usize,
    /// Suffix length range `[lo, hi)`.
    pub suffix: [u64; 2],
    /// Generated length range `[lo, hi)`.
    pub gen: [u64; 2],
}

/// Chat-shaped requests: a `prefix_len`-token head, a short unique
/// suffix, a ragged generation length (both cycled through their ranges
/// without replacement). With `shared` every request opens
/// with the same head; without, each has a unique head of the same
/// length. The two variants draw from the generator identically, so
/// arrivals, lengths, suffixes and request seeds are pairwise equal and
/// any difference between them is attributable to prefix sharing.
///
/// `due_s[i]` is request `i`'s wall-clock due time; `rate` is arrivals
/// per wall second, with the gaps of [`Rng::exp_gaps`] (`None` puts
/// every arrival at t = 0, a burst).
pub fn chat_traffic(
    seed: u64,
    n: usize,
    rate: Option<f64>,
    shape: ChatShape,
    shared: bool,
    vocab: u64,
    time_scale: f64,
) -> (Vec<Request>, Vec<f64>) {
    let mut rng = Rng::new(seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    let common = rng.tokens(shape.prefix_len, vocab);
    let (mut suffix_lens, mut gen_lens) = (Cycle::new(shape.suffix), Cycle::new(shape.gen));
    // Drawn even for a burst so open and burst phases of one seed see the
    // same request bodies.
    let gaps = rng.exp_gaps(n, rate.unwrap_or(1.0));
    let mut t = 0.0f64;
    let mut requests = Vec::with_capacity(n);
    let mut due_s = Vec::with_capacity(n);
    for id in 0..n as u64 {
        if rate.is_some() {
            t += gaps[id as usize];
        }
        let suffix_len = suffix_lens.next(&mut rng);
        let gen_len = gen_lens.next(&mut rng);
        let suffix = rng.tokens(suffix_len, vocab);
        let unique = rng.tokens(shape.prefix_len, vocab);
        let head = if shared { &common } else { &unique };
        let prompt: Vec<u32> = head.iter().chain(&suffix).copied().collect();
        requests.push(
            Request::new(id, prompt, gen_len)
                .with_arrival_us(wall_s_to_virtual_us(t, time_scale))
                .with_seed(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        due_s.push(t);
    }
    (requests, due_s)
}

/// Open-loop traffic for the virtual-clock scheduler: Poisson arrivals at
/// `rps` per *modelled* second, ragged prompt and generation lengths
/// sized to `cfg`'s context window, three priority levels, and one
/// request in eight carrying an admission deadline of 64 mean
/// inter-arrival periods.
pub fn sim_traffic(seed: u64, rps: f64, n: usize, cfg: &ModelConfig) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x51D0_51D0_51D0_51D0);
    let max_prompt = (cfg.max_seq_len / 4).max(5);
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|id| {
            t += rng.exp_gap(rps);
            let arrival_us = wall_s_to_virtual_us(t, 1.0);
            let prompt_len = rng.range(4, max_prompt);
            let gen_cap = (cfg.max_seq_len - prompt_len).clamp(5, 64);
            let gen_len = rng.range(4, gen_cap) as usize;
            let prompt = rng.tokens(prompt_len as usize, cfg.vocab_size);
            let mut req = Request::new(id, prompt, gen_len)
                .with_priority(rng.range(0, 3) as u8)
                .with_arrival_us(arrival_us)
                .with_seed(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if rng.range(0, 8) == 0 {
                req = req.with_deadline_us(arrival_us + wall_s_to_virtual_us(64.0 / rps, 1.0));
            }
            req
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ChatShape = ChatShape {
        prefix_len: 32,
        suffix: [4, 16],
        gen: [8, 32],
    };

    /// A byte rendering of everything the program receives.
    fn bytes(reqs: &[Request]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in reqs {
            out.extend(r.id.to_le_bytes());
            out.extend(r.arrival_us.to_le_bytes());
            out.extend(r.seed.to_le_bytes());
            out.extend((r.gen_len as u64).to_le_bytes());
            out.push(r.priority);
            out.extend(r.deadline_us.unwrap_or(u64::MAX).to_le_bytes());
            for t in &r.prompt {
                out.extend(t.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let cfg = lm_models::presets::opt_30b();
        let chat = |s| bytes(&chat_traffic(s, 24, Some(8.0), SHAPE, true, 512, 1000.0).0);
        assert_eq!(chat(7), chat(7));
        assert_ne!(chat(7), chat(8));
        let sim = |s| bytes(&sim_traffic(s, 0.04, 64, &cfg));
        assert_eq!(sim(7), sim(7));
        assert_ne!(sim(7), sim(8));
        assert_eq!(prompts(7, 4, 16, 512), prompts(7, 4, 16, 512));
        assert_ne!(prompts(7, 4, 16, 512), prompts(8, 4, 16, 512));
    }

    #[test]
    fn shared_and_control_pair_up() {
        let (shared, due_a) = chat_traffic(7, 16, Some(8.0), SHAPE, true, 512, 1000.0);
        let (control, due_b) = chat_traffic(7, 16, Some(8.0), SHAPE, false, 512, 1000.0);
        assert_eq!(due_a, due_b);
        let p = SHAPE.prefix_len;
        for (s, c) in shared.iter().zip(&control) {
            assert_eq!(s.prompt[..p], shared[0].prompt[..p], "one common head");
            assert_eq!(s.prompt[p..], c.prompt[p..], "suffixes pair up");
            assert_eq!(
                (s.arrival_us, s.gen_len, s.seed),
                (c.arrival_us, c.gen_len, c.seed)
            );
        }
        let heads: std::collections::BTreeSet<_> =
            control.iter().map(|r| r.prompt[..p].to_vec()).collect();
        assert_eq!(heads.len(), control.len(), "control heads are unique");
        // One whole cycle of generation lengths holds each length once.
        let (cycle, _) = chat_traffic(9, 24, None, SHAPE, true, 512, 1000.0);
        let mut lens: Vec<usize> = cycle.iter().map(|r| r.gen_len).collect();
        lens.sort_unstable();
        assert_eq!(lens, (8..32).collect::<Vec<_>>());
        assert_ne!(
            cycle[0].gen_len + cycle[1].gen_len,
            8 + 9,
            "in seeded order"
        );
        // A burst keeps the bodies and drops the schedule.
        let (burst, due) = chat_traffic(7, 16, None, SHAPE, true, 512, 1000.0);
        assert!(due.iter().all(|&d| d == 0.0) && burst.iter().all(|r| r.arrival_us == 0));
        assert_eq!(burst[3].prompt, shared[3].prompt);
    }

    #[test]
    fn due_times_scale_onto_the_virtual_clock() {
        // 1000 virtual µs per wall µs: 2.5 ms of wall is 2.5 virtual s.
        assert_eq!(wall_s_to_virtual_us(0.0025, 1000.0), 2_500_000);
        assert_eq!(wall_s_to_virtual_us(1.0, 1.0), 1_000_000);
        assert_eq!(virtual_us_to_wall_s(2_500_000, 1000.0), 0.0025);
        let (reqs, due) = chat_traffic(3, 32, Some(8.0), SHAPE, false, 512, 1000.0);
        for (r, d) in reqs.iter().zip(&due) {
            let back = virtual_us_to_wall_s(r.arrival_us, 1000.0);
            assert!((back - d).abs() < 1e-9, "{back} vs {d}");
        }
        assert!(
            due.windows(2).all(|w| w[0] <= w[1]),
            "arrivals are monotone"
        );
        // 32 arrivals at 8/s span four seconds, whatever the seed; only
        // the order of the gaps is seeded.
        assert!((due[31] - 4.0).abs() < 1e-9, "{}", due[31]);
        let (_, other) = chat_traffic(4, 32, Some(8.0), SHAPE, false, 512, 1000.0);
        assert_ne!(due, other);
        let gaps = |d: &[f64]| {
            let mut g: Vec<f64> = d.windows(2).map(|w| w[1] - w[0]).collect();
            g.push(d[0]);
            g.sort_by(f64::total_cmp);
            g
        };
        for (a, b) in gaps(&due).iter().zip(gaps(&other)) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Exponential: the median gap is ln 2 of the mean.
        let median = gaps(&due)[16];
        assert!((median * 8.0 - 2f64.ln()).abs() < 0.1, "{median}");
    }

    #[test]
    fn sim_traffic_fits_the_context_window() {
        let cfg = lm_models::presets::opt_30b();
        for r in sim_traffic(11, 0.04, 256, &cfg) {
            assert!(r.prompt.len() >= 4 && r.gen_len >= 4);
            assert!((r.prompt.len() + r.gen_len) as u64 <= cfg.max_seq_len);
            assert!(r
                .prompt
                .iter()
                .all(|&t| (1..cfg.vocab_size as u32).contains(&t)));
        }
    }
}

//! Token samplers for the decode loop.

use lm_tensor::ops::elementwise::exp_slice;
use lm_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampler {
    /// Always take the argmax — deterministic, used by the offloading
    /// equivalence tests.
    Greedy,
    /// Sample among the `k` highest logits with softmax weights, seeded.
    TopK { k: usize, seed: u64 },
    /// Nucleus sampling: the smallest set of tokens whose softmax mass
    /// reaches `p`, seeded.
    TopP { p: f32, seed: u64 },
}

impl Sampler {
    /// Sample one token per row of a `[batch, vocab]` logits tensor, row
    /// `r` the `steps[r]`-th token of its generation. A seeded sampler
    /// draws one uniform number per row, keyed by `(seed, steps[r])`: a
    /// row's token depends on its own logits, the seed and its step — not
    /// on which rows share the call, where it sits among them or at which
    /// steps they are.
    pub fn sample(&self, logits: &Tensor, steps: &[u64]) -> Vec<u32> {
        assert_eq!(logits.rank(), 2, "logits must be [batch, vocab]");
        assert_eq!(logits.dim(0), steps.len(), "one step per row");
        let rows = (0..logits.dim(0)).map(|r| logits.row(r)).zip(steps);
        match *self {
            Sampler::Greedy => rows.map(|(row, _)| argmax(row)).collect(),
            Sampler::TopK { k, seed } => {
                rows.map(|(row, &step)| top_k(row, k, draw(seed, step))).collect()
            }
            Sampler::TopP { p, seed } => {
                rows.map(|(row, &step)| top_p(row, p, draw(seed, step))).collect()
            }
        }
    }
}

/// The uniform number in `[0, 1)` a seeded sampler uses at `step`.
fn draw(seed: u64, step: u64) -> f32 {
    SmallRng::seed_from_u64(seed ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03)).gen()
}

fn argmax(row: &[f32]) -> u32 {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i as u32)
        .expect("non-empty vocab")
}

fn top_k(row: &[f32], k: usize, u: f32) -> u32 {
    assert!(k >= 1, "k must be positive");
    let mut idx: Vec<usize> = (0..row.len()).collect();
    let k = k.min(row.len());
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let top = &idx[..k];
    // Softmax over the top-k logits.
    let max = top.iter().map(|&i| row[i]).fold(f32::NEG_INFINITY, f32::max);
    let mut weights: Vec<f32> = top.iter().map(|&i| row[i] - max).collect();
    exp_slice(&mut weights);
    let total: f32 = weights.iter().sum();
    let mut draw = u * total;
    for (w, &i) in weights.iter().zip(top) {
        draw -= w;
        if draw <= 0.0 {
            return i as u32;
        }
    }
    top[k - 1] as u32
}

fn top_p(row: &[f32], p: f32, u: f32) -> u32 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    // Softmax over the full row, then take tokens by descending mass
    // until the nucleus covers p.
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut weights: Vec<f32> = row.iter().map(|&x| x - max).collect();
    exp_slice(&mut weights);
    let mut probs: Vec<(usize, f32)> = weights.into_iter().enumerate().collect();
    let total: f32 = probs.iter().map(|(_, w)| w).sum();
    probs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut mass = 0.0;
    let mut nucleus = 0;
    for (_, w) in &probs {
        mass += w / total;
        nucleus += 1;
        if mass >= p {
            break;
        }
    }
    let nucleus_total: f32 = probs[..nucleus].iter().map(|(_, w)| w).sum();
    let mut draw = u * nucleus_total;
    for (i, w) in &probs[..nucleus] {
        draw -= w;
        if draw <= 0.0 {
            return *i as u32;
        }
    }
    probs[nucleus - 1].0 as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_takes_argmax_per_row() {
        let logits = Tensor::from_vec([2, 4], vec![0.1, 3.0, -1.0, 0.0, 9.0, 0.0, 0.0, 0.0]);
        assert_eq!(Sampler::Greedy.sample(&logits, &[0, 0]), vec![1, 0]);
    }

    #[test]
    fn top1_equals_greedy() {
        let logits = Tensor::randn([3, 50], 2.0, 42);
        let greedy = Sampler::Greedy.sample(&logits, &[0; 3]);
        let top1 = Sampler::TopK { k: 1, seed: 7 }.sample(&logits, &[0; 3]);
        assert_eq!(greedy, top1);
    }

    #[test]
    fn top_k_stays_within_top_set() {
        let mut logits = vec![0.0f32; 100];
        logits[10] = 5.0;
        logits[20] = 4.5;
        logits[30] = 4.0;
        let t = Tensor::from_vec([1, 100], logits);
        for seed in 0..20 {
            let tok = Sampler::TopK { k: 3, seed }.sample(&t, &[0])[0];
            assert!([10, 20, 30].contains(&tok), "got {tok}");
        }
    }

    #[test]
    fn top_p_zero_equals_greedy() {
        // p = 0 admits only the single most likely token.
        let logits = Tensor::randn([3, 50], 2.0, 11);
        let greedy = Sampler::Greedy.sample(&logits, &[0; 3]);
        let nucleus = Sampler::TopP { p: 0.0, seed: 3 }.sample(&logits, &[0; 3]);
        assert_eq!(greedy, nucleus);
    }

    #[test]
    fn top_p_stays_in_high_mass_set() {
        // One dominant token (mass > 0.9): a 0.5 nucleus must pick it.
        let mut logits = vec![0.0f32; 64];
        logits[17] = 10.0;
        let t = Tensor::from_vec([1, 64], logits);
        for seed in 0..10 {
            assert_eq!(Sampler::TopP { p: 0.5, seed }.sample(&t, &[0])[0], 17);
        }
    }

    #[test]
    fn top_p_is_seed_deterministic() {
        let logits = Tensor::randn([4, 64], 1.0, 5);
        for step in [0, 1, 17] {
            let a = Sampler::TopP { p: 0.9, seed: 99 }.sample(&logits, &[step; 4]);
            let b = Sampler::TopP { p: 0.9, seed: 99 }.sample(&logits, &[step; 4]);
            assert_eq!(a, b, "step {step}");
        }
    }

    #[test]
    fn top_k_is_seed_deterministic() {
        let logits = Tensor::randn([4, 64], 1.0, 5);
        for step in [0, 1, 17] {
            let a = Sampler::TopK { k: 8, seed: 99 }.sample(&logits, &[step; 4]);
            let b = Sampler::TopK { k: 8, seed: 99 }.sample(&logits, &[step; 4]);
            assert_eq!(a, b, "step {step}");
        }
    }

    fn seeded() -> [Sampler; 2] {
        [Sampler::TopK { k: 64, seed: 3 }, Sampler::TopP { p: 1.0, seed: 3 }]
    }

    #[test]
    fn successive_steps_draw_afresh() {
        // Flat logits: the token is the draw alone. One draw reused at
        // every step would give one token 32 times.
        let flat = Tensor::from_vec([1, 64], vec![0.0; 64]);
        for s in seeded() {
            let mut drawn: Vec<u32> = (0..32).map(|step| s.sample(&flat, &[step])[0]).collect();
            drawn.sort_unstable();
            drawn.dedup();
            assert!(drawn.len() > 1, "{s:?} drew only {drawn:?}");
        }
    }

    #[test]
    fn a_row_samples_as_it_would_alone() {
        // Rows at one step, and rows each at a step of its own: every row's
        // token is that row sampled alone at its step.
        let logits = Tensor::randn([5, 64], 1.0, 21);
        for s in seeded() {
            for steps in [[0; 5], [6; 5], [0, 6, 3, 17, 6]] {
                let together = s.sample(&logits, &steps);
                for ((r, &t), step) in together.iter().enumerate().zip(steps) {
                    let alone = Tensor::from_vec([1, 64], logits.row(r).to_vec());
                    assert_eq!(s.sample(&alone, &[step]), [t], "{s:?} row {r} step {step}");
                }
            }
        }
    }
}

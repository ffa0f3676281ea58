//! The disk tier: weights at rest in a checkpoint file, loaded layer by
//! layer into host memory — the `T_init` path of Eq. 1 / Figure 2 step
//! 1.1 ("loading weights from hard drive to CPU memory"), executed with
//! real file I/O.
//!
//! The format is a simple self-describing binary container (magic +
//! version + per-layer records of the projection/MLP/norm tensors), so a
//! checkpoint written once can be memory-mapped... read back on any
//! little-endian platform without external dependencies.

use crate::model::LayerWeights;
use lm_fault::{FaultInjector, RetryError, RetryPolicy};
use lm_models::{Family, ModelConfig};
use lm_tensor::{Linear, Tensor, WeightStore as LinearStore};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"LMOF";
const VERSION: u32 = 1;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn write_f32s(w: &mut impl Write, data: &[f32]) -> std::io::Result<()> {
    for &x in data {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32s(r: &mut impl Read, n: usize) -> Result<Vec<f32>, CheckpointError> {
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn write_u32(w: &mut impl Write, x: u32) -> std::io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_linear(w: &mut impl Write, l: &Linear) -> Result<(), CheckpointError> {
    let full = l.weight.as_full();
    write_u32(w, l.out_features as u32)?;
    write_u32(w, l.in_features as u32)?;
    write_u32(w, l.bias.is_some() as u32)?;
    write_f32s(w, full.data())?;
    if let Some(b) = &l.bias {
        write_f32s(w, b)?;
    }
    Ok(())
}

fn read_linear(r: &mut impl Read) -> Result<Linear, CheckpointError> {
    let out = read_u32(r)? as usize;
    let inf = read_u32(r)? as usize;
    let has_bias = read_u32(r)? != 0;
    if out == 0 || inf == 0 || out.saturating_mul(inf) > (1 << 31) {
        return Err(CheckpointError::Format(format!(
            "implausible linear shape {out}x{inf}"
        )));
    }
    let data = read_f32s(r, out * inf)?;
    let bias = if has_bias {
        Some(read_f32s(r, out)?)
    } else {
        None
    };
    Ok(Linear {
        weight: LinearStore::Full(Tensor::from_vec([out, inf], data)),
        bias,
        in_features: inf,
        out_features: out,
    })
}

fn write_vec(w: &mut impl Write, v: &[f32]) -> Result<(), CheckpointError> {
    write_u32(w, v.len() as u32)?;
    write_f32s(w, v)?;
    Ok(())
}

fn read_vec(r: &mut impl Read) -> Result<Vec<f32>, CheckpointError> {
    let n = read_u32(r)? as usize;
    if n > (1 << 24) {
        return Err(CheckpointError::Format(format!("implausible vector len {n}")));
    }
    read_f32s(r, n)
}

fn family_tag(f: Family) -> u32 {
    match f {
        Family::Opt => 0,
        Family::Llama => 1,
        Family::Custom => 2,
    }
}

fn family_from_tag(t: u32) -> Result<Family, CheckpointError> {
    Ok(match t {
        0 => Family::Opt,
        1 => Family::Llama,
        2 => Family::Custom,
        other => return Err(CheckpointError::Format(format!("unknown family tag {other}"))),
    })
}

/// Write a synthetic checkpoint for `cfg` to `path`, streaming one layer
/// at a time (the whole model never materialises in memory — the property
/// that makes disk-tier checkpoints useful for models larger than RAM).
/// Returns the per-layer byte offsets.
pub fn write_checkpoint(
    cfg: &ModelConfig,
    seed: u64,
    path: &Path,
) -> Result<Vec<u64>, CheckpointError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, family_tag(cfg.family))?;
    write_u32(&mut w, cfg.num_layers)?;
    // Reserve the offset table; filled after the layers are written.
    let table_pos = 16u64;
    for _ in 0..cfg.num_layers {
        w.write_all(&0u64.to_le_bytes())?;
    }
    let mut offsets = Vec::with_capacity(cfg.num_layers as usize);
    for i in 0..cfg.num_layers {
        w.flush()?;
        let pos = w.get_ref().metadata()?.len();
        offsets.push(pos);
        let layer = LayerWeights::synthesize(cfg, i, seed);
        write_layer(&mut w, &layer)?;
    }
    w.flush()?;
    let mut f = w.into_inner().map_err(|e| CheckpointError::Io(e.into_error()))?;
    f.seek(SeekFrom::Start(table_pos))?;
    for &o in &offsets {
        f.write_all(&o.to_le_bytes())?;
    }
    f.sync_all()?;
    Ok(offsets)
}

fn write_layer(w: &mut impl Write, l: &LayerWeights) -> Result<(), CheckpointError> {
    write_vec(w, &l.ln1_gamma)?;
    write_vec(w, &l.ln1_beta)?;
    write_linear(w, &l.q)?;
    write_linear(w, &l.k)?;
    write_linear(w, &l.v)?;
    write_linear(w, &l.o)?;
    write_vec(w, &l.ln2_gamma)?;
    write_vec(w, &l.ln2_beta)?;
    write_u32(w, l.mlp.len() as u32)?;
    for m in &l.mlp {
        write_linear(w, m)?;
    }
    Ok(())
}

/// A checkpoint opened for layer-granular reads.
#[derive(Debug)]
pub struct Checkpoint {
    file: File,
    offsets: Vec<u64>,
    family: Family,
}

impl Checkpoint {
    pub fn open(path: &Path) -> Result<Self, CheckpointError> {
        let mut file = File::open(path)?;
        let mut magic = [0u8; 4];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::Format("bad magic".into()));
        }
        let version = read_u32(&mut file)?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!("unsupported version {version}")));
        }
        let family = family_from_tag(read_u32(&mut file)?)?;
        let num_layers = read_u32(&mut file)? as usize;
        if num_layers == 0 || num_layers > 1 << 16 {
            return Err(CheckpointError::Format(format!("implausible layer count {num_layers}")));
        }
        let mut offsets = Vec::with_capacity(num_layers);
        for _ in 0..num_layers {
            let mut b = [0u8; 8];
            file.read_exact(&mut b)?;
            offsets.push(u64::from_le_bytes(b));
        }
        Ok(Checkpoint {
            file,
            offsets,
            family,
        })
    }

    pub fn num_layers(&self) -> usize {
        self.offsets.len()
    }

    pub fn family(&self) -> Family {
        self.family
    }

    /// Read one layer from disk.
    pub fn load_layer(&mut self, idx: usize) -> Result<LayerWeights, CheckpointError> {
        self.load_layer_attempt(idx, &FaultInjector::disabled(), 0)
    }

    /// [`Checkpoint::load_layer`] with fault injection: the read may fail
    /// with an injected I/O error, or tear — deliver only a prefix of the
    /// layer. Either way the result is a clean error and no partial
    /// `LayerWeights` ever escapes.
    pub fn load_layer_attempt(
        &mut self,
        idx: usize,
        fault: &FaultInjector,
        attempt: u32,
    ) -> Result<LayerWeights, CheckpointError> {
        if fault.disk_error("disk.load_layer", idx as u64, attempt) {
            return Err(CheckpointError::Io(std::io::Error::other(format!(
                "injected disk I/O error reading layer {idx}"
            ))));
        }
        let layer = self.read_layer_records(idx)?;
        if let Some(frac) = fault.torn_read("disk.load_layer", idx as u64, attempt) {
            // The full read happened, but the fault plan says only a
            // prefix reached memory: discard everything.
            return Err(CheckpointError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "torn read: layer {idx} delivered only {:.0}% of its bytes",
                    frac * 100.0
                ),
            )));
        }
        Ok(layer)
    }

    /// [`Checkpoint::load_layer`] under a retry policy: transient faults
    /// are retried with exponential backoff until the policy's attempt or
    /// deadline budget runs out, at which point the *last* error (or a
    /// timeout) is returned — never a panic, never a partial layer.
    pub fn load_layer_with_retry(
        &mut self,
        idx: usize,
        fault: &FaultInjector,
        retry: &RetryPolicy,
    ) -> Result<LayerWeights, CheckpointError> {
        let mut retried = false;
        // Two disjoint captures: `op` borrows `self` mutably, `on_retry`
        // only touches the injector's shared counters.
        let retried_flag = &mut retried;
        let out = retry.run(
            |attempt| self.load_layer_attempt(idx, fault, attempt),
            |_, _| {
                *retried_flag = true;
                fault.note_retry();
            },
        );
        match out {
            Ok(layer) => {
                if retried {
                    fault.note_retry_success();
                }
                Ok(layer)
            }
            Err(RetryError::DeadlineExceeded { elapsed, last }) => {
                Err(CheckpointError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("layer {idx} read deadline exceeded after {elapsed:?}: {last}"),
                )))
            }
            Err(RetryError::AttemptsExhausted { last, .. }) => Err(last),
        }
    }

    fn read_layer_records(&mut self, idx: usize) -> Result<LayerWeights, CheckpointError> {
        let off = *self
            .offsets
            .get(idx)
            .ok_or_else(|| CheckpointError::Format(format!("layer {idx} out of range")))?;
        self.file.seek(SeekFrom::Start(off))?;
        let mut r = BufReader::new(&self.file);
        let ln1_gamma = read_vec(&mut r)?;
        let ln1_beta = read_vec(&mut r)?;
        let q = read_linear(&mut r)?;
        let k = read_linear(&mut r)?;
        let v = read_linear(&mut r)?;
        let o = read_linear(&mut r)?;
        let ln2_gamma = read_vec(&mut r)?;
        let ln2_beta = read_vec(&mut r)?;
        let mlp_count = read_u32(&mut r)? as usize;
        if mlp_count == 0 || mlp_count > 4 {
            return Err(CheckpointError::Format(format!("implausible MLP count {mlp_count}")));
        }
        let mut mlp = Vec::with_capacity(mlp_count);
        for _ in 0..mlp_count {
            mlp.push(read_linear(&mut r)?);
        }
        Ok(LayerWeights {
            ln1_gamma,
            ln1_beta,
            q,
            k,
            v,
            o,
            ln2_gamma,
            ln2_beta,
            mlp,
            family: self.family,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::presets;
    use lm_tensor::KvCache;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lmoffload-test-{name}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn checkpoint_round_trips_layer_for_layer() {
        let cfg = presets::tiny_test();
        let path = tmp("roundtrip");
        write_checkpoint(&cfg, 42, &path).unwrap();
        let mut ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.num_layers(), cfg.num_layers as usize);
        for i in 0..cfg.num_layers {
            let from_disk = ck.load_layer(i as usize).unwrap();
            let reference = LayerWeights::synthesize(&cfg, i, 42);
            // Identical forward behaviour proves identical weights.
            let x = Tensor::randn([2, 64], 1.0, 9);
            let mut c1 = KvCache::new(2, 64, 2);
            let mut c2 = KvCache::new(2, 64, 2);
            let a = from_disk.forward_decode(&x, &mut c1, 4, 0);
            let b = reference.forward_decode(&x, &mut c2, 4, 0);
            assert!(a.allclose(&b, 0.0), "layer {i} differs");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn llama_family_survives_disk() {
        let mut cfg = presets::tiny_test();
        cfg.family = Family::Llama;
        cfg.ffn_hidden = 256;
        let path = tmp("llama");
        write_checkpoint(&cfg, 7, &path).unwrap();
        let mut ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.family(), Family::Llama);
        let l = ck.load_layer(0).unwrap();
        assert_eq!(l.mlp.len(), 3, "SwiGLU has three matrices");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"NOPE____________").unwrap();
        match Checkpoint::open(&path) {
            Err(CheckpointError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_layer_rejected() {
        let cfg = presets::tiny_test();
        let path = tmp("range");
        write_checkpoint(&cfg, 1, &path).unwrap();
        let mut ck = Checkpoint::open(&path).unwrap();
        assert!(ck.load_layer(99).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_size_matches_f32_weights() {
        let cfg = presets::tiny_test();
        let path = tmp("size");
        write_checkpoint(&cfg, 3, &path).unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        let weights = lm_models::footprint::weights_bytes(&cfg, lm_models::DType::F32);
        // Weights dominate; headers/norms/biases add a few percent.
        assert!(bytes as f64 > weights as f64);
        assert!((bytes as f64) < weights as f64 * 1.15, "{bytes} vs {weights}");
        std::fs::remove_file(&path).ok();
    }
}

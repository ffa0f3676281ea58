//! # lm-engine
//!
//! A *real* miniature offloading inference engine on `lm-tensor`: token
//! generation with layer-streamed weights, bounded "device" memory,
//! asynchronous weight prefetching, and optional at-rest quantization —
//! the same code paths the simulator models, executable at small model
//! scales (DESIGN.md §2's real-execution counterpart).
//!
//! The key correctness property (tested): generation under a tight
//! two-layer device budget is token-for-token identical to unconstrained
//! generation, while the bounded [`pools::MemPool`] proves the budget was
//! honoured.
//!
//! ```
//! use lm_engine::{Engine, EngineOptions, GenerateRequest};
//! use lm_models::presets;
//!
//! let engine = Engine::new(&presets::tiny_test(), 7, EngineOptions::default()).unwrap();
//! let out = engine.run(&GenerateRequest::new(vec![vec![1, 2, 3]], 4)).unwrap();
//! assert_eq!(out.tokens[0].len(), 4);
//! // 4 sweeps stream every layer: prefill, then a decode step between samples.
//! assert!(out.weight_bytes_streamed > 0);
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod disk;
pub mod generate;
pub mod kvquant;
pub mod model;
pub mod pools;
pub mod request;
pub mod sampler;
pub mod store;

pub use disk::{write_checkpoint, Checkpoint, CheckpointError};
pub use generate::{Engine, EngineError, EngineOptions, Generation, InitReport};
pub use request::{validate_request, GenerateRequest};
pub use kvquant::{CacheStore, QuantizedKv};
pub use model::{Embedding, LayerWeights};
pub use pools::{Lease, MemPool, PoolExhausted};
pub use sampler::Sampler;
pub use store::{FetchedLayer, OffloadStore, WeightsAtRest};

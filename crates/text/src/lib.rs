//! # lm-text
//!
//! The text front-end of the offloading inference engine: a byte-level
//! BPE tokenizer ([`bpe::Bpe`]) with deterministic training, lossless
//! round-tripping over arbitrary bytes, and JSON (de)serialisation — so
//! the quickstart can go text → tokens → `lm-engine` → tokens → text.
//!
//! ```
//! use lm_text::Bpe;
//! let bpe = Bpe::train(b"the theory of the theatre", 280);
//! let ids = bpe.encode_str("the theatre");
//! assert_eq!(bpe.decode(&ids).unwrap(), b"the theatre");
//! assert!(ids.len() < "the theatre".len()); // merges compress
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod bpe;

pub use bpe::Bpe;

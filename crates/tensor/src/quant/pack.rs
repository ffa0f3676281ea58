//! Bit packing for sub-byte quantized values (the "Pack" phase of
//! Algorithm 2, lines 16-18): 4-bit codes two per byte, low nibble first.
//!
//! Both directions work in place on a run of nibbles that may start or end
//! in the middle of a byte (odd group sizes), and take the per-element
//! conversion as a closure so quantization writes codes straight into the
//! packed bytes and dequantization reads them straight out — no
//! intermediate code vector.

/// Pack `code(v)` (each `< 16`) for every `v` of `vals` into `packed`,
/// starting at nibble index `at`. The nibbles written must still be zero.
#[inline(always)]
pub fn pack_nibbles_into<T: Copy>(
    vals: &[T],
    at: usize,
    packed: &mut [u8],
    code: impl Fn(T) -> u8,
) {
    assert!(
        packed.len() * 2 >= at + vals.len(),
        "not enough packed bytes for {} values",
        vals.len()
    );
    let (head, vals) = vals.split_at(vals.len().min(at % 2));
    if let [v] = head {
        packed[at / 2] |= code(*v) << 4;
    }
    let packed = &mut packed[at.div_ceil(2)..];
    let pairs = vals.chunks_exact(2);
    if let [v] = pairs.remainder() {
        packed[vals.len() / 2] = code(*v);
    }
    for (byte, pair) in packed.iter_mut().zip(pairs) {
        *byte = code(pair[0]) | (code(pair[1]) << 4);
    }
}

/// Fill `out` with `value(nibble)` for the `out.len()` nibbles of `packed`
/// starting at nibble index `at` — the inverse of [`pack_nibbles_into`].
#[inline(always)]
pub fn unpack_nibbles_into<T>(packed: &[u8], at: usize, out: &mut [T], value: impl Fn(u8) -> T) {
    assert!(
        packed.len() * 2 >= at + out.len(),
        "not enough packed bytes for {} values",
        out.len()
    );
    let head_len = out.len().min(at % 2);
    let (head, out) = out.split_at_mut(head_len);
    if let [x] = head {
        *x = value(packed[at / 2] >> 4);
    }
    let packed = &packed[at.div_ceil(2)..];
    let whole = out.len() / 2;
    let mut pairs = out.chunks_exact_mut(2);
    for (pair, &byte) in (&mut pairs).zip(packed) {
        pair[0] = value(byte & 0x0F);
        pair[1] = value(byte >> 4);
    }
    if let [x] = pairs.into_remainder() {
        *x = value(packed[whole] & 0x0F);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pack(vals: &[u8]) -> Vec<u8> {
        let mut packed = vec![0u8; vals.len().div_ceil(2)];
        pack_nibbles_into(vals, 0, &mut packed, |v| v);
        packed
    }

    fn unpack(packed: &[u8], at: usize, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        unpack_nibbles_into(packed, at, &mut out, |c| c);
        out
    }

    #[test]
    fn round_trip_even() {
        let vals = vec![0u8, 15, 7, 8];
        assert_eq!(unpack(&pack(&vals), 0, 4), vals);
    }

    #[test]
    fn round_trip_odd() {
        let vals = vec![3u8, 12, 9];
        let packed = pack(&vals);
        assert_eq!(packed, [0xC3, 0x09]);
        assert_eq!(unpack(&packed, 0, 3), vals);
    }

    #[test]
    fn packed_size_halves() {
        let vals = vec![1u8; 1000];
        assert_eq!(pack(&vals), vec![0x11u8; 500]);
    }

    #[test]
    #[should_panic(expected = "not enough packed bytes")]
    fn underflow_detected() {
        unpack(&[0x21], 0, 3);
    }

    proptest! {
        /// Packing run by run at arbitrary (odd or even) nibble offsets is
        /// the same as packing everything at once, and unpacking any run
        /// returns it.
        #[test]
        fn prop_pack_unpack_bijective(
            vals in proptest::collection::vec(0u8..16, 0..300),
            run in 1usize..9,
        ) {
            let mut packed = vec![0u8; vals.len().div_ceil(2)];
            for (i, chunk) in vals.chunks(run).enumerate() {
                pack_nibbles_into(chunk, i * run, &mut packed, |v| v);
            }
            prop_assert_eq!(&packed, &pack(&vals));
            prop_assert_eq!(unpack(&packed, 0, vals.len()), vals.clone());
            for (i, chunk) in vals.chunks(run).enumerate() {
                prop_assert_eq!(unpack(&packed, i * run, chunk.len()), chunk);
            }
        }
    }
}

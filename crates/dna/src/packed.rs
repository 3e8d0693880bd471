//! 2-bit packed base arrays.
//!
//! The GPU pipeline concatenates all reads of a partition into "one long
//! array of bases" before copying it to the device (§III-B1). [`PackedSeq`]
//! is that array: 2 bits per base (4 bases per byte), plus the read-end
//! offsets that replace the paper's in-band "special bases". Packing
//! quarters the host→device transfer volume and is what the simulated
//! transfer cost model charges for.

use crate::base::Encoding;

/// An append-only 2-bit packed sequence of base *symbols* under a fixed
/// [`Encoding`].
///
/// Symbols — not raw base codes — are stored, so slicing a window out of a
/// `PackedSeq` and comparing packed words is consistent with [`crate::kmer`]
/// packing under the same encoding.
#[derive(Clone, Debug, Default)]
pub struct PackedSeq {
    /// 4 symbols per byte, first symbol in the two most significant bits.
    data: Vec<u8>,
    /// Number of symbols stored.
    len: usize,
    /// Encoding the symbols were produced with.
    encoding: Encoding,
}

impl PackedSeq {
    /// An empty packed sequence under `encoding`.
    pub fn new(encoding: Encoding) -> Self {
        PackedSeq {
            data: Vec::new(),
            len: 0,
            encoding,
        }
    }

    /// Empty, with capacity for `bases` bases.
    pub fn with_capacity(bases: usize, encoding: Encoding) -> Self {
        PackedSeq {
            data: Vec::with_capacity(bases.div_ceil(4)),
            len: 0,
            encoding,
        }
    }

    /// Packs a slice of base codes.
    pub fn from_codes(codes: &[u8], encoding: Encoding) -> Self {
        let mut s = Self::with_capacity(codes.len(), encoding);
        s.extend_codes(codes);
        s
    }

    /// The encoding in force.
    #[inline]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes of packed storage (the transfer-relevant size).
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Appends one base code.
    #[inline]
    pub fn push_code(&mut self, code: u8) {
        let sym = self.encoding.encode(code);
        let slot = self.len % 4;
        if slot == 0 {
            self.data.push(sym << 6);
        } else {
            let last = self.data.last_mut().expect("slot != 0 implies a byte");
            *last |= sym << (6 - 2 * slot);
        }
        self.len += 1;
    }

    /// Appends a slice of base codes.
    pub fn extend_codes(&mut self, codes: &[u8]) {
        for &c in codes {
            self.push_code(c);
        }
    }

    /// The 2-bit symbol at base index `i`.
    #[inline]
    pub fn symbol(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        (self.data[i / 4] >> (6 - 2 * (i % 4))) & 3
    }

    /// The base code at index `i` (decoded through the encoding).
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        self.encoding.decode(self.symbol(i))
    }

    /// Extracts the packed k-mer word covering bases `[start, start + k)`,
    /// MSB-first — identical to [`crate::kmer::Kmer::from_codes`] on the
    /// same window and encoding. `k` must be 1..=32 and the window in range.
    pub fn kmer_word(&self, start: usize, k: usize) -> u64 {
        debug_assert!((1..=32).contains(&k) && start + k <= self.len);
        let mut w = 0u64;
        for i in start..start + k {
            w = (w << 2) | self.symbol(i) as u64;
        }
        w
    }

    /// Unpacks the whole sequence back to base codes.
    pub fn to_codes(&self) -> Vec<u8> {
        (0..self.len).map(|i| self.code(i)).collect()
    }
}

/// A batch of reads concatenated into one packed base array with explicit
/// read boundaries — the exact layout the GPU parse kernels consume.
///
/// The paper marks read ends with special in-band bases; an offset side
/// table is the idiomatic out-of-band equivalent (and is what the paper's
/// released CUDA code also does for supermer lengths).
#[derive(Clone, Debug)]
pub struct ConcatReads {
    /// All bases of all reads, packed.
    pub bases: PackedSeq,
    /// `ends[i]` is the exclusive end offset of read `i` in `bases`;
    /// read `i` spans `ends[i-1]..ends[i]` (with `ends[-1] = 0`).
    pub ends: Vec<usize>,
}

impl ConcatReads {
    /// Concatenates base-code reads under `encoding`.
    pub fn from_reads<'a, I>(reads: I, encoding: Encoding) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut bases = PackedSeq::new(encoding);
        let mut ends = Vec::new();
        for r in reads {
            bases.extend_codes(r);
            ends.push(bases.len());
        }
        ConcatReads { bases, ends }
    }

    /// Number of reads.
    pub fn num_reads(&self) -> usize {
        self.ends.len()
    }

    /// Total number of bases.
    pub fn num_bases(&self) -> usize {
        self.bases.len()
    }

    /// The `[start, end)` range of read `i`.
    pub fn read_span(&self, i: usize) -> (usize, usize) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (start, self.ends[i])
    }

    /// Total number of k-mers across all reads for a given k
    /// (`Σ max(len - k + 1, 0)`).
    pub fn num_kmers(&self, k: usize) -> usize {
        (0..self.num_reads())
            .map(|i| {
                let (s, e) = self.read_span(i);
                (e - s).saturating_sub(k - 1)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::kmer::Kmer;

    fn codes(s: &[u8]) -> Vec<u8> {
        s.iter()
            .map(|&c| Base::from_ascii(c).unwrap().code())
            .collect()
    }

    #[test]
    fn roundtrip_various_lengths() {
        for enc in [Encoding::Alphabetical, Encoding::PaperRandom] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
                let cs: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
                let p = PackedSeq::from_codes(&cs, enc);
                assert_eq!(p.len(), len);
                assert_eq!(p.to_codes(), cs, "enc {enc:?} len {len}");
            }
        }
    }

    #[test]
    fn packing_density() {
        let p = PackedSeq::from_codes(&[0; 100], Encoding::Alphabetical);
        assert_eq!(p.packed_bytes(), 25); // 4 bases per byte
        let p = PackedSeq::from_codes(&[0; 101], Encoding::Alphabetical);
        assert_eq!(p.packed_bytes(), 26);
    }

    #[test]
    fn kmer_word_matches_kmer_type() {
        let seq = b"GATTACAGATTACA";
        for enc in [Encoding::Alphabetical, Encoding::PaperRandom] {
            let p = PackedSeq::from_codes(&codes(seq), enc);
            for k in [1usize, 3, 7, 14] {
                for start in 0..=(seq.len() - k) {
                    let expect = Kmer::from_ascii(&seq[start..start + k], enc)
                        .unwrap()
                        .word();
                    assert_eq!(p.kmer_word(start, k), expect, "enc {enc:?} k {k} s {start}");
                }
            }
        }
    }

    #[test]
    fn concat_reads_spans() {
        let r1 = codes(b"ACGT");
        let r2 = codes(b"GG");
        let r3 = codes(b"TTTTT");
        let c = ConcatReads::from_reads([&r1[..], &r2[..], &r3[..]], Encoding::Alphabetical);
        assert_eq!(c.num_reads(), 3);
        assert_eq!(c.num_bases(), 11);
        assert_eq!(c.read_span(0), (0, 4));
        assert_eq!(c.read_span(1), (4, 6));
        assert_eq!(c.read_span(2), (6, 11));
    }

    #[test]
    fn concat_kmer_count_formula() {
        // L - k + 1 per read, zero for reads shorter than k.
        let r1 = codes(b"ACGTACGT"); // 8 bases, k=3 -> 6
        let r2 = codes(b"AC"); // too short -> 0
        let c = ConcatReads::from_reads([&r1[..], &r2[..]], Encoding::Alphabetical);
        assert_eq!(c.num_kmers(3), 6);
        assert_eq!(c.num_kmers(8), 1);
        assert_eq!(c.num_kmers(9), 0);
    }
}

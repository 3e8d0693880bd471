//! Nucleotide bases and 2-bit encodings.
//!
//! A base is stored internally as a *code* in `0..4` using the conventional
//! alphabetical assignment A=0, C=1, G=2, T=3. An [`Encoding`] maps codes to
//! the 2-bit symbols that get packed into k-mer words. The paper's key trick
//! (§IV-A) is that choosing a *non*-alphabetical encoding — A=1, C=0, T=2,
//! G=3, as previously explored by Squeakr — makes the numeric (and hence
//! "lexicographic over encoded symbols") minimizer ordering behave like a
//! custom ordering, spreading minimizers more evenly across partitions
//! without extra computation.

use std::fmt;

/// A single nucleotide. The discriminant is the internal *code*
/// (alphabetical: A=0, C=1, G=2, T=3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Builds a base from an internal code. Panics in debug builds if
    /// `code >= 4`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        debug_assert!(code < 4, "base code out of range: {code}");
        // SAFETY-free dispatch: match keeps this fully safe and the
        // optimizer reduces it to a no-op.
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The internal code (A=0, C=1, G=2, T=3).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses an ASCII nucleotide (case-insensitive). Returns `None` for
    /// anything that is not `ACGTacgt` — including `N`, which callers must
    /// handle as a read break (the pipelines treat ambiguous bases as
    /// separators, like the paper's "special bases" marking read ends).
    #[inline]
    pub fn from_ascii(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// The uppercase ASCII letter.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        b"ACGT"[self as usize]
    }

    /// Watson-Crick complement (A↔T, C↔G).
    #[inline]
    pub fn complement(self) -> Base {
        // Codes are alphabetical, so complement is 3 - code.
        Base::from_code(3 - self.code())
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

/// A 2-bit encoding: the map from base codes to packed 2-bit symbols.
///
/// The encoding determines the numeric value of packed k-mer words and
/// therefore the induced minimizer ordering (packed words are compared
/// numerically, which equals lexicographic comparison over encoded symbols
/// because bases are packed most-significant-first).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Encoding {
    /// Alphabetical: A=0, C=1, G=2, T=3. Induces the classic lexicographic
    /// minimizer ordering of Roberts et al., which is known to produce
    /// skewed partitions (poly-A minimizers dominate).
    Alphabetical,
    /// The paper's randomized encoding (§IV-A): A=1, C=0, T=2, G=3.
    /// Behaves like a cheap custom minimizer ordering and spreads
    /// partitions much more evenly.
    PaperRandom,
}

impl Encoding {
    /// Encodes a base code (0..4) into its 2-bit symbol.
    #[inline]
    pub fn encode(self, code: u8) -> u8 {
        debug_assert!(code < 4);
        match self {
            Encoding::Alphabetical => code,
            // A(0)→1, C(1)→0, G(2)→3, T(3)→2
            Encoding::PaperRandom => [1u8, 0, 3, 2][code as usize],
        }
    }

    /// Decodes a 2-bit symbol back to a base code.
    #[inline]
    pub fn decode(self, sym: u8) -> u8 {
        debug_assert!(sym < 4);
        match self {
            Encoding::Alphabetical => sym,
            // Inverse of [1,0,3,2]: 0→C(1), 1→A(0), 2→T(3), 3→G(2)
            Encoding::PaperRandom => [1u8, 0, 3, 2][sym as usize],
        }
    }

    /// Encodes a [`Base`].
    #[inline]
    pub fn encode_base(self, base: Base) -> u8 {
        self.encode(base.code())
    }
}

impl Default for Encoding {
    /// The paper's pipelines default to the randomized encoding.
    fn default() -> Self {
        Encoding::PaperRandom
    }
}

/// Converts an ASCII sequence into base codes, treating any non-ACGT
/// character as a break. Returns the list of maximal clean fragments
/// (each a `Vec` of base codes). Fragments shorter than `min_len` are
/// dropped.
pub fn ascii_to_fragments(seq: &[u8], min_len: usize) -> Vec<Vec<u8>> {
    let mut fragments = Vec::new();
    let mut cur: Vec<u8> = Vec::new();
    for &ch in seq {
        match Base::from_ascii(ch) {
            Some(b) => cur.push(b.code()),
            None => {
                if cur.len() >= min_len {
                    fragments.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
        }
    }
    if cur.len() >= min_len {
        fragments.push(cur);
    }
    fragments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn ascii_roundtrip_and_case() {
        assert_eq!(Base::from_ascii(b'A'), Some(Base::A));
        assert_eq!(Base::from_ascii(b'g'), Some(Base::G));
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn paper_encoding_matches_section_4a() {
        // §IV-A: "we map A = 1, C = 0, T = 2, G = 3".
        let e = Encoding::PaperRandom;
        assert_eq!(e.encode_base(Base::A), 1);
        assert_eq!(e.encode_base(Base::C), 0);
        assert_eq!(e.encode_base(Base::T), 2);
        assert_eq!(e.encode_base(Base::G), 3);
    }

    #[test]
    fn encodings_are_bijective() {
        for e in [Encoding::Alphabetical, Encoding::PaperRandom] {
            let mut seen = [false; 4];
            for code in 0..4u8 {
                let sym = e.encode(code);
                assert!(!seen[sym as usize], "{e:?} not injective");
                seen[sym as usize] = true;
                assert_eq!(e.decode(sym), code, "{e:?} decode mismatch");
            }
        }
    }

    #[test]
    fn fragments_split_on_ambiguous_bases() {
        let frags = ascii_to_fragments(b"ACGTNNGGTTNA", 2);
        assert_eq!(frags.len(), 2); // "ACGT", "GGTT"; trailing "A" too short
        assert_eq!(frags[0], vec![0, 1, 2, 3]);
        assert_eq!(frags[1], vec![2, 2, 3, 3]);
    }

    #[test]
    fn fragments_keep_whole_clean_sequence() {
        let frags = ascii_to_fragments(b"ACGT", 1);
        assert_eq!(frags, vec![vec![0, 1, 2, 3]]);
        assert!(ascii_to_fragments(b"NNNN", 1).is_empty());
        assert!(ascii_to_fragments(b"", 1).is_empty());
    }

    #[test]
    fn display_single_base() {
        assert_eq!(format!("{}", Base::G), "G");
    }
}

//! FASTQ parsing and writing.
//!
//! The paper's datasets are FASTQ files (Table I sizes are `.fastq` sizes).
//! The parsers here are deliberately strict about record structure but
//! tolerant about content: ambiguous bases (`N` etc.) split a read into
//! clean fragments, mirroring how the counting pipelines must skip k-mers
//! spanning ambiguous positions.

use crate::base::{ascii_to_fragments, Base};
use crate::read::{Read, ReadSet};
use std::io::{self, BufRead, Write};

/// Errors from FASTQ parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem with the record at 1-based line `line`.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "malformed record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses FASTQ from a buffered reader. Reads containing ambiguous bases
/// are split into clean fragments of at least `min_fragment` bases, each
/// fragment becoming its own read named `<id>/<fragment-index>`; clean
/// reads keep their name and qualities.
pub fn parse_fastq<R: BufRead>(reader: R, min_fragment: usize) -> Result<ReadSet, ParseError> {
    let mut out = ReadSet::new();
    let mut lines = reader.lines().enumerate();
    while let Some((i, header)) = lines.next() {
        let header = header?;
        if header.is_empty() {
            continue; // tolerate trailing blank lines
        }
        let lineno = i + 1;
        if !header.starts_with('@') {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: format!("expected '@' header, got {header:?}"),
            });
        }
        let id = header[1..]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_string();
        let (_, seq) = lines.next().ok_or(ParseError::Malformed {
            line: lineno,
            reason: "missing sequence line".into(),
        })?;
        let seq = seq?;
        let (pi, plus) = lines.next().ok_or(ParseError::Malformed {
            line: lineno,
            reason: "missing '+' line".into(),
        })?;
        let plus = plus?;
        if !plus.starts_with('+') {
            return Err(ParseError::Malformed {
                line: pi + 1,
                reason: format!("expected '+' separator, got {plus:?}"),
            });
        }
        let (qi, qual) = lines.next().ok_or(ParseError::Malformed {
            line: lineno,
            reason: "missing quality line".into(),
        })?;
        let qual = qual?;
        if qual.len() != seq.len() {
            return Err(ParseError::Malformed {
                line: qi + 1,
                reason: format!(
                    "quality length {} != sequence length {}",
                    qual.len(),
                    seq.len()
                ),
            });
        }
        push_sequence(&mut out, &id, seq.as_bytes(), qual.as_bytes(), min_fragment);
    }
    Ok(out)
}

/// Appends `seq` to `out`, splitting at ambiguous bases. A clean sequence
/// keeps its quality string; fragments drop qualities (their alignment to
/// the fragment is gone anyway once positions shift).
fn push_sequence(out: &mut ReadSet, id: &str, seq: &[u8], qual: &[u8], min_fragment: usize) {
    let is_clean = seq.iter().all(|&c| Base::from_ascii(c).is_some());
    if is_clean {
        if seq.len() >= min_fragment {
            let codes = seq
                .iter()
                .map(|&c| Base::from_ascii(c).expect("checked clean").code())
                .collect();
            out.reads.push(Read {
                id: id.to_string(),
                codes,
                quals: Some(qual.to_vec()),
            });
        }
        return;
    }
    for (fi, frag) in ascii_to_fragments(seq, min_fragment)
        .into_iter()
        .enumerate()
    {
        out.reads.push(Read {
            id: format!("{id}/{fi}"),
            codes: frag,
            quals: None,
        });
    }
}

/// Writes a read set as FASTQ. Reads without qualities get a constant
/// placeholder quality (`I`, Phred 40).
pub fn write_fastq<W: Write>(w: &mut W, reads: &ReadSet) -> io::Result<()> {
    for r in &reads.reads {
        writeln!(w, "@{}", r.id)?;
        writeln!(w, "{}", r.to_ascii())?;
        writeln!(w, "+")?;
        match &r.quals {
            Some(q) => w.write_all(q)?,
            None => w.write_all(&vec![b'I'; r.len()])?,
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn fastq(text: &str) -> ReadSet {
        parse_fastq(BufReader::new(text.as_bytes()), 1).unwrap()
    }

    #[test]
    fn parses_simple_fastq() {
        let rs = fastq("@r1 extra stuff\nACGT\n+\nIIII\n@r2\nGG\n+anything\nII\n");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads[0].id, "r1");
        assert_eq!(rs.reads[0].to_ascii(), "ACGT");
        assert_eq!(rs.reads[0].quals.as_deref(), Some(&b"IIII"[..]));
        assert_eq!(rs.reads[1].to_ascii(), "GG");
    }

    #[test]
    fn splits_on_ambiguous_bases() {
        let rs = fastq("@r1\nACGTNNGGTT\n+\nIIIIIIIIII\n");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads[0].id, "r1/0");
        assert_eq!(rs.reads[0].to_ascii(), "ACGT");
        assert_eq!(rs.reads[1].to_ascii(), "GGTT");
        assert!(rs.reads[0].quals.is_none());
    }

    #[test]
    fn min_fragment_drops_short_pieces() {
        let rs = parse_fastq(BufReader::new(&b"@r\nACNGGGG\n+\nIIIIIII\n"[..]), 3).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.reads[0].to_ascii(), "GGGG");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_fastq(BufReader::new(&b"ACGT\n"[..]), 1).is_err()); // no @
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\nIIII\nIIII\n"[..]), 1).is_err()); // no +
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\n+\nII\n"[..]), 1).is_err()); // qual len
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\n"[..]), 1).is_err()); // truncated
    }

    #[test]
    fn fastq_roundtrip() {
        let rs = fastq("@a\nGATTACA\n+\nIIIIIII\n@b\nCCGG\n+\nJJJJ\n");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &rs).unwrap();
        let rs2 = parse_fastq(BufReader::new(&buf[..]), 1).unwrap();
        assert_eq!(rs, rs2);
    }
}

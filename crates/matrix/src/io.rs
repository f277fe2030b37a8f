//! Matrix Market exchange-format I/O.
//!
//! Supports the `matrix coordinate` container with `real`, `integer` and
//! `pattern` fields and `general` / `symmetric` / `skew-symmetric`
//! symmetry. This is the format essentially every published sparse matrix
//! collection uses, so a downstream user can feed their own matrices into
//! the benchmark harness.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::{MatrixError, Result};
use std::io::{BufRead, Write};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Builds a line-positioned parse error (1-based line numbers, the
/// convention every text editor uses).
fn err_at(line: usize, msg: impl Into<String>) -> MatrixError {
    MatrixError::ParseAt {
        line,
        msg: msg.into(),
    }
}

/// Reads a matrix in Matrix Market coordinate format.
///
/// Errors carry the 1-based line number of the offending record
/// ([`MatrixError::ParseAt`]); the resulting matrix has passed the full
/// CSR invariant validation of [`CsrMatrix::try_new`].
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<CsrMatrix> {
    let mut lines = reader.lines().enumerate();
    let header = match lines.next() {
        Some((_, Ok(l))) => l,
        Some((_, Err(e))) => return Err(err_at(1, e.to_string())),
        None => return Err(MatrixError::Parse("empty input".into())),
    };
    let h: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if h.len() < 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(err_at(1, format!("bad header: {header}")));
    }
    if h[2] != "coordinate" {
        return Err(err_at(1, format!("unsupported container: {}", h[2])));
    }
    let field = match h[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(err_at(1, format!("unsupported field: {other}"))),
    };
    let symmetry = match h[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(err_at(1, format!("unsupported symmetry: {other}"))),
    };

    // size line: first non-comment, non-empty line
    let mut size_line = None;
    let mut size_line_no = 1;
    for (idx, line) in lines.by_ref() {
        let line = line.map_err(|e| err_at(idx + 1, e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        size_line_no = idx + 1;
        break;
    }
    let size_line = size_line.ok_or_else(|| MatrixError::Parse("missing size line".into()))?;
    let parts: Vec<&str> = size_line.split_whitespace().collect();
    if parts.len() != 3 {
        return Err(err_at(size_line_no, format!("bad size line: {size_line}")));
    }
    let parse_usize = |line: usize, s: &str| {
        s.parse::<usize>()
            .map_err(|_| err_at(line, format!("bad integer: {s}")))
    };
    let nrows = parse_usize(size_line_no, parts[0])?;
    let ncols = parse_usize(size_line_no, parts[1])?;
    let nnz = parse_usize(size_line_no, parts[2])?;

    let mut coo = CooMatrix::new(nrows, ncols);
    let mut read = 0usize;
    for (idx, line) in lines {
        let ln = idx + 1;
        let line = line.map_err(|e| err_at(ln, e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i = parse_usize(ln, it.next().ok_or_else(|| err_at(ln, "short entry"))?)?;
        let j = parse_usize(ln, it.next().ok_or_else(|| err_at(ln, "short entry"))?)?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(err_at(ln, format!("coordinate out of range: {i} {j}")));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => {
                let s = it.next().ok_or_else(|| err_at(ln, "missing value"))?;
                s.parse::<f64>()
                    .map_err(|_| err_at(ln, format!("bad value: {s}")))?
            }
        };
        let (i, j) = (i - 1, j - 1);
        coo.push(i, j, v);
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric => {
                if i != j {
                    coo.push(j, i, v);
                }
            }
            Symmetry::SkewSymmetric => {
                if i != j {
                    coo.push(j, i, -v);
                }
            }
        }
        read += 1;
    }
    if read != nnz {
        return Err(MatrixError::Parse(format!(
            "expected {nnz} entries, read {read}"
        )));
    }
    // the size line declared the dimensions `to_csr` allocates for
    coo.to_csr()
        .map_err(|e| err_at(size_line_no, e.to_string()))
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
pub fn write_matrix_market<W: Write>(m: &CsrMatrix, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by hybrid-spmv")?;
    writeln!(w, "{} {} {}", m.nrows(), m.ncols(), m.nnz())?;
    for (i, j, v) in m.triplets() {
        writeln!(w, "{} {} {:.17e}", i + 1, j + 1, v)?;
    }
    Ok(())
}

/// Magic bytes of the binary CSR container.
const BINARY_MAGIC: &[u8; 8] = b"SPMVCSR1";

/// Writes a matrix in the crate's fast binary format (little-endian,
/// versioned header). Paper-scale matrices (10⁸ nonzeros) load in seconds
/// instead of the minutes Matrix Market parsing takes.
pub fn write_binary<W: Write>(m: &CsrMatrix, mut w: W) -> std::io::Result<()> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(m.nrows() as u64).to_le_bytes())?;
    w.write_all(&(m.ncols() as u64).to_le_bytes())?;
    w.write_all(&(m.nnz() as u64).to_le_bytes())?;
    for &p in m.row_ptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &c in m.col_idx() {
        w.write_all(&c.to_le_bytes())?;
    }
    for &v in m.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Byte-counting reader: every failed `read_exact` is reported as a
/// [`MatrixError::BinaryAt`] carrying the offset where the read started.
struct BinReader<R> {
    r: R,
    offset: u64,
}

impl<R: std::io::Read> BinReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        self.r.read_exact(buf).map_err(|e| MatrixError::BinaryAt {
            offset: self.offset,
            msg: e.to_string(),
        })?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn read_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Reads a matrix written by [`write_binary`], validating the CRS
/// invariants.
///
/// I/O failures are reported as [`MatrixError::BinaryAt`] with the byte
/// offset (from the start of the stream) of the read that failed; the
/// assembled arrays then pass through [`CsrMatrix::try_new`], so a file
/// with corrupted structure is rejected rather than producing a matrix
/// that violates the CSR invariants.
pub fn read_binary<R: std::io::Read>(r: R) -> Result<CsrMatrix> {
    let mut r = BinReader { r, offset: 0 };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(MatrixError::BinaryAt {
            offset: 0,
            msg: "bad magic: not a SPMVCSR1 file".into(),
        });
    }
    let header_off = r.offset;
    let nrows = r.read_u64()? as usize;
    let ncols = r.read_u64()? as usize;
    let nnz = r.read_u64()? as usize;
    // sanity cap: refuse absurd headers before allocating
    if nrows > (1 << 40) || ncols > u32::MAX as usize || nnz > (1 << 40) {
        return Err(MatrixError::BinaryAt {
            offset: header_off,
            msg: "implausible dimensions in header".into(),
        });
    }
    // The arrays grow as data arrives rather than being sized from the
    // header: a header claiming more than the stream holds then fails at
    // the first missing read instead of allocating for its claim.
    let mut row_ptr = Vec::new();
    for _ in 0..=nrows {
        row_ptr.push(r.read_u64()? as usize);
    }
    let mut col_idx = Vec::new();
    for _ in 0..nnz {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        col_idx.push(u32::from_le_bytes(b));
    }
    let mut values = Vec::new();
    for _ in 0..nnz {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        values.push(f64::from_le_bytes(b));
    }
    CsrMatrix::try_new(nrows, ncols, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<CsrMatrix> {
        read_matrix_market(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn reads_general_real() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % comment\n\
             3 3 3\n\
             1 1 2.0\n\
             2 3 -1.5\n\
             3 1 4.0\n",
        )
        .unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 2), -1.5);
        assert_eq!(m.get(2, 0), 4.0);
    }

    #[test]
    fn reads_symmetric_expanding_lower() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real symmetric\n\
             2 2 2\n\
             1 1 1.0\n\
             2 1 5.0\n",
        )
        .unwrap();
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 5.0);
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn reads_skew_symmetric() {
        let m = parse(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n\
             2 2 1\n\
             2 1 3.0\n",
        )
        .unwrap();
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(0, 1), -3.0);
    }

    #[test]
    fn reads_pattern() {
        let m = parse(
            "%%MatrixMarket matrix coordinate pattern general\n\
             2 3 2\n\
             1 3\n\
             2 1\n",
        )
        .unwrap();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse("").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n").is_err());
        assert!(
            parse("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n").is_err()
        );
        assert!(parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n").is_err());
    }

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = crate::synthetic::random_banded_symmetric(40, 6, 4.0, 17);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let m2 = read_matrix_market(BufReader::new(&buf[..])).unwrap();
        assert_eq!(m.nrows(), m2.nrows());
        assert_eq!(m.nnz(), m2.nnz());
        for (a, b) in m.triplets().zip(m2.triplets()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert!((a.2 - b.2).abs() < 1e-15);
        }
    }

    #[test]
    fn binary_roundtrip_exact() {
        let m = crate::synthetic::random_banded_symmetric(80, 9, 5.0, 4);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).unwrap();
        let m2 = read_binary(&buf[..]).unwrap();
        assert_eq!(m, m2, "binary roundtrip must be bit-exact");
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(read_binary(&b"NOTACSR0"[..]).is_err());
        assert!(read_binary(&b"SPMV"[..]).is_err());
        // valid magic, truncated body
        let m = crate::CsrMatrix::identity(4);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).unwrap();
        assert!(read_binary(&buf[..buf.len() - 3]).is_err());
    }

    #[test]
    fn binary_rejects_corrupted_invariants() {
        let m = crate::CsrMatrix::identity(3);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).unwrap();
        // corrupt a row_ptr entry (bytes 8+24 .. : first row_ptr word)
        buf[8 + 24] = 0xFF;
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        // bad value on the 4th physical line (header, comment, size, entry)
        let err = parse(
            "%%MatrixMarket matrix coordinate real general\n\
             % comment\n\
             2 2 2\n\
             1 1 abc\n",
        )
        .unwrap_err();
        assert_eq!(
            err,
            MatrixError::ParseAt {
                line: 4,
                msg: "bad value: abc".into()
            }
        );

        // out-of-range coordinate on line 3 (no comment this time)
        let err =
            parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 3, .. }), "{err}");

        // malformed size line position is reported even behind comments
        let err = parse("%%MatrixMarket matrix coordinate real general\n%\n%\n2 2\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 4, .. }), "{err}");

        // header problems always point at line 1
        let err = parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n").unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 1, .. }), "{err}");
    }

    #[test]
    fn binary_errors_carry_byte_offsets() {
        let err = read_binary(&b"NOTACSR0"[..]).unwrap_err();
        assert!(
            matches!(err, MatrixError::BinaryAt { offset: 0, .. }),
            "{err}"
        );

        // truncated mid-header: magic(8) + one full u64 read ok, second fails
        let m = crate::CsrMatrix::identity(4);
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).unwrap();
        let err = read_binary(&buf[..20]).unwrap_err();
        assert!(
            matches!(err, MatrixError::BinaryAt { offset: 16, .. }),
            "{err}"
        );

        // truncated in the value section: the offset identifies the read
        // that failed — the last f64, which starts 8 bytes before the end
        let err = read_binary(&buf[..buf.len() - 3]).unwrap_err();
        let expect = (buf.len() - 8) as u64;
        assert!(
            matches!(err, MatrixError::BinaryAt { offset, .. } if offset == expect),
            "{err}"
        );
    }

    #[test]
    fn hostile_headers_are_typed_errors_not_aborts() {
        // 10^12 rows: the row pointers alone would take 8 TB
        let err =
            parse("%%MatrixMarket matrix coordinate real general\n1000000000000 3 1\n1 1 1.0\n")
                .unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 2, .. }), "{err}");
        // usize::MAX rows must not overflow the row-pointer length
        let err = parse(&format!(
            "%%MatrixMarket matrix coordinate real general\n{} 3 1\n1 1 1.0\n",
            usize::MAX
        ))
        .unwrap_err();
        assert!(matches!(err, MatrixError::ParseAt { line: 2, .. }), "{err}");
        // a bare 32-byte header claiming 2^39 rows: fails at the first
        // missing row pointer instead of reserving 4.4 TB
        let mut buf = BINARY_MAGIC.to_vec();
        for v in [1u64 << 39, 4, 0] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(
            matches!(err, MatrixError::BinaryAt { offset: 32, .. }),
            "{err}"
        );
    }

    /// Applies 1–3 random byte edits (overwrite, delete, or truncate).
    /// No edit inserts bytes, so a mutant's size line can only merge a few
    /// short numbers: no case declares dimensions large enough to make a
    /// real allocation attempt.
    fn mutate(rng: &mut crate::rng::Rng64, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..1 + rng.gen_index(3) {
            if out.is_empty() {
                break;
            }
            let at = rng.gen_index(out.len());
            match rng.gen_index(3) {
                0 => out[at] = rng.gen_index(256) as u8,
                1 => {
                    out.remove(at);
                }
                _ => out.truncate(at),
            }
        }
        out
    }

    #[test]
    fn mutated_inputs_yield_a_matrix_or_a_typed_error() {
        let m = crate::synthetic::random_banded_symmetric(24, 4, 3.0, 9);
        let (mut text, mut bin) = (Vec::new(), Vec::new());
        write_matrix_market(&m, &mut text).unwrap();
        write_binary(&m, &mut bin).unwrap();
        for case in 0..256u64 {
            let mut rng = crate::rng::Rng64::new(0x10F0 + case);
            let t = mutate(&mut rng, &text);
            let b = mutate(&mut rng, &bin);
            // Ok or Err are both fine; a panic fails the test
            let _ = read_matrix_market(BufReader::new(&t[..]));
            let _ = read_binary(&b[..]);
        }
    }

    #[test]
    fn binary_handles_empty_matrix() {
        let m = crate::CooMatrix::new(0, 0).to_csr().unwrap();
        let mut buf = Vec::new();
        write_binary(&m, &mut buf).unwrap();
        let m2 = read_binary(&buf[..]).unwrap();
        assert_eq!(m2.nrows(), 0);
        assert_eq!(m2.nnz(), 0);
    }
}

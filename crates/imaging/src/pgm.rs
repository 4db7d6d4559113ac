//! PGM (portable graymap) reading and writing.
//!
//! Supports the binary `P5` and ASCII `P2` formats at 8-bit depth, so
//! users with real photographs can run every experiment on their own
//! data. Pixels are level-shifted to the signed range the transform
//! expects (0..255 ↦ −128..127).

use std::io::{self, BufRead, Read, Write};

use dwt_core::grid::Grid;

/// Errors arising while parsing a PGM stream.
#[derive(Debug)]
#[non_exhaustive]
pub enum PgmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a P2/P5 graymap or is malformed.
    Format(String),
}

impl std::fmt::Display for PgmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgmError::Io(e) => write!(f, "i/o error: {e}"),
            PgmError::Format(msg) => write!(f, "malformed pgm: {msg}"),
        }
    }
}

impl std::error::Error for PgmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PgmError::Io(e) => Some(e),
            PgmError::Format(_) => None,
        }
    }
}

impl From<io::Error> for PgmError {
    fn from(e: io::Error) -> Self {
        PgmError::Io(e)
    }
}

/// Writes an image as binary PGM (P5). A mutable reference to any
/// writer can be passed (`&mut Vec<u8>`, a file, …).
///
/// # Errors
///
/// Propagates write failures.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use dwt_core::grid::Grid;
/// use dwt_imaging::pgm::{read_pgm, write_pgm};
///
/// let img = Grid::from_vec(2, 3, vec![-128, 0, 127, 5, -5, 64])?;
/// let mut buf = Vec::new();
/// write_pgm(&img, &mut buf)?;
/// let back = read_pgm(buf.as_slice())?;
/// assert_eq!(img, back);
/// # Ok(())
/// # }
/// ```
pub fn write_pgm<W: Write>(image: &Grid<i32>, mut w: W) -> io::Result<()> {
    let (rows, cols) = image.dims();
    writeln!(w, "P5")?;
    writeln!(w, "{cols} {rows}")?;
    writeln!(w, "255")?;
    let bytes: Vec<u8> = image.iter().map(|&v| (v + 128).clamp(0, 255) as u8).collect();
    w.write_all(&bytes)
}

/// Reads a P5 (binary) or P2 (ASCII) graymap into level-shifted samples.
/// A mutable reference to any reader can be passed.
///
/// # Errors
///
/// Returns [`PgmError::Format`] for non-PGM input or truncated data and
/// [`PgmError::Io`] for read failures.
pub fn read_pgm<R: Read>(r: R) -> Result<Grid<i32>, PgmError> {
    let mut reader = io::BufReader::new(r);
    let mut header_fields = Vec::with_capacity(4);
    let mut magic = [0u8; 2];
    reader.read_exact(&mut magic)?;
    let ascii = match &magic {
        b"P5" => false,
        b"P2" => true,
        _ => return Err(PgmError::Format("missing P2/P5 magic".into())),
    };
    // Parse three header tokens (width, height, maxval), skipping
    // comments and whitespace.
    while header_fields.len() < 3 {
        let mut tok = String::new();
        loop {
            let mut byte = [0u8; 1];
            reader.read_exact(&mut byte)?;
            match byte[0] {
                b'#' => {
                    // Comments are free text in any encoding.
                    reader.read_until(b'\n', &mut Vec::new())?;
                }
                c if c.is_ascii_whitespace() => {
                    if !tok.is_empty() {
                        break;
                    }
                }
                c => tok.push(c as char),
            }
        }
        let value: usize =
            tok.parse().map_err(|_| PgmError::Format(format!("bad header token '{tok}'")))?;
        header_fields.push(value);
    }
    let (cols, rows, maxval) = (header_fields[0], header_fields[1], header_fields[2]);
    if maxval == 0 || maxval > 255 {
        return Err(PgmError::Format(format!("unsupported maxval {maxval}")));
    }
    if rows == 0 || cols == 0 {
        return Err(PgmError::Format("zero dimension".into()));
    }

    let pixels = rows
        .checked_mul(cols)
        .ok_or_else(|| PgmError::Format(format!("{cols} x {rows} pixels overflow")))?;
    // Reserve only what the stream actually holds, so a hostile header
    // cannot demand a huge allocation before the data runs out.
    let data: Vec<i32> = if ascii {
        let mut text = Vec::new();
        reader.read_to_end(&mut text)?;
        text.split(u8::is_ascii_whitespace)
            .filter(|tok| !tok.is_empty())
            .take(pixels)
            .map(|tok| {
                let tok = String::from_utf8_lossy(tok);
                let v: i32 =
                    tok.parse().map_err(|_| PgmError::Format(format!("bad pixel '{tok}'")))?;
                Ok(v.clamp(0, 255) - 128)
            })
            .collect::<Result<_, PgmError>>()?
    } else {
        let mut bytes = Vec::new();
        reader.take(pixels as u64).read_to_end(&mut bytes)?;
        bytes.iter().map(|&b| i32::from(b) - 128).collect()
    };
    if data.len() != pixels {
        return Err(PgmError::Format(format!("expected {pixels} pixels, found {}", data.len())));
    }
    Grid::from_vec(rows, cols, data)
        .map_err(|e| PgmError::Format(format!("inconsistent dimensions: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_roundtrip() {
        let img = Grid::from_vec(3, 2, vec![-128, -1, 0, 1, 127, 50]).unwrap();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert_eq!(read_pgm(buf.as_slice()).unwrap(), img);
    }

    #[test]
    fn ascii_format_parses() {
        let text = b"P2\n# a comment\n3 2\n255\n0 128 255\n1 2 3\n";
        let img = read_pgm(text.as_slice()).unwrap();
        assert_eq!(img.dims(), (2, 3));
        assert_eq!(img[(0, 0)], -128);
        assert_eq!(img[(0, 1)], 0);
        assert_eq!(img[(0, 2)], 127);
        assert_eq!(img[(1, 2)], 3 - 128);
    }

    #[test]
    fn comments_in_header_are_skipped() {
        let text = b"P2\n#c1\n2 #c2\n1\n255\n9 9\n";
        let img = read_pgm(text.as_slice()).unwrap();
        assert_eq!(img.dims(), (1, 2));
    }

    #[test]
    fn non_utf8_comments_are_skipped_and_non_utf8_pixels_are_format_errors() {
        let text = b"P2\n# caf\xe9\n2 1\n255\n9 9\n";
        assert_eq!(read_pgm(text.as_slice()).unwrap().dims(), (1, 2));
        let text = b"P2\n2 1\n255\n9 \xe9\n";
        assert!(matches!(read_pgm(text.as_slice()), Err(PgmError::Format(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(read_pgm(b"P6\n1 1\n255\nx".as_slice()), Err(PgmError::Format(_))));
    }

    #[test]
    fn truncated_binary_rejected() {
        let text = b"P5\n4 4\n255\nab";
        assert!(read_pgm(text.as_slice()).is_err());
    }

    #[test]
    fn overflowing_dimensions_are_rejected() {
        let text = b"P5 4294967296 4294967296 255\n";
        assert!(matches!(read_pgm(text.as_slice()), Err(PgmError::Format(_))));
    }

    #[test]
    fn a_huge_header_over_a_short_body_is_rejected() {
        let text = b"P2 100000 100000 255\n";
        assert_eq!(text.len(), 21);
        assert!(matches!(read_pgm(text.as_slice()), Err(PgmError::Format(_))));
    }

    #[test]
    fn bad_maxval_rejected() {
        assert!(matches!(
            read_pgm(b"P5\n1 1\n65535\n\x00\x00".as_slice()),
            Err(PgmError::Format(_))
        ));
    }

    #[test]
    fn synthetic_image_roundtrips() {
        let img = crate::synth::StillToneImage::new(16, 24).seed(1).generate();
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert_eq!(read_pgm(buf.as_slice()).unwrap(), img);
    }
}

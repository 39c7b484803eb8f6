//! Minimal CSV-style persistence for series, score profiles and label ranges.
//!
//! The on-disk format is intentionally simple: one value per line for plain
//! series, and comma-separated rows for labelled or multi-column outputs.
//! This keeps the experiment harness self-contained without pulling a CSV
//! dependency into the workspace.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::error::{Error, Result};
use crate::series::TimeSeries;

/// Incremental single-column series parser: the one code path behind both
/// [`parse_series`] (in-memory text) and [`read_series`] (streamed file
/// lines), so a value parsed from a socket body is bit-identical to the
/// same value parsed from a file.
struct SeriesParser {
    values: Vec<f64>,
}

impl SeriesParser {
    fn new() -> Self {
        SeriesParser { values: Vec::new() }
    }

    /// Consumes one line (0-indexed). Empty lines and lines starting with
    /// `#` are skipped; a first line whose first field is not a number is
    /// a header row ([`is_header`]); only the first comma-separated field
    /// of a line is read. A `nan` or `inf` is a value, never a header, and is
    /// rejected on any line.
    fn push_line(&mut self, lineno: usize, line: &str) -> Result<()> {
        // A line that `str::parse` reads as a finite number has no
        // whitespace, comment mark or comma, so the rule below would take
        // it as is: skip the rule.
        if let Ok(v) = line.parse::<f64>() {
            if v.is_finite() {
                self.values.push(v);
                return Ok(());
            }
        }
        let token = line.trim();
        if token.is_empty() || token.starts_with('#') {
            return Ok(());
        }
        if lineno == 0 && is_header(token) {
            return Ok(());
        }
        let field = token.split(',').next().unwrap_or(token).trim();
        self.values.push(parse_value(lineno + 1, field)?);
        Ok(())
    }

    fn finish(self) -> TimeSeries {
        TimeSeries::from(self.values)
    }
}

/// Parses one value token found on 1-based line `line`: the value rule of
/// every series parser, so fit, score and stream bodies agree on it.
///
/// # Errors
/// [`Error::Parse`] when the token is not a number, [`Error::NonFinite`]
/// when it is `NaN` or `±inf`.
pub fn parse_value(line: usize, token: &str) -> Result<f64> {
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(Error::NonFinite {
            line,
            token: token.to_string(),
        }),
        Err(_) => Err(Error::Parse {
            line,
            token: token.to_string(),
        }),
    }
}

/// The header rule of every series body: `true` when the first
/// comma-separated field of `line` is not a number. `nan` and `inf` are
/// numbers here, so they are never taken for a header.
pub fn is_header(line: &str) -> bool {
    let field = line.split(',').next().unwrap_or(line).trim();
    matches!(parse_value(1, field), Err(Error::Parse { .. }))
}

/// Parses a single-column series (one floating point value per line) from
/// in-memory text.
///
/// Empty lines and lines starting with `#` are skipped. A header line that
/// does not parse as a number is also skipped (only for the first line).
/// This is the exact parser behind [`read_series`]; exposing it lets other
/// layers (e.g. a network server receiving a posted CSV body) decode series
/// text through the *same* code path as the file reader, so a value parsed
/// from a socket is bit-identical to the same value parsed from a file.
pub fn parse_series(text: &str) -> Result<TimeSeries> {
    let mut parser = SeriesParser::new();
    for (lineno, line) in text.lines().enumerate() {
        parser.push_line(lineno, line)?;
    }
    Ok(parser.finish())
}

/// Reads a single-column series (one floating point value per line),
/// streaming line by line (the whole file is never held in memory).
///
/// Empty lines and lines starting with `#` are skipped. A header line that
/// does not parse as a number is also skipped (only for the first line).
pub fn read_series<P: AsRef<Path>>(path: P) -> Result<TimeSeries> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut parser = SeriesParser::new();
    for (lineno, line) in reader.lines().enumerate() {
        parser.push_line(lineno, &line?)?;
    }
    Ok(parser.finish())
}

/// Writes a series as one value per line.
pub fn write_series<P: AsRef<Path>>(path: P, series: &TimeSeries) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    for v in series.iter() {
        writeln!(w, "{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes aligned columns as CSV with a header row. All columns must have the
/// same length.
///
/// # Errors
/// [`Error::LengthMismatch`] when column lengths differ,
/// [`Error::Empty`] when no columns are given.
pub fn write_columns<P: AsRef<Path>>(path: P, headers: &[&str], columns: &[&[f64]]) -> Result<()> {
    if columns.is_empty() || headers.len() != columns.len() {
        return Err(Error::Empty("columns"));
    }
    let len = columns[0].len();
    for c in columns {
        if c.len() != len {
            return Err(Error::LengthMismatch {
                left: len,
                right: c.len(),
            });
        }
    }
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{}", headers.join(","))?;
    for i in 0..len {
        let row: Vec<String> = columns.iter().map(|c| c[i].to_string()).collect();
        writeln!(w, "{}", row.join(","))?;
    }
    w.flush()?;
    Ok(())
}

/// Reads `(start, length)` anomaly-range labels from a two-column CSV file.
pub fn read_label_ranges<P: AsRef<Path>>(path: P) -> Result<Vec<(usize, usize)>> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let token = line.trim();
        if token.is_empty() || token.starts_with('#') {
            continue;
        }
        let mut parts = token.split(',').map(str::trim);
        let a = parts.next().unwrap_or("");
        let b = parts.next().unwrap_or("");
        let parse = |t: &str| -> Result<usize> {
            t.parse::<usize>().map_err(|_| Error::Parse {
                line: lineno + 1,
                token: t.to_string(),
            })
        };
        match (parse(a), parse(b)) {
            (Ok(s), Ok(l)) => out.push((s, l)),
            _ if lineno == 0 => continue, // header
            (Err(e), _) | (_, Err(e)) => return Err(e),
        }
    }
    Ok(out)
}

/// Writes `(start, length)` anomaly-range labels as a two-column CSV file.
pub fn write_label_ranges<P: AsRef<Path>>(path: P, ranges: &[(usize, usize)]) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "start,length")?;
    for (s, l) in ranges {
        writeln!(w, "{s},{l}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("s2g_io_test_{}_{name}", std::process::id()));
        dir
    }

    #[test]
    fn roundtrip_series() {
        let path = tmp("series.csv");
        let ts = TimeSeries::from(vec![1.5, -2.25, 3.0, 0.0]);
        write_series(&path, &ts).unwrap();
        let back = read_series(&path).unwrap();
        assert_eq!(back, ts);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_skips_header_comments_and_extra_columns() {
        let path = tmp("headered.csv");
        std::fs::write(&path, "value,label\n# comment\n1.0,0\n2.5,1\n\n3.0,0\n").unwrap();
        let ts = read_series(&path).unwrap();
        assert_eq!(ts.values(), &[1.0, 2.5, 3.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_is_a_first_field_that_is_not_a_number() {
        for header in ["value", "value,label", " t , x", ",1.5", ""] {
            assert!(is_header(header), "{header:?}");
        }
        for data in ["1.5", "1.5,abc", " -2e3 ,x", "nan", "inf,1"] {
            assert!(!is_header(data), "{data:?}");
        }
    }

    #[test]
    fn read_reports_bad_value() {
        let path = tmp("bad.csv");
        std::fs::write(&path, "1.0\nnot_a_number\n").unwrap();
        let err = read_series(&path).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_label_ranges() {
        let path = tmp("labels.csv");
        let ranges = vec![(10usize, 75usize), (500, 80)];
        write_label_ranges(&path, &ranges).unwrap();
        let back = read_label_ranges(&path).unwrap();
        assert_eq!(back, ranges);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_columns_validates_shapes() {
        let path = tmp("cols.csv");
        let a = [1.0, 2.0];
        let b = [3.0];
        assert!(write_columns(&path, &["a", "b"], &[&a, &b]).is_err());
        assert!(write_columns(&path, &[], &[]).is_err());
        let b2 = [3.0, 4.0];
        write_columns(&path, &["a", "b"], &[&a, &b2]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("a,b\n1,3\n"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_series_matches_file_reader() {
        let text = "value\n# comment\n0.1\n-2.5e-3,9\n\n7\n";
        let parsed = parse_series(text).unwrap();
        let path = tmp("parse_vs_read.csv");
        std::fs::write(&path, text).unwrap();
        let read = read_series(&path).unwrap();
        assert_eq!(parsed, read);
        assert_eq!(parsed.values(), &[0.1, -2.5e-3, 7.0]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_finite_values_are_rejected_with_their_line() {
        for (text, line, token) in [
            ("nan\n1.0\n", 1, "nan"),
            ("value\n1.0\ninf\n", 3, "inf"),
            ("1.0\n-Infinity,0\n", 2, "-Infinity"),
        ] {
            match parse_series(text) {
                Err(Error::NonFinite { line: l, token: t }) => {
                    assert_eq!((l, t.as_str()), (line, token), "{text:?}");
                }
                other => panic!("{text:?}: expected NonFinite, got {other:?}"),
            }
        }
        let path = tmp("non_finite.csv");
        std::fs::write(&path, "1.0\nNaN\n").unwrap();
        assert!(matches!(
            read_series(&path),
            Err(Error::NonFinite { line: 2, .. })
        ));
        std::fs::remove_file(path).ok();
        assert_eq!(parse_value(1, "2.5").unwrap(), 2.5);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_series("/definitely/not/here.csv").unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }
}

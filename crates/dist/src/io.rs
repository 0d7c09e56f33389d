//! Compact text serialisation of benchmark databases (`.dist` files).
//!
//! MPIBench runs are expensive (a full Figure-1 sweep simulates millions of
//! frames), so benchmark results are persisted and reloaded by PEVPM and the
//! figure-regeneration benches. The format is line-oriented, versioned and
//! human-inspectable:
//!
//! ```text
//! PEVPM-DIST v1
//! entry op=isend size=1024 contention=32
//! hist origin=0.000132 width=0.000001
//! summary count=1000 mean=2.1e-4 m2=3e-9 min=1.3e-4 max=9e-4 sum=0.21
//! counts 0 0 17 131 ...
//! entry op=barrier size=0 contention=64
//! point value=0.00042
//! entry op=send size=65536 contention=1
//! fit kind=gamma shift=0.005 p1=2.0 p2=0.001
//! ```
//!
//! Counts use run-length encoding `NxV` for runs of equal values, because
//! contention histograms are mostly zeros between the main mass and the RTO
//! outlier bins (200 ms away at microsecond bin widths).

use crate::fit::{FitKind, ParametricFit};
use crate::histogram::Histogram;
use crate::summary::Summary;
use crate::table::{CommDist, DistKey, DistTable, Op};
use std::fmt::Write as _;

/// Errors arising while parsing a `.dist` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Serialise a table to the `.dist` text format.
pub fn write_table(table: &DistTable) -> String {
    let mut out = String::from("PEVPM-DIST v1\n");
    for (key, dist) in table.iter() {
        let _ = writeln!(
            out,
            "entry op={} size={} contention={}",
            key.op, key.size, key.contention
        );
        match dist {
            CommDist::Hist(h) => {
                let _ = writeln!(
                    out,
                    "hist origin={:e} width={:e}",
                    h.origin(),
                    h.bin_width()
                );
                let (count, mean, m2, min, max, sum) = h.summary().to_parts();
                let _ = writeln!(
                    out,
                    "summary count={count} mean={mean:e} m2={m2:e} min={min:e} max={max:e} sum={sum:e}"
                );
                out.push_str("counts");
                for (value, run) in run_length(h.counts()) {
                    if run == 1 {
                        let _ = write!(out, " {value}");
                    } else {
                        let _ = write!(out, " {run}x{value}");
                    }
                }
                out.push('\n');
            }
            CommDist::Fit(f) => {
                let kind = match f.kind {
                    FitKind::ShiftedExponential => "exp",
                    FitKind::ShiftedLogNormal => "lognormal",
                    FitKind::ShiftedGamma => "gamma",
                };
                let _ = writeln!(
                    out,
                    "fit kind={kind} shift={:e} p1={:e} p2={:e}",
                    f.shift, f.p1, f.p2
                );
            }
            CommDist::Point(v) => {
                let _ = writeln!(out, "point value={v:e}");
            }
        }
    }
    out
}

/// Parse a `.dist` text document back into a table.
pub fn read_table(text: &str) -> Result<DistTable, ParseError> {
    let mut lines = text.lines().enumerate().peekable();
    let (_, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    if header.trim() != "PEVPM-DIST v1" {
        return Err(err(1, format!("bad header {header:?}")));
    }
    let mut table = DistTable::new();
    while let Some((idx0, line)) = lines.next() {
        let lineno = idx0 + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields
            .next()
            .ok_or_else(|| err(lineno, "empty entry line"))?;
        if tag != "entry" {
            return Err(err(lineno, format!("expected 'entry', got {tag:?}")));
        }
        let kv = parse_kv(fields, lineno)?;
        let op_name = kv_get(&kv, "op", lineno)?;
        let op =
            Op::from_name(op_name).ok_or_else(|| err(lineno, format!("unknown op {op_name:?}")))?;
        let size: u64 = parse_num(kv_get(&kv, "size", lineno)?, lineno)?;
        let contention: u32 = parse_num(kv_get(&kv, "contention", lineno)?, lineno)?;
        let key = DistKey {
            op,
            size,
            contention,
        };

        let (idx0, body) = lines
            .next()
            .ok_or_else(|| err(lineno, "entry missing body"))?;
        let lineno = idx0 + 1;
        let body = body.trim();
        let mut fields = body.split_whitespace();
        let tag = fields
            .next()
            .ok_or_else(|| err(lineno, "empty body line"))?;
        let dist = match tag {
            "point" => {
                let kv = parse_kv(fields, lineno)?;
                CommDist::Point(parse_num(kv_get(&kv, "value", lineno)?, lineno)?)
            }
            "fit" => {
                let kv = parse_kv(fields, lineno)?;
                let kind = match kv_get(&kv, "kind", lineno)? {
                    "exp" => FitKind::ShiftedExponential,
                    "lognormal" => FitKind::ShiftedLogNormal,
                    "gamma" => FitKind::ShiftedGamma,
                    other => return Err(err(lineno, format!("unknown fit kind {other:?}"))),
                };
                CommDist::Fit(ParametricFit {
                    kind,
                    shift: parse_num(kv_get(&kv, "shift", lineno)?, lineno)?,
                    p1: parse_num(kv_get(&kv, "p1", lineno)?, lineno)?,
                    p2: parse_num(kv_get(&kv, "p2", lineno)?, lineno)?,
                })
            }
            "hist" => {
                let kv = parse_kv(fields, lineno)?;
                let origin: f64 = parse_num(kv_get(&kv, "origin", lineno)?, lineno)?;
                let width: f64 = parse_num(kv_get(&kv, "width", lineno)?, lineno)?;

                let (idx0, sline) = lines
                    .next()
                    .ok_or_else(|| err(lineno, "hist missing summary line"))?;
                let slineno = idx0 + 1;
                let mut sfields = sline.split_whitespace();
                if sfields.next() != Some("summary") {
                    return Err(err(slineno, "expected 'summary' line"));
                }
                let kv = parse_kv(sfields, slineno)?;
                let summary = Summary::from_parts(
                    parse_num(kv_get(&kv, "count", slineno)?, slineno)?,
                    parse_num(kv_get(&kv, "mean", slineno)?, slineno)?,
                    parse_num(kv_get(&kv, "m2", slineno)?, slineno)?,
                    parse_num(kv_get(&kv, "min", slineno)?, slineno)?,
                    parse_num(kv_get(&kv, "max", slineno)?, slineno)?,
                    parse_num(kv_get(&kv, "sum", slineno)?, slineno)?,
                );

                let (idx0, cline) = lines
                    .next()
                    .ok_or_else(|| err(slineno, "hist missing counts line"))?;
                let clineno = idx0 + 1;
                let mut cfields = cline.split_whitespace();
                if cfields.next() != Some("counts") {
                    return Err(err(clineno, "expected 'counts' line"));
                }
                let mut counts: Vec<u64> = Vec::new();
                for tok in cfields {
                    if let Some((run, value)) = tok.split_once('x') {
                        let run: usize = parse_num(run, clineno)?;
                        let value: u64 = parse_num(value, clineno)?;
                        counts.extend(std::iter::repeat_n(value, run));
                    } else {
                        counts.push(parse_num(tok, clineno)?);
                    }
                }
                let h = Histogram::from_parts(origin, width, counts, summary);
                if h.is_empty() {
                    return Err(err(
                        clineno,
                        format!(
                            "empty histogram for op={} size={} contention={}: \
                             nothing to sample from",
                            key.op, key.size, key.contention
                        ),
                    ));
                }
                CommDist::Hist(h)
            }
            other => return Err(err(lineno, format!("unknown body tag {other:?}"))),
        };
        table.insert(key, dist);
    }
    Ok(table)
}

/// Error loading a `.dist` file: always names the offending file, so a
/// CLI can print it verbatim without wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// Path of the file that failed to load.
    pub path: std::path::PathBuf,
    /// What went wrong (I/O error text or `line N: …` parse error).
    pub message: String,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for LoadError {}

/// Save a table to a file.
pub fn save_table(table: &DistTable, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, write_table(table))
}

/// Load a table from a file. Errors name the file and, for parse
/// failures, the 1-based line number.
pub fn load_table(path: &std::path::Path) -> Result<DistTable, LoadError> {
    let text = std::fs::read_to_string(path).map_err(|e| LoadError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    read_table(&text).map_err(|e| LoadError {
        path: path.to_path_buf(),
        message: e.to_string(),
    })
}

fn run_length(counts: &[u64]) -> Vec<(u64, usize)> {
    let mut out = Vec::new();
    for &c in counts {
        match out.last_mut() {
            Some((v, n)) if *v == c => *n += 1,
            _ => out.push((c, 1)),
        }
    }
    out
}

fn parse_kv<'a>(
    fields: impl Iterator<Item = &'a str>,
    lineno: usize,
) -> Result<Vec<(&'a str, &'a str)>, ParseError> {
    fields
        .map(|f| {
            f.split_once('=')
                .ok_or_else(|| err(lineno, format!("expected key=value, got {f:?}")))
        })
        .collect()
}

fn kv_get<'a>(kv: &[(&'a str, &'a str)], key: &str, lineno: usize) -> Result<&'a str, ParseError> {
    kv.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| err(lineno, format!("missing field {key:?}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, lineno: usize) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| err(lineno, format!("bad number {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> DistTable {
        let mut t = DistTable::new();
        let mut h = Histogram::new(1.0e-4, 1.0e-6);
        for i in 0..100 {
            h.add(1.0e-4 + (i % 13) as f64 * 3.0e-6);
        }
        h.add(0.2); // RTO outlier far away -> exercises run-length zeros
        t.insert(
            DistKey {
                op: Op::Isend,
                size: 1024,
                contention: 32,
            },
            CommDist::Hist(h),
        );
        t.insert(
            DistKey {
                op: Op::Barrier,
                size: 0,
                contention: 64,
            },
            CommDist::Point(4.2e-4),
        );
        t.insert(
            DistKey {
                op: Op::Send,
                size: 65536,
                contention: 1,
            },
            CommDist::Fit(ParametricFit {
                kind: FitKind::ShiftedGamma,
                shift: 5.0e-3,
                p1: 2.0,
                p2: 1.0e-3,
            }),
        );
        t
    }

    /// A scratch directory private to one test (named after the process
    /// and the test thread), removed when dropped, so parallel tests and
    /// concurrent test processes never share one.
    struct TmpDir(std::path::PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn tmpdir() -> TmpDir {
        let test = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        let d =
            std::env::temp_dir().join(format!("pevpm_dist_io_test_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        TmpDir(d)
    }

    #[test]
    fn roundtrip_preserves_table() {
        let t = sample_table();
        let text = write_table(&t);
        let back = read_table(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_twice_is_stable() {
        let t = sample_table();
        let a = write_table(&t);
        let b = write_table(&read_table(&a).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn run_length_encoding_compresses_outlier_gap() {
        let t = sample_table();
        let text = write_table(&t);
        // The gap between ~100 µs mass and the 0.2 s outlier spans ~200k bins;
        // RLE must keep the document small.
        assert!(
            text.len() < 20_000,
            "document unexpectedly large: {}",
            text.len()
        );
        assert!(text.contains('x'), "expected run-length tokens");
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_table("NOPE v9\n").is_err());
        assert!(read_table("").is_err());
    }

    #[test]
    fn rejects_unknown_op() {
        let doc = "PEVPM-DIST v1\nentry op=warp size=1 contention=1\npoint value=1\n";
        let e = read_table(doc).unwrap_err();
        assert!(e.message.contains("unknown op"), "{e}");
    }

    #[test]
    fn rejects_missing_fields() {
        let doc = "PEVPM-DIST v1\nentry op=send contention=1\npoint value=1\n";
        let e = read_table(doc).unwrap_err();
        assert!(e.message.contains("size"), "{e}");
    }

    #[test]
    fn rejects_truncated_hist() {
        let doc = "PEVPM-DIST v1\nentry op=send size=8 contention=1\nhist origin=0 width=1e-6\n";
        assert!(read_table(doc).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let doc = "PEVPM-DIST v1\n\n# comment\nentry op=send size=8 contention=1\npoint value=2\n";
        let t = read_table(doc).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(&DistKey {
                op: Op::Send,
                size: 8,
                contention: 1
            }),
            Some(&CommDist::Point(2.0))
        );
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = tmpdir();
        let path = dir.join("sample.dist");
        save_table(&t, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_histogram() {
        let doc = "PEVPM-DIST v1\n\
                   entry op=send size=8 contention=1\n\
                   hist origin=0 width=1e-6\n\
                   summary count=0 mean=0 m2=0 min=0 max=0 sum=0\n\
                   counts\n";
        let e = read_table(doc).unwrap_err();
        assert!(e.message.contains("empty histogram"), "{e}");
    }

    #[test]
    fn load_errors_name_the_file() {
        let missing = std::path::Path::new("/no/such/dir/table.dist");
        let e = load_table(missing).unwrap_err();
        assert!(e.to_string().contains("table.dist"), "{e}");

        let dir = tmpdir();
        let path = dir.join("corrupt.dist");
        std::fs::write(&path, "PEVPM-DIST v1\nentry op=warp size=1 contention=1\n").unwrap();
        let e = load_table(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("corrupt.dist"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_error_reports_line_numbers() {
        let doc = "PEVPM-DIST v1\nentry op=send size=8 contention=1\npoint value=abc\n";
        let e = read_table(doc).unwrap_err();
        assert_eq!(e.line, 3);
    }

    /// A file cut off mid-document (interrupted benchmark run, partial
    /// copy) must point at the line where the document ends, for every
    /// truncation point of a real serialised table.
    #[test]
    fn truncated_files_report_the_final_line() {
        let full = write_table(&sample_table());
        let dir = tmpdir();
        let path = dir.join("truncated.dist");
        let lines: Vec<&str> = full.lines().collect();
        // Cut after each prefix that ends on an entry or hist line —
        // those leave a dangling record the parser must flag.
        for cut in 1..lines.len() {
            let doc: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, &doc).unwrap();
            match load_table(&path) {
                Ok(t) => {
                    // A cut between complete records parses; it must
                    // just hold fewer entries.
                    assert!(t.len() < sample_table().len(), "cut {cut}");
                }
                Err(e) => {
                    let text = e.to_string();
                    assert!(text.contains("truncated.dist"), "cut {cut}: {text}");
                    // The reported line must be within the truncated
                    // document — the parser cannot blame a line that
                    // does not exist.
                    let reported: usize = text
                        .split("line ")
                        .nth(1)
                        .and_then(|s| s.split(&[':', ' '][..]).next().and_then(|n| n.parse().ok()))
                        .unwrap_or_else(|| panic!("cut {cut}: no line in {text:?}"));
                    assert!(reported <= cut, "cut {cut}: {text}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A non-UTF8 file (binary garbage handed to `--table`) must fail
    /// with the file name and the encoding problem, not a line number —
    /// there are no lines to blame before decoding succeeds.
    #[test]
    fn non_utf8_files_report_encoding_not_a_line() {
        let dir = tmpdir();
        let path = dir.join("binary.dist");
        std::fs::write(&path, [0x50u8, 0x45, 0x56, 0xff, 0xfe, 0x00, 0x80]).unwrap();
        let e = load_table(&path).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("binary.dist"), "{text}");
        assert!(
            text.to_lowercase().contains("utf-8") || text.to_lowercase().contains("utf8"),
            "{text}"
        );
        assert!(!text.contains("line "), "{text}");
        std::fs::remove_file(&path).ok();
    }
}

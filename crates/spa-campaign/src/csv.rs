//! Minimal CSV export for the experiment reports.
//!
//! The report tables ([`crate::report::gains_csv`],
//! [`crate::report::campaigns_csv`]) are written as plain CSV with
//! RFC-4180 quoting for the small set of cases they can contain (fields
//! with commas, quotes or line breaks). A small, dependency-free writer,
//! not a general CSV library.

use spa_types::Result;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Quotes a field if needed per RFC 4180.
pub(crate) fn quote_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serializes rows of string fields into CSV text.
pub(crate) fn to_csv<S: AsRef<str>>(rows: &[Vec<S>]) -> String {
    let mut out = String::new();
    for row in rows {
        let mut first = true;
        for field in row {
            if !first {
                out.push(',');
            }
            out.push_str(&quote_field(field.as_ref()));
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Writes rows to a file.
pub fn write_csv<S: AsRef<str>>(path: impl AsRef<Path>, rows: &[Vec<S>]) -> Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    file.write_all(to_csv(rows).as_bytes())?;
    file.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Test oracle: decodes the writer's output (RFC-4180 quoting, `\n`
    /// row ends) back into rows, so the round-trip properties below check
    /// that every field the writer quotes comes back unchanged.
    fn decode(text: &str) -> Vec<Vec<String>> {
        let (mut rows, mut row, mut field) = (Vec::new(), Vec::new(), String::new());
        let mut chars = text.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match (quoted, c) {
                (true, '"') if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                (_, '"') => quoted = !quoted,
                (false, ',') => row.push(std::mem::take(&mut field)),
                (false, '\n') => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                (_, other) => field.push(other),
            }
        }
        assert!(!quoted && field.is_empty() && row.is_empty(), "unterminated output");
        rows
    }

    #[test]
    fn plain_fields_round_trip() {
        let rows = vec![vec!["a", "b", "c"], vec!["1", "2", "3"]];
        let text = to_csv(&rows);
        assert_eq!(text, "a,b,c\n1,2,3\n");
        assert_eq!(decode(&text), rows);
    }

    #[test]
    fn special_characters_are_quoted() {
        let rows = vec![vec!["he,llo", "say \"hi\"", "multi\nline", "cr\rlf"]];
        let text = to_csv(&rows);
        assert_eq!(text, "\"he,llo\",\"say \"\"hi\"\"\",\"multi\nline\",\"cr\rlf\"\n");
        assert_eq!(decode(&text), rows);
    }

    #[test]
    fn empty_fields_survive() {
        let rows = vec![vec!["a", "", "c"], vec!["", "x"]];
        let text = to_csv(&rows);
        assert_eq!(text, "a,,c\n,x\n");
        assert_eq!(decode(&text), rows);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(to_csv::<&str>(&[]).is_empty());
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join(format!("spa-csv-{}.csv", std::process::id()));
        let rows = vec![vec!["x".to_string(), "y,z".to_string()]];
        write_csv(&path, &rows).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, to_csv(&rows));
        assert_eq!(decode(&written), rows);
        let _ = std::fs::remove_file(&path);
    }

    /// 512 seeded tables of printable-ASCII fields (quotes and commas
    /// included), 1–5 rows of 1–4 fields of 0–12 characters.
    #[test]
    fn arbitrary_fields_round_trip() {
        let mut rng = StdRng::seed_from_u64(0xC5F);
        for _ in 0..512 {
            let rows: Vec<Vec<String>> = (0..rng.gen_range(1..6))
                .map(|_| {
                    (0..rng.gen_range(1..5))
                        .map(|_| {
                            (0..rng.gen_range(0..13))
                                .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            assert_eq!(decode(&to_csv(&rows)), rows);
        }
    }
}

//! Result emitters: aligned text, CSV, and JSON, one function per
//! [`Format`].
//!
//! All three serializers are hand-rolled (the build environment has no
//! crates.io access, so `serde` is unavailable); the formats are small
//! enough that this costs ~100 lines total.

use std::fmt;
use std::io::{self, Write};

use crate::exp::table::{CellFailure, Table, Value};

/// Flattens a failure's error text to one line for text/CSV comments.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Renders a failed cell as a `#` comment line (text and CSV formats).
fn failure_comment(failure: &CellFailure) -> String {
    format!(
        "# FAILED {}: [{} after {} attempt{}] {}",
        failure.labels.join("/"),
        failure.kind,
        failure.attempts,
        if failure.attempts == 1 { "" } else { "s" },
        one_line(&failure.error)
    )
}

/// The output formats every figure binary accepts via `--format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned columns (the default).
    Text,
    /// One header row plus one record per cell; CI columns expand into
    /// `<name>` and `<name>_ci95` fields.
    Csv,
    /// A single object with `title`, `axes`, `notes`, and `rows`.
    Json,
}

impl Format {
    /// Every format, in display order.
    pub const ALL: [Format; 3] = [Format::Text, Format::Csv, Format::Json];

    /// Parses a `--format` argument (case-insensitive).
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(Format::Text),
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            _ => None,
        }
    }

    /// The format's `--format` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Formats one table value with the column's precision.
fn format_value(value: Value, precision: usize) -> String {
    match value {
        Value::Num(v) => format!("{v:.precision$}"),
        Value::Ci(ci) => format!("{:.precision$} ±{:.precision$}", ci.mean, ci.half_width),
        Value::Missing => "-".to_string(),
    }
}

/// Human-readable aligned columns, with notes as trailing `#` lines.
pub(super) fn text(table: &Table, out: &mut dyn Write) -> io::Result<()> {
    // Pre-render every cell so column widths can be computed.
    let headers: Vec<String> = table
        .axes()
        .iter()
        .cloned()
        .chain(table.columns().iter().map(|c| c.name().to_string()))
        .collect();
    let rows: Vec<Vec<String>> = (0..table.cells().len())
        .map(|row| {
            let mut fields: Vec<String> = table.cells()[row].labels.clone();
            for (col, column) in table.columns().iter().enumerate() {
                fields.push(format_value(table.value(row, col), column.precision()));
            }
            fields
        })
        .collect();
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].len())
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let num_axes = table.axes().len();

    writeln!(out, "{}", table.title())?;
    writeln!(out)?;
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            line.push_str("  ");
        }
        if i < num_axes {
            line.push_str(&format!("{h:<width$}", width = widths[i]));
        } else {
            line.push_str(&format!("{h:>width$}", width = widths[i]));
        }
    }
    writeln!(out, "{}", line.trim_end())?;
    for row in &rows {
        let mut line = String::new();
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i < num_axes {
                line.push_str(&format!("{field:<width$}", width = widths[i]));
            } else {
                line.push_str(&format!("{field:>width$}", width = widths[i]));
            }
        }
        writeln!(out, "{}", line.trim_end())?;
    }
    for note in table.notes() {
        writeln!(out, "# {note}")?;
    }
    if !table.failures().is_empty() {
        writeln!(out, "# FAILED CELLS ({})", table.failures().len())?;
        for failure in table.failures() {
            writeln!(out, "{}", failure_comment(failure))?;
        }
    }
    Ok(())
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// RFC-4180-style CSV: a header row, then one record per cell.
pub(super) fn csv(table: &Table, out: &mut dyn Write) -> io::Result<()> {
    let mut header: Vec<String> = table.axes().iter().map(|a| csv_field(a)).collect();
    for column in table.columns() {
        header.push(csv_field(column.name()));
        if column.has_ci() {
            header.push(csv_field(&format!("{}_ci95", column.name())));
        }
    }
    writeln!(out, "{}", header.join(","))?;
    for row in 0..table.cells().len() {
        let mut fields: Vec<String> = table.cells()[row]
            .labels
            .iter()
            .map(|l| csv_field(l))
            .collect();
        for (col, column) in table.columns().iter().enumerate() {
            let precision = column.precision();
            match table.value(row, col) {
                Value::Num(v) => fields.push(format!("{v:.precision$}")),
                Value::Ci(ci) => {
                    fields.push(format!("{:.precision$}", ci.mean));
                    fields.push(format!("{:.precision$}", ci.half_width));
                }
                Value::Missing => fields.push(String::new()),
            }
        }
        writeln!(out, "{}", fields.join(","))?;
    }
    for failure in table.failures() {
        writeln!(out, "{}", failure_comment(failure))?;
    }
    Ok(())
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a JSON number; non-finite values become `null` (JSON has no
/// NaN or infinity).
fn json_number(v: f64, precision: usize) -> String {
    if v.is_finite() {
        format!("{v:.precision$}")
    } else {
        "null".to_string()
    }
}

/// A single JSON object: `{"title", "axes", "notes", "rows": [...]}`,
/// each row an object keyed by axis and column names.
pub(super) fn json(table: &Table, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{{")?;
    writeln!(out, "  \"title\": \"{}\",", json_escape(table.title()))?;
    let axes: Vec<String> = table
        .axes()
        .iter()
        .map(|a| format!("\"{}\"", json_escape(a)))
        .collect();
    writeln!(out, "  \"axes\": [{}],", axes.join(", "))?;
    let notes: Vec<String> = table
        .notes()
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    writeln!(out, "  \"notes\": [{}],", notes.join(", "))?;
    // Rendered only when present, so complete runs keep their exact
    // historical output.
    if !table.failures().is_empty() {
        writeln!(out, "  \"failures\": [")?;
        let n = table.failures().len();
        for (i, failure) in table.failures().iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            writeln!(
                out,
                "    {{\"cell\": \"{}\", \"kind\": \"{}\", \"attempts\": {}, \"error\": \"{}\"}}{comma}",
                json_escape(&failure.labels.join("/")),
                failure.kind,
                failure.attempts,
                json_escape(&failure.error)
            )?;
        }
        writeln!(out, "  ],")?;
    }
    writeln!(out, "  \"rows\": [")?;
    let rows = table.cells().len();
    for row in 0..rows {
        let mut fields: Vec<String> = table
            .axes()
            .iter()
            .zip(table.cells()[row].labels.iter())
            .map(|(a, l)| format!("\"{}\": \"{}\"", json_escape(a), json_escape(l)))
            .collect();
        for (col, column) in table.columns().iter().enumerate() {
            let name = json_escape(column.name());
            let precision = column.precision();
            match table.value(row, col) {
                Value::Num(v) => {
                    fields.push(format!("\"{name}\": {}", json_number(v, precision)));
                }
                Value::Missing => fields.push(format!("\"{name}\": null")),
                Value::Ci(ci) => fields.push(format!(
                    "\"{name}\": {{\"mean\": {}, \"ci95\": {}, \"n\": {}}}",
                    json_number(ci.mean, precision),
                    json_number(ci.half_width, precision),
                    ci.n
                )),
            }
        }
        let comma = if row + 1 < rows { "," } else { "" };
        writeln!(out, "    {{{}}}{comma}", fields.join(", "))?;
    }
    writeln!(out, "  ]")?;
    writeln!(out, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parsing_round_trips() {
        for f in Format::ALL {
            assert_eq!(Format::parse(f.label()), Some(f));
            assert_eq!(Format::parse(&f.label().to_ascii_uppercase()), Some(f));
        }
        assert_eq!(Format::parse("yaml"), None);
    }

    #[test]
    fn csv_fields_quote_delimiters() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_numbers_refuse_nan() {
        assert_eq!(json_number(1.25, 2), "1.25");
        assert_eq!(json_number(f64::NAN, 2), "null");
        assert_eq!(json_number(f64::INFINITY, 2), "null");
    }
}

//! Minimal aligned-table printing for the figure binaries.

use std::fmt;

/// A titled, column-aligned table of experiment results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Appends a free-form footnote.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) for assertions.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }

    /// Renders the table as RFC-4180-ish CSV (quotes cells containing
    /// commas or quotes). Notes are omitted; the title becomes a comment
    /// line.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = format!("# {}\n", self.title);
        let render = |cells: &[String]| {
            cells
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&render(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns_and_notes() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "2000".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("note: hello"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, 1), Some("2000"));
        assert_eq!(t.cell(9, 0), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_escapes_and_renders() {
        let mut t = Table::new("fig", &["x", "y"]);
        t.row(vec!["1,5".into(), "plain".into()]);
        t.row(vec!["quote\"d".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "# fig\nx,y\n\"1,5\",plain\n\"quote\"\"d\",2\n");
    }
}

use std::fmt;

/// A rendered experiment result: a titled, aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id (`e1`…`e10`, `f1`, `a1`…`a3`).
    pub id: &'static str,
    /// One-line description including the paper artifact it regenerates.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified cells).
    pub rows: Vec<Vec<String>>,
    /// Free-form conclusion lines printed under the table (e.g. the
    /// paper-vs-measured verdict).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            id,
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Names the columns (before the first row is pushed).
    pub fn set_header(&mut self, header: &[&str]) {
        self.header = header.iter().map(|s| s.to_string()).collect();
    }

    /// Appends a row (must match the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Column-aligned plain-text rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("[{}] {}\n", self.id.to_uppercase(), self.title));
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("  ");
            for (cell, w) in cells.iter().zip(widths) {
                s.push_str(&format!("{cell:>w$}  ", w = *w));
            }
            s.trim_end().to_string() + "\n"
        };
        out.push_str(&line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        out.push_str(&format!("  {}\n", "-".repeat(total.saturating_sub(2))));
        for row in &self.rows {
            out.push_str(&line(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("e1", "demo", &["n", "messages"]);
        t.push_row(vec!["8".into(), "123".into()]);
        t.push_row(vec!["4096".into(), "7".into()]);
        t.push_note("all good");
        let s = t.render();
        assert!(s.contains("[E1] demo"));
        assert!(s.contains("* all good"));
        // The 'n' column is right-aligned to width 4.
        assert!(s.contains("   8"));
        assert!(s.contains("4096"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("e1", "demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }
}

//! Table formatting for the paper-vs-measured reports.

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// What is measured.
    pub quantity: String,
    /// The paper's reported value (verbatim).
    pub paper: String,
    /// Our measured/modeled value.
    pub measured: String,
    /// Shape verdict or remark.
    pub note: String,
}

impl Row {
    /// Build a row.
    pub fn new(
        quantity: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        note: impl Into<String>,
    ) -> Row {
        Row {
            quantity: quantity.into(),
            paper: paper.into(),
            measured: measured.into(),
            note: note.into(),
        }
    }
}

/// Render one experiment's table, preceded by a blank line. Columns are
/// as wide as their widest cell, measured in bytes.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let head = Row::new("quantity", "paper", "measured", "note");
    let width = |cell: fn(&Row) -> &String| {
        rows.iter()
            .chain([&head])
            .map(|r| cell(r).len())
            .max()
            .unwrap_or(0)
    };
    let (wq, wp, wm) = (
        width(|r| &r.quantity),
        width(|r| &r.paper),
        width(|r| &r.measured),
    );
    let line = |r: &Row| {
        let (q, p, m, n) = (&r.quantity, &r.paper, &r.measured, &r.note);
        format!("{q:<wq$}  {p:>wp$}  {m:>wm$}  {n}\n")
    };
    let rule = "-".repeat(wq + wp + wm + 10);
    let body: String = rows.iter().map(line).collect();
    format!("\n== {title}\n{}{rule}\n{body}", line(&head))
}

/// Format a virtual time in the paper's style (milliseconds).
pub fn ms(vt: clouds_simnet::Vt) -> String {
    format!("{:.2} ms", vt.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats() {
        assert_eq!(ms(clouds_simnet::Vt::from_micros(2400)), "2.40 ms");
    }
}

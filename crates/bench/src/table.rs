//! Minimal ASCII table rendering for the `repro` binary's output.

/// Render rows as an aligned ASCII table with a header.
pub fn render(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let sep: String = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, cell) in widths.iter().zip(cells) {
            s.push(' ');
            s.push_str(cell);
            s.push_str(&" ".repeat(w - cell.len() + 1));
            s.push('|');
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&fmt_row(
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out
}

/// Print `rows` as a table: one line of `cells(row)` per row.
pub fn print_rows<T>(
    header: &[&str],
    rows: impl IntoIterator<Item = T>,
    cells: impl Fn(T) -> Vec<String>,
) {
    let rendered: Vec<Vec<String>> = rows.into_iter().map(cells).collect();
    println!("{}", render(header, &rendered));
}

/// Format a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let t = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{t}");
        assert!(t.contains("| long-name |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }
}

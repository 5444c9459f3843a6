//! The one report writer of the `campaign` bin. A campaign fills a
//! [`Report`] — ordered titled tables, named self-gates, notes — and the
//! writer prints it twice: as aligned tables for a human, then as one
//! JSON line, the last line of stdout, stamped with the `scenario:` text
//! and the host shape. A campaign writes no file of its own (its
//! `--profile` trace excepted): `campaign NAME | tail -n1 > FILE` keeps
//! a result.

use xsim_obs::Json;

/// One titled table: column names, then rows of cells.
#[derive(Debug, Clone)]
struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Json>>,
}

/// What a campaign reports. Tables keep the order they were started in,
/// rows the order they were added in.
#[derive(Debug, Clone, Default)]
pub struct Report {
    tables: Vec<Table>,
    gates: Vec<(String, bool)>,
    notes: Vec<String>,
}

/// `x` rounded to `decimals` places as `format!` rounds it, so a cell
/// holds exactly the number its text shows.
pub fn fixed(x: f64, decimals: usize) -> Json {
    Json::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
}

/// A JSON object (keys sorted, as `Json::Obj` keeps them).
fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Report {
    /// Start a table with space-separated `columns`; the rows added next
    /// go to it.
    pub fn table(&mut self, title: impl Into<String>, columns: &str) {
        self.tables.push(Table {
            title: title.into(),
            columns: columns.split_whitespace().map(String::from).collect(),
            rows: Vec::new(),
        });
    }

    /// Add a row to the table started last; one cell per column.
    pub fn row(&mut self, cells: Vec<Json>) {
        let table = self.tables.last_mut().expect("a row needs a table");
        assert_eq!(cells.len(), table.columns.len(), "{}", table.title);
        table.rows.push(cells);
    }

    /// Record a self-gate verdict: a failed gate makes the run exit 1.
    pub fn gate(&mut self, name: impl Into<String>, pass: bool) {
        self.gates.push((name.into(), pass));
    }

    /// Add a line of prose printed after the tables.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// 1 if a gate failed, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.gates.iter().any(|(_, pass)| !pass))
    }

    /// Everything the run prints after its `scenario:` line: the tables,
    /// the gate verdicts and the notes, then the JSON line.
    pub fn render(&self, scenario: &str, workers: usize) -> String {
        let mut out = String::new();
        for t in &self.tables {
            // A number prints its own JSON text, so a cell reads as the
            // value the JSON line holds.
            let text = |c: &Json| match c {
                Json::Str(s) => s.clone(),
                Json::Null => "-".into(),
                c => c.to_string(),
            };
            let mut lines = vec![t.columns.clone()];
            lines.extend(t.rows.iter().map(|row| row.iter().map(text).collect()));
            let width: Vec<usize> = (0..t.columns.len())
                .map(|i| {
                    lines
                        .iter()
                        .map(|l| l[i].chars().count())
                        .max()
                        .unwrap_or(0)
                })
                .collect();
            out += &format!("## {}\n", t.title);
            for line in &lines {
                let padded: Vec<String> = line
                    .iter()
                    .zip(&width)
                    .map(|(c, w)| format!("{c:>w$}"))
                    .collect();
                out += &(padded.join("  ") + "\n");
            }
            out += "\n";
        }
        for (name, pass) in &self.gates {
            out += &format!("gate {}: {name}\n", if *pass { "pass" } else { "FAIL" });
        }
        for note in &self.notes {
            out += &format!("{note}\n");
        }
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| s.as_str().into()).collect());
        let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
        let mem = crate::proc_kib("/proc/meminfo", "MemAvailable").map_or(Json::Null, Json::from);
        let host = obj([
            ("available_parallelism", cpus.into()),
            ("mem_available_kib", mem),
            ("workers", workers.into()),
        ]);
        let tables = self.tables.iter().map(|t| {
            let rows = t.rows.iter().map(|r| Json::Arr(r.clone())).collect();
            obj([
                ("title", t.title.as_str().into()),
                ("columns", strs(&t.columns)),
                ("rows", Json::Arr(rows)),
            ])
        });
        let gates = self
            .gates
            .iter()
            .map(|(name, pass)| obj([("name", name.as_str().into()), ("pass", (*pass).into())]));
        let json = obj([
            ("schema", "xsim-campaign-v1".into()),
            ("scenario", scenario.into()),
            ("host", host),
            ("tables", Json::Arr(tables.collect())),
            ("gates", Json::Arr(gates.collect())),
            ("notes", strs(&self.notes)),
        ]);
        out + &json.to_string() + "\n"
    }

    /// Print [`render`](Self::render) to stdout and exit with
    /// [`exit_code`](Self::exit_code).
    pub fn finish(&self, scenario: &str, workers: usize) -> ! {
        print!("{}", self.render(scenario, workers));
        std::process::exit(self.exit_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::default();
        r.table("modes", "ranks mode e1_us frac beats_full");
        let full = fixed(104867069.4, 0);
        r.row(vec![
            64usize.into(),
            "full".into(),
            full,
            fixed(0.00033, 6),
            false.into(),
        ]);
        let agg = fixed(104863679.0, 0);
        r.row(vec![
            64usize.into(),
            "agg:8".into(),
            agg,
            fixed(0.0000864, 6),
            true.into(),
        ]);
        r.table("empty \"quoted\" title", "x");
        r.table("baseline", "e1_secs surviving");
        r.row(vec![fixed(629.1464, 3), Json::Null]);
        r.gate("alternatives beat full", true);
        r.note("a note");
        r
    }

    fn last_line(r: &Report) -> Json {
        let text = r.render("ckpt-scaling --quick", 2);
        Json::parse(text.lines().last().expect("a last line")).expect("the last line is JSON")
    }

    #[test]
    fn the_last_line_carries_scenario_host_and_every_row_in_order() {
        let r = sample();
        let v = last_line(&r);
        assert_eq!(
            v.get("scenario").and_then(Json::as_str),
            Some("ckpt-scaling --quick")
        );
        let host = v.get("host").expect("host");
        assert_eq!(host.get("workers").and_then(Json::as_u64), Some(2));
        assert!(
            host.get("available_parallelism")
                .and_then(Json::as_u64)
                .unwrap()
                >= 1
        );
        assert!(host.get("mem_available_kib").is_some());
        let tables = v.get("tables").and_then(Json::as_arr).expect("tables");
        let titles: Vec<_> = tables
            .iter()
            .map(|t| t.get("title").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(titles, ["modes", "empty \"quoted\" title", "baseline"]);
        for (t, want) in tables.iter().zip(&r.tables) {
            let rows = t.get("rows").and_then(Json::as_arr).expect("rows");
            let rows: Vec<Vec<Json>> = rows.iter().map(|r| r.as_arr().unwrap().to_vec()).collect();
            assert_eq!(rows, want.rows);
            assert_eq!(
                t.get("columns").and_then(Json::as_arr).unwrap().len(),
                want.columns.len()
            );
        }
        assert_eq!(
            tables[0].get("rows").unwrap().as_arr().unwrap()[0].to_string(),
            r#"[64,"full",104867069,0.00033,false]"#
        );
        assert_eq!(
            tables[2].get("rows").unwrap().to_string(),
            "[[629.146,null]]"
        );
        assert_eq!(r.exit_code(), 0);
    }

    #[test]
    fn a_failed_gate_exits_1_and_is_printed() {
        let mut r = sample();
        r.gate("crossover at the high rung", false);
        assert_eq!(r.exit_code(), 1);
        let text = r.render("protection", 1);
        assert!(text.contains("gate FAIL: crossover at the high rung"));
        let gates = last_line(&r)
            .get("gates")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        assert_eq!(gates[1].get("pass"), Some(&Json::Bool(false)));
    }

    #[test]
    fn the_human_tables_align_their_columns() {
        let text = sample().render("x", 1);
        let lines: Vec<&str> = text.lines().take(4).collect();
        assert_eq!(lines[0], "## modes");
        assert_eq!(lines[1], "ranks   mode      e1_us      frac  beats_full");
        assert_eq!(lines[2], "   64   full  104867069   0.00033       false");
        assert_eq!(lines[3], "   64  agg:8  104863679  0.000086        true");
    }

    #[test]
    fn a_column_of_counts_and_fractions_prints_each_as_its_json() {
        let mut r = Report::default();
        r.table("Table I", "statistic measured");
        r.row(vec!["victims".into(), 99usize.into()]);
        r.row(vec!["mean".into(), fixed(2026.456, 2)]);
        r.row(vec!["mode".into(), fixed(3.0, 2)]);
        let text = r.render("table1", 1);
        let lines: Vec<&str> = text.lines().skip(2).take(3).collect();
        assert_eq!(
            lines,
            [
                "  victims        99",
                "     mean   2026.46",
                "     mode         3"
            ]
        );
        let rows = last_line(&r).get("tables").unwrap().as_arr().unwrap()[0]
            .get("rows")
            .unwrap()
            .to_string();
        assert_eq!(rows, r#"[["victims",99],["mean",2026.46],["mode",3]]"#);
    }
}

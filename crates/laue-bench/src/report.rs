//! What the three benchmark reports (`bench_report`, `bench_serve`,
//! `bench_scaling`) share: one JSON value with one layout rule, the
//! `--quick/--out/--check` command line, and the perf gate that holds a
//! measured ratio to its line of `ci/perf_smoke_baseline.txt`.
//!
//! The layout is what the committed `BENCH_*.json` files look like:
//! containers at depth 0 and 1 put one member per line under a 2-space
//! indent, deeper containers (table rows) render inline with `", "` and
//! `": "`. Every float carries an explicit decimal count, so a report's
//! bytes are a pure function of its numbers.

use std::fmt::Write as _;

/// A JSON value. Objects keep their members in insertion order.
#[derive(Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// A number and how many digits to print after its point.
    Float(f64, usize),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The whole document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Float(x, decimals) => write!(out, "{x:.decimals$}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Array(items) => write_container(out, depth, ('[', ']'), items.len(), |out, i| {
                items[i].write(out, depth + 1)
            }),
            Json::Object(members) => {
                write_container(out, depth, ('{', '}'), members.len(), |out, i| {
                    let (key, value) = &members[i];
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                })
            }
        }
    }
}

fn write_container(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    len: usize,
    mut member: impl FnMut(&mut String, usize),
) {
    out.push(open);
    let block = depth <= 1 && len > 0;
    for i in 0..len {
        if block {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push_str(", ");
        }
        member(out, i);
    }
    if block {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i.into())
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// The command line every report bin takes:
/// `[--quick] [--out FILE] [--check BASELINE]`.
pub struct Args {
    /// Abbreviated run for CI smoke tests.
    pub quick: bool,
    /// Where the JSON report goes.
    pub out: String,
    /// Perf-gate baseline to check the measured ratios against.
    pub check: Option<String>,
}

impl Args {
    /// Parse the process arguments; `default_out` is the report's
    /// committed file name. A malformed command line prints the usage
    /// line and exits 2, so a misspelt gate flag never skips the gates.
    pub fn parse(default_out: &str) -> Args {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Args::from_args(args, default_out).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {program} [--quick] [--out FILE] [--check BASELINE]");
            std::process::exit(2);
        })
    }

    /// Parse `args` (the program name excluded): each one is `--quick`,
    /// `--out FILE` or `--check BASELINE`.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            quick: false,
            out: default_out.to_string(),
            check: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--out" | "--check" => {
                    let value = args
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{arg} needs a value"))?;
                    if arg == "--out" {
                        parsed.out = value;
                    } else {
                        parsed.check = Some(value);
                    }
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(parsed)
    }
}

/// Write `report` to `path` and say so on stdout.
pub fn write_report(path: &str, report: &Json) {
    let text = report.render();
    std::fs::write(path, &text).expect("write report");
    println!("wrote {path} ({} bytes)", text.len());
}

/// Which side of its budget a measured ratio must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The ratio may not exceed the budget.
    Max,
    /// The ratio may not fall below the floor.
    Min,
}

/// The committed perf budgets: one ratio per non-blank, non-`#` line.
pub struct Baseline {
    path: String,
    ratios: Vec<f64>,
}

impl Baseline {
    /// Parse baseline `text` (read from `path`, named in messages).
    pub fn parse(path: &str, text: &str) -> Result<Baseline, String> {
        let ratios = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                l.parse()
                    .map_err(|_| format!("bad ratio line {l:?} in {path}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Baseline {
            path: path.to_string(),
            ratios,
        })
    }

    /// Hold `measured` (the ratio `what`) to ratio line `line` (1-based,
    /// as the baseline's comments number them). `Ok` carries the pass
    /// message, `Err` the regression; a missing line is an error too.
    pub fn gate(
        &self,
        line: usize,
        measured: f64,
        bound: Bound,
        what: &str,
    ) -> Result<String, String> {
        let path = &self.path;
        let Some(&budget) = line.checked_sub(1).and_then(|i| self.ratios.get(i)) else {
            return Err(format!("{path} holds no ratio line {line} ({what})"));
        };
        match bound {
            Bound::Max if measured > budget => Err(format!(
                "PERF REGRESSION: {what} {measured:.4} exceeds the committed budget \
                 {budget:.4} (line {line} of {path})"
            )),
            Bound::Min if measured < budget => Err(format!(
                "PERF REGRESSION: {what} {measured:.4} fell below the committed floor \
                 {budget:.4} (line {line} of {path})"
            )),
            Bound::Max => Ok(format!(
                "perf gate: {what} {measured:.4} within budget {budget:.4}"
            )),
            Bound::Min => Ok(format!(
                "perf gate: {what} {measured:.4} above floor {budget:.4}"
            )),
        }
    }
}

/// Run every `(line, measured, bound, what)` gate against the baseline at
/// `path`, printing each pass; the process exits 1 at the first
/// regression, missing line or unreadable baseline.
pub fn check(path: &str, gates: &[(usize, f64, Bound, &str)]) {
    let result = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| Baseline::parse(path, &text))
        .and_then(|baseline| {
            gates.iter().try_for_each(|&(line, measured, bound, what)| {
                println!("{}", baseline.gate(line, measured, bound, what)?);
                Ok(())
            })
        });
    if let Err(e) = result {
        eprintln!("--check: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_each_shape() {
        let cases: Vec<(&str, Json, &str)> = vec![
            (
                "depth 0-1 one member per line, deeper inline",
                Json::object([
                    ("quick", true.into()),
                    (
                        "rows",
                        vec![
                            Json::object([("n", 1u64.into()), ("t", Json::object([("ok", false.into())]))]),
                            Json::object([("n", 2u64.into()), ("list", vec![1u64.into(), 2u64.into()].into())]),
                        ]
                        .into(),
                    ),
                    ("table", Json::object([("k", "v".into())])),
                ]),
                "{\n  \"quick\": true,\n  \"rows\": [\n    {\"n\": 1, \"t\": {\"ok\": false}},\n    \
                 {\"n\": 2, \"list\": [1, 2]}\n  ],\n  \"table\": {\n    \"k\": \"v\"\n  }\n}\n",
            ),
            (
                "float decimals",
                vec![
                    Json::Float(0.0054, 9),
                    Json::Float(1.4532, 3),
                    Json::Float(2.0, 0),
                    Json::Float(-0.5, 2),
                ]
                .into(),
                "[\n  0.005400000,\n  1.453,\n  2,\n  -0.50\n]\n",
            ),
            (
                "escaping",
                Json::object([("a\"b\\c", "tab\there\nnul\u{0}bell\u{7}".into())]),
                "{\n  \"a\\\"b\\\\c\": \"tab\\there\\nnul\\u0000bell\\u0007\"\n}\n",
            ),
            (
                "empty containers",
                Json::object([
                    ("o", Json::object(Vec::<(String, Json)>::new())),
                    ("a", Vec::new().into()),
                    ("deep", vec![Json::object(Vec::<(String, Json)>::new()), Vec::new().into()].into()),
                ]),
                "{\n  \"o\": {},\n  \"a\": [],\n  \"deep\": [\n    {},\n    []\n  ]\n}\n",
            ),
        ];
        for (what, value, want) in cases {
            assert_eq!(value.render(), want, "{what}");
        }
        assert_eq!(Json::Array(Vec::new()).render(), "[]\n");
    }

    #[test]
    fn gate_passes_breaches_and_rejects_a_missing_line() {
        let b = Baseline::parse("base.txt", "# comment\n0.87\n\n  1.30  \n").unwrap();
        assert_eq!(
            b.gate(1, 0.82, Bound::Max, "compact/dense ratio"),
            Ok("perf gate: compact/dense ratio 0.8200 within budget 0.8700".into())
        );
        let breach = b
            .gate(1, 0.90, Bound::Max, "compact/dense ratio")
            .unwrap_err();
        assert!(
            breach.starts_with("PERF REGRESSION: compact/dense ratio 0.9000 exceeds"),
            "{breach}"
        );
        assert!(breach.contains("line 1 of base.txt"), "{breach}");
        assert!(b
            .gate(2, 1.45, Bound::Min, "goodput ratio")
            .unwrap()
            .contains("above floor 1.3000"));
        let floor = b.gate(2, 1.20, Bound::Min, "goodput ratio").unwrap_err();
        assert!(
            floor.contains("goodput ratio 1.2000 fell below the committed floor 1.3000"),
            "{floor}"
        );
        assert_eq!(
            b.gate(2, 1.30, Bound::Min, "at the floor").map(|_| ()),
            Ok(())
        );
        let missing = b.gate(3, 0.5, Bound::Max, "ring ratio").unwrap_err();
        assert_eq!(missing, "base.txt holds no ratio line 3 (ring ratio)");
        assert!(b.gate(0, 0.5, Bound::Max, "line zero").is_err());
        assert!(Baseline::parse("bad.txt", "0.5\nfast\n").is_err());

        // The command line that selects the gates: a misspelt or valueless
        // gate flag is an error, never a silently skipped gate.
        let parse = |args: &[&str]| {
            Args::from_args(args.iter().map(|a| a.to_string()), "R.json")
                .map(|a| (a.quick, a.out, a.check))
        };
        assert_eq!(parse(&[]), Ok((false, "R.json".into(), None)));
        assert_eq!(
            parse(&["--quick", "--check", "base.txt", "--out", "o.json"]),
            Ok((true, "o.json".into(), Some("base.txt".into())))
        );
        assert_eq!(
            parse(&["--quick", "--chek", "/nonexistent"]),
            Err("unknown argument \"--chek\"".into())
        );
        assert_eq!(parse(&["--check"]), Err("--check needs a value".into()));
        assert_eq!(
            parse(&["--out", "--quick"]),
            Err("--out needs a value".into())
        );
        assert!(parse(&["base.txt"]).is_err());
    }
}
